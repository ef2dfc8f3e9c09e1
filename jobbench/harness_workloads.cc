/**
 * @file
 * The harness workloads: the 34 Table II tests run as jobs through
 * core::runPerpetual and core::analyzeRun.
 *
 *  - sim-suite: simulator, COUNTH over every register outcome,
 *    N = 100,000; each test once batch, once streamed.
 *  - exact-suite: simulator, target only, exact COUNT + COUNTH,
 *    N = 3,000 (T_L <= 2) or 300 (T_L = 3), no exhaustive cap.
 *  - native-suite: native backend, COUNTH over every register
 *    outcome, batch, N = 500,000.
 *
 * A batch job calls runPerpetual with both counters off (execution
 * only), then analyzeRun once per counter, so each layer's time is
 * the wall time of one public call. A streamed job is one
 * runPerpetual call; its execution time comes from the run's own
 * "exec" phase and the rest is the stream tail.
 */

#include <cmath>
#include <optional>

#include "jobbench.h"
#include "litmus/outcome.h"
#include "litmus/registry.h"
#include "model/classify.h"
#include "perple/harness.h"

namespace jobbench
{
namespace
{

using namespace perple;

enum class Suite
{
    Sim,
    Exact,
    Native,
};

struct Job
{
    std::string name;
    core::PerpetualTest perpetual;
    std::vector<litmus::Outcome> outcomes;
    std::int64_t iterations = 0;
    std::uint64_t simSeed = 0;
    int loadThreads = 0;
    bool forbidden = false;
    bool stream = false;

    /** Counts of the first pass; later passes must repeat them. */
    std::optional<core::Counts> heuristicDigest;
    std::optional<core::Counts> exhaustiveDigest;
};

/** Work done by the jobs of one timed loop (for the ledger). */
struct Work
{
    std::size_t passes = 0;
    std::vector<double> jobMs;

    /** Per job of the suite: its wall seconds and target count in
     *  each pass. */
    std::vector<std::vector<double>> jobSeconds;
    std::vector<std::vector<double>> jobTargets;

    double iterations = 0;
    double counthPivots = 0;
    double countFrames = 0;
    double kernelOutcomes = 0;
    double kernelSpecialized = 0;
    double streamEpochs = 0;
    double seamDeferrals = 0;
    double barrierBailouts = 0;
};

struct Sizes
{
    std::int64_t iterations;
    std::int64_t iterationsTl3;
    bool allOutcomes;
    bool streamToo;
    std::size_t minJobs;
};

Sizes
sizesFor(Suite suite, bool tiny)
{
    // Percentiles need at least 10 samples past p90: 100 jobs.
    const std::size_t minJobs = tiny ? 34 : 100;
    switch (suite) {
    case Suite::Sim:
        return {tiny ? 2000 : 100000, tiny ? 2000 : 100000, true, true,
                minJobs};
    case Suite::Exact:
        return {tiny ? 300 : 3000, tiny ? 60 : 300, false, false,
                minJobs};
    case Suite::Native:
        return {tiny ? 5000 : 500000, tiny ? 5000 : 500000, true,
                false, minJobs};
    }
    return {};
}

/** Convert every Table II test and enumerate its outcomes. */
std::vector<Job>
buildJobs(const Sizes &sizes, std::uint64_t seed,
          double *convertSeconds)
{
    const std::int64_t start = nowNs();
    std::vector<Job> jobs;
    Rng rng{seed};
    for (const litmus::SuiteEntry &entry : litmus::perpetualSuite()) {
        Job job;
        job.name = entry.test.name;
        job.perpetual = core::convert(entry.test);
        job.loadThreads = entry.test.numLoadThreads();
        job.iterations = job.loadThreads >= 3 ? sizes.iterationsTl3
                                              : sizes.iterations;
        job.simSeed = rng.next();
        job.outcomes.push_back(entry.test.target);
        if (sizes.allOutcomes)
            for (litmus::Outcome &outcome :
                 litmus::enumerateRegisterOutcomes(entry.test))
                if (!(outcome == entry.test.target))
                    job.outcomes.push_back(std::move(outcome));
        jobs.push_back(std::move(job));
    }
    *convertSeconds = secondsSince(start);
    // The model layer's work is set-up too.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].forbidden =
            model::classifyTargetTso(
                litmus::perpetualSuite()[i].test) ==
            litmus::TsoVerdict::Forbidden;
    if (sizes.streamToo) {
        const std::size_t batch = jobs.size();
        for (std::size_t i = 0; i < batch; ++i) {
            Job streamed = jobs[i];
            streamed.stream = true;
            jobs.push_back(std::move(streamed));
        }
    }
    return jobs;
}

class HarnessBench
{
  public:
    HarnessBench(Suite suite, const Options &options, Report &report)
        : suite_(suite), options_(options), report_(report),
          sizes_(sizesFor(suite, options.tiny))
    {}

    void
    setup()
    {
        setupRep(true);
        Rng rng{options_.seed ^ 0x5eedull};
        order_ = permutation(jobs_.size(), rng);
    }

    /** One timed set-up; @p keep makes its jobs the ones that run. */
    void
    setupRep(bool keep)
    {
        const std::int64_t start = nowNs();
        double convert = 0;
        std::vector<Job> jobs = buildJobs(sizes_, options_.seed, &convert);
        setupSeconds_.push_back(secondsSince(start));
        convertSeconds_.push_back(convert);
        if (keep)
            jobs_ = std::move(jobs);
    }

    void
    finishSetupReps()
    {
        while (!options_.tiny && setupSeconds_.size() < kSetupReps)
            setupRep(false);
    }

    /**
     * Whole passes until @p seconds have elapsed, and at least three
     * (for the per-job medians) holding at least 100 jobs (for p90).
     */
    Work
    loop(double seconds, Tracer &tracer)
    {
        Work work;
        work.jobSeconds.resize(jobs_.size());
        work.jobTargets.resize(jobs_.size());
        const std::int64_t start = nowNs();
        const std::size_t minPasses = options_.tiny ? 1 : 3;
        while (secondsSince(start) < seconds ||
               work.passes < minPasses ||
               work.jobMs.size() < sizes_.minJobs) {
            for (std::size_t k = 0; k < order_.size(); ++k) {
                runJob(order_[k], tracer, work);
                if (!options_.tiny && k % 8 == 7)
                    setupRep(false);
            }
            ++work.passes;
        }
        return work;
    }

    /**
     * Untimed reference check of exact-suite: re-execute a seeded
     * subset and recount COUNT with the serial interpreter
     * ExhaustiveCounter, the reference path.
     */
    void
    recountExact()
    {
        Rng rng{options_.seed ^ 0xec0ull};
        const std::vector<std::size_t> order =
            permutation(jobs_.size(), rng);
        const std::size_t subset = options_.tiny ? jobs_.size() : 6;
        for (std::size_t k = 0; k < subset && k < order.size(); ++k) {
            Job &job = jobs_[order[k]];
            core::HarnessConfig config = baseConfig(job);
            config.runHeuristic = false;
            const core::HarnessResult run = core::runPerpetual(
                job.perpetual, job.iterations, job.outcomes, config);
            core::ExhaustiveCounter reference(
                job.perpetual.original,
                core::buildPerpetualOutcomes(job.perpetual.original,
                                             job.outcomes));
            reference.setKernelMode(core::KernelMode::Interpreter);
            const core::Counts expected = reference.count(
                job.iterations, core::RawBufs(run.run.bufs),
                core::CountMode::FirstMatch, 1);
            ++report_.attempted;
            if (!run.exhaustive || *run.exhaustive != expected ||
                !job.exhaustiveDigest || *job.exhaustiveDigest != expected)
                report_.fail(job.name +
                             ": COUNT differs from the serial "
                             "interpreter recount");
        }
    }

    /**
     * Rates per second of job time over one suite pass, each job
     * taken at its median across the passes: every pass runs the same
     * jobs, so the medians set aside passes slowed by other load on
     * the host.
     */
    void
    reportEndToEnd(const Work &work)
    {
        double seconds = 0;
        double iterations = 0;
        double targets = 0;
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            seconds += median(work.jobSeconds[i]);
            targets += median(work.jobTargets[i]);
            iterations += static_cast<double>(jobs_[i].iterations);
        }
        report_.set("setup_s", median(setupSeconds_), "s");
        report_.set("jobs_per_s",
                    static_cast<double>(jobs_.size()) / seconds, "1/s");
        report_.set("iters_per_s", iterations / seconds, "1/s");
        report_.set("target_hits_per_s", targets / seconds, "1/s");
        report_.set("job_p50_ms", quantile(work.jobMs, 0.5), "ms");
        report_.set("job_p90_ms", quantile(work.jobMs, 0.9), "ms");
    }

    void
    reportLayers(const Work &untraced, const Work &traced,
                 const Tracer &tracer)
    {
        const auto self = tracer.selfSeconds();
        const auto total = tracer.totalSeconds();
        const auto at = [](const std::map<std::string, double> &map,
                           const char *key) {
            const auto it = map.find(key);
            return it == map.end() ? 0.0 : it->second;
        };
        const double passes = static_cast<double>(traced.passes);
        const char *exec = suite_ == Suite::Native ? "runtime" : "sim";
        const double execS = at(self, exec);
        report_.set(std::string(exec) + ".exec_s", execS / passes, "s");
        report_.set(std::string(exec) + ".iters_per_s",
                    traced.iterations / execS, "1/s");
        if (suite_ == Suite::Native)
            report_.set("runtime.barrier_bailouts",
                        traced.barrierBailouts / passes, "count");
        const double counthS = at(self, "counth");
        report_.set("counth.s", counthS / passes, "s");
        report_.set("counth.pivots_per_s",
                    traced.counthPivots / counthS, "1/s");
        report_.set("counth.kernel_share",
                    traced.kernelSpecialized / traced.kernelOutcomes,
                    "ratio");
        if (suite_ == Suite::Exact) {
            const double countS = at(self, "count");
            report_.set("count.s", countS / passes, "s");
            report_.set("count.frames", traced.countFrames / passes,
                        "count");
            report_.set("count.frames_per_s",
                        traced.countFrames / countS, "1/s");
        }
        if (sizes_.streamToo) {
            report_.set("stream.epochs", traced.streamEpochs / passes,
                        "count");
            report_.set("stream.seam_deferrals",
                        traced.seamDeferrals / passes, "count");
            report_.set("stream.tail_s", at(self, "stream") / passes,
                        "s");
        }
        report_.set("setup.convert_s", median(convertSeconds_), "s");
        report_.set("ledger.residual_pct",
                    100.0 * at(self, "job") / at(total, "job"), "%");
        report_.set("ledger.trace_overhead_pct",
                    100.0 * (median(traced.jobMs) /
                                 median(untraced.jobMs) -
                             1.0),
                    "%");
    }

  private:
    core::HarnessConfig
    baseConfig(const Job &job) const
    {
        core::HarnessConfig config;
        config.backend = suite_ == Suite::Native
                             ? core::Backend::Native
                             : core::Backend::Simulator;
        config.seed = job.simSeed;
        config.analysisThreads = 2;
        config.runExhaustive = suite_ == Suite::Exact;
        config.runHeuristic = true;
        return config;
    }

    void
    runJob(std::size_t index, Tracer &tracer, Work &work)
    {
        Job &job = jobs_[index];
        const std::uint64_t id = nextJob_++;
        const std::int64_t start = nowNs();
        const std::int64_t root = tracer.open("job", id);
        core::HarnessConfig config = baseConfig(job);
        core::HarnessResult result;
        std::optional<core::KernelReport> counthKernels;
        if (job.stream) {
            config.streamEpochIters = 16384;
            config.streamRingDepth = 4;
            const std::int64_t callStart = nowNs();
            result = core::runPerpetual(job.perpetual, job.iterations,
                                        job.outcomes, config);
            const std::int64_t callEnd = nowNs();
            const std::int64_t span =
                tracer.add("stream", id, root, callStart, callEnd);
            // Execution ran on its own thread inside the call; its
            // wall time is the run's "exec" phase.
            tracer.add("sim", id, span, callStart,
                       callStart + result.timing.phaseNs("exec"));
            if (result.streamStats) {
                work.streamEpochs +=
                    static_cast<double>(result.streamStats->epochs);
                work.seamDeferrals += static_cast<double>(
                    result.streamStats->deferredSeamPivots);
            }
        } else {
            const bool exhaustive = config.runExhaustive;
            config.runExhaustive = false;
            config.runHeuristic = false;
            {
                Scoped exec(tracer,
                            suite_ == Suite::Native ? "runtime" : "sim",
                            id, root);
                result = core::runPerpetual(job.perpetual,
                                            job.iterations,
                                            job.outcomes, config);
            }
            if (exhaustive) {
                config.runExhaustive = true;
                Scoped count(tracer, "count", id, root);
                core::analyzeRun(job.perpetual, job.iterations,
                                 job.outcomes, config, result);
                config.runExhaustive = false;
            }
            config.runHeuristic = true;
            result.kernelReport.reset();
            {
                Scoped counth(tracer, "counth", id, root);
                core::analyzeRun(job.perpetual, job.iterations,
                                 job.outcomes, config, result);
            }
            counthKernels = result.kernelReport;
        }
        tracer.close(root);
        const double seconds = secondsSince(start);
        work.jobMs.push_back(seconds * 1e3);
        work.jobSeconds[index].push_back(seconds);
        ++report_.attempted;

        const double n = static_cast<double>(job.iterations);
        const double outcomes = static_cast<double>(job.outcomes.size());
        work.iterations += n;
        work.barrierBailouts +=
            static_cast<double>(result.run.stats.barrierBailouts);
        if (!job.stream)
            work.counthPivots += n * outcomes;
        if (counthKernels) {
            work.kernelOutcomes += outcomes;
            work.kernelSpecialized +=
                static_cast<double>(counthKernels->specializedCount());
        }
        if (result.exhaustive)
            work.countFrames += std::pow(n, job.loadThreads) * outcomes;

        if (options_.inject == "perturb-count" && job.forbidden &&
            !perturbed_) {
            perturbed_ = true;
            if (result.heuristic)
                ++(*result.heuristic)[0];
            if (result.exhaustive)
                ++(*result.exhaustive)[0];
        }
        checkJob(index, result, work);
    }

    void
    checkJob(std::size_t index, const core::HarnessResult &result,
             Work &work)
    {
        Job &job = jobs_[index];
        std::string problem;
        if (!result.heuristic ||
            (suite_ == Suite::Exact && !result.exhaustive)) {
            problem = "a requested counter did not run";
        } else {
            const std::uint64_t counth = (*result.heuristic)[0];
            const std::uint64_t count =
                result.exhaustive ? (*result.exhaustive)[0] : 0;
            work.jobTargets[index].push_back(static_cast<double>(
                suite_ == Suite::Exact ? count : counth));
            if (job.forbidden && (counth != 0 || count != 0))
                problem = "TSO-forbidden target was counted";
            else if (suite_ == Suite::Exact && counth > count)
                problem = "COUNTH exceeds COUNT";
            else if (suite_ != Suite::Native) {
                // Simulator counts repeat exactly for a fixed seed.
                if (!job.heuristicDigest) {
                    job.heuristicDigest = result.heuristic;
                    job.exhaustiveDigest = result.exhaustive;
                } else if (job.heuristicDigest != result.heuristic ||
                           job.exhaustiveDigest != result.exhaustive) {
                    problem = "counts differ from the first pass";
                }
            }
        }
        if (!problem.empty())
            report_.fail(job.name + (job.stream ? " (stream): " : ": ") +
                         problem);
    }

    Suite suite_;
    const Options &options_;
    Report &report_;
    Sizes sizes_;
    std::vector<Job> jobs_;
    std::vector<std::size_t> order_;
    std::vector<double> setupSeconds_;
    std::vector<double> convertSeconds_;
    std::uint64_t nextJob_ = 1;
    bool perturbed_ = false;
};

Report
runSuite(Suite suite, const Options &options)
{
    Report report;
    HarnessBench bench(suite, options, report);
    bench.setup();
    if (!options.trace) {
        Tracer off(false);
        const Work work = bench.loop(options.seconds, off);
        bench.finishSetupReps();
        bench.reportEndToEnd(work);
        report.set("peak_rss_mb", peakRssMb(), "MiB");
    } else {
        Tracer off(false);
        const Work untraced = bench.loop(options.seconds / 2, off);
        Tracer tracer(true);
        const Work traced = bench.loop(options.seconds / 2, tracer);
        bench.finishSetupReps();
        bench.reportLayers(untraced, traced, tracer);
        tracer.write(options.spansPath);
    }
    if (suite == Suite::Exact)
        bench.recountExact();
    return report;
}

} // namespace

Report
runSimSuite(const Options &options)
{
    return runSuite(Suite::Sim, options);
}

Report
runExactSuite(const Options &options)
{
    return runSuite(Suite::Exact, options);
}

Report
runNativeSuite(const Options &options)
{
    return runSuite(Suite::Native, options);
}

} // namespace jobbench

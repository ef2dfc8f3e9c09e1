/**
 * @file
 * corpus-replay: re-analysis of a captured corpus, the way
 * `perple_trace analyze --corpus` does it.
 *
 * Set-up runs each Table II test once on the simulator at
 * N = 100,000 through core::runPerpetual with a `.plt` capture
 * (default varint-delta encoding) and records its COUNTH target
 * count. The timed loop calls trace::scanCorpus over that corpus with
 * a COUNTH target analyzer and jobs = 2; no test executes.
 *
 * A job is one capture file. scanCorpus opens and validates a file on
 * a pool thread, then calls the analyzer on the same thread, so a
 * file's job starts where the thread's previous analyzer call ended
 * (or at the pass start) and the analyzer's own interval is its
 * COUNTH time; the rest of the job is the trace read path.
 */

#include <filesystem>
#include <fstream>
#include <map>

#include "jobbench.h"
#include "litmus/registry.h"
#include "perple/harness.h"
#include "trace/corpus.h"

namespace jobbench
{
namespace
{

using namespace perple;

struct Work
{
    std::size_t passes = 0;
    std::vector<double> jobMs;
    std::vector<double> passSeconds;
    double iterations = 0;
    double targetHits = 0;
    double fileBytes = 0;
};

/** Per pool thread: where its next file job starts. */
struct ThreadMark
{
    std::uint64_t pass = 0;
    std::int64_t lastEndNs = 0;
};
thread_local ThreadMark tMark;

class ReplayBench
{
  public:
    ReplayBench(const Options &options, Report &report)
        : options_(options), report_(report)
    {}

    void
    setup()
    {
        corpusDir_ = setupRep(0);
        paths_ = trace::discoverCorpus(corpusDir_);

        if (options_.inject == "perturb-count")
            ++recorded_.begin()->second;
        if (options_.inject == "flip-capture-byte") {
            std::fstream file(paths_.front(),
                              std::ios::in | std::ios::out |
                                  std::ios::binary);
            file.seekg(0, std::ios::end);
            const auto middle = file.tellg() / 2;
            file.seekg(middle);
            char byte = 0;
            file.read(&byte, 1);
            byte = static_cast<char>(byte ^ 0x5a);
            file.seekp(middle);
            file.write(&byte, 1);
        }
    }

    /**
     * One timed set-up: convert every test and capture it into a
     * fresh corpus directory, which is returned.
     */
    std::string
    setupRep(std::size_t rep)
    {
        const std::int64_t start = nowNs();
        const std::string dir =
            options_.runDir + "/corpus" + std::to_string(rep);
        std::filesystem::create_directories(dir);
        std::vector<core::PerpetualTest> tests;
        for (const litmus::SuiteEntry &entry : litmus::perpetualSuite())
            tests.push_back(core::convert(entry.test));
        convertSeconds_.push_back(secondsSince(start));

        Rng rng{options_.seed};
        double captureSeconds = 0;
        double bytes = 0;
        std::map<std::string, std::uint64_t> recorded;
        for (const core::PerpetualTest &test : tests) {
            core::HarnessConfig config;
            config.seed = rng.next();
            config.runExhaustive = false;
            config.analysisThreads = 2;
            config.capturePath = dir + "/" + test.original.name + ".plt";
            const core::HarnessResult result = core::runPerpetual(
                test, options_.tiny ? 2000 : 100000,
                {test.original.target}, config);
            captureSeconds += result.timing.phaseSeconds("capture");
            bytes += static_cast<double>(result.captureBytes);
            recorded[test.original.name] = (*result.heuristic)[0];
        }
        setupSeconds_.push_back(secondsSince(start));
        captureSeconds_.push_back(captureSeconds);
        captureMbPerS_.push_back(bytes / (1024.0 * 1024.0) /
                                 captureSeconds);
        // Simulator captures repeat exactly for a fixed seed.
        if (captured_.empty())
            captured_ = recorded_ = recorded;
        else if (recorded != captured_)
            report_.fail("capture counts differ between set-ups");
        return dir;
    }

    /** The remaining set-ups, after the timed loop. */
    void
    finishSetupReps()
    {
        for (std::size_t rep = setupSeconds_.size();
             !options_.tiny && rep < 3; ++rep)
            std::filesystem::remove_all(setupRep(rep));
    }

    Work
    loop(double seconds, Tracer &tracer)
    {
        Work work;
        const std::size_t minJobs = options_.tiny ? 34 : 100;
        const std::int64_t start = nowNs();
        while (secondsSince(start) < seconds ||
               work.jobMs.size() < minJobs)
            runPass(work, tracer);
        return work;
    }

    /**
     * Rates over the median pass: every pass re-analyses the same
     * corpus, so the median sets aside passes slowed by other load on
     * the host.
     */
    void
    reportEndToEnd(const Work &work)
    {
        const double passes = static_cast<double>(work.passes);
        const double seconds = median(work.passSeconds);
        report_.set("setup_s", median(setupSeconds_), "s");
        report_.set("jobs_per_s",
                    static_cast<double>(work.jobMs.size()) / passes /
                        seconds,
                    "1/s");
        report_.set("iters_per_s", work.iterations / passes / seconds,
                    "1/s");
        report_.set("target_hits_per_s",
                    work.targetHits / passes / seconds, "1/s");
        report_.set("job_p50_ms", quantile(work.jobMs, 0.5), "ms");
        report_.set("job_p90_ms", quantile(work.jobMs, 0.9), "ms");
    }

    void
    reportLayers(const Work &untraced, const Work &traced,
                 const Tracer &tracer)
    {
        auto self = tracer.selfSeconds();
        auto total = tracer.totalSeconds();
        const double passes = static_cast<double>(traced.passes);
        report_.set("setup.convert_s", median(convertSeconds_), "s");
        report_.set("trace.capture_s", median(captureSeconds_), "s");
        report_.set("trace.capture_mb_per_s", median(captureMbPerS_),
                    "MiB/s");
        report_.set("trace.open_s", self["trace"] / passes, "s");
        report_.set("trace.read_mb_per_s",
                    traced.fileBytes / (1024.0 * 1024.0) /
                        self["trace"],
                    "MiB/s");
        report_.set("trace.counth_s", self["counth"] / passes, "s");
        report_.set("counth.s", self["counth"] / passes, "s");
        report_.set("counth.pivots_per_s",
                    traced.iterations / self["counth"], "1/s");
        // A pass's residual is the time no file job covers: corpus
        // discovery, the serial aggregation and pool hand-offs.
        report_.set("ledger.residual_pct",
                    100.0 * self["pass"] / total["pass"], "%");
        report_.set("ledger.trace_overhead_pct",
                    100.0 * (quantile(traced.jobMs, 0.5) /
                                 quantile(untraced.jobMs, 0.5) -
                             1.0),
                    "%");
    }

  private:
    void
    runPass(Work &work, Tracer &tracer)
    {
        const std::uint64_t pass = ++passId_;
        const std::int64_t passStart = nowNs();
        const std::int64_t passSpan = tracer.open("pass", pass);
        std::mutex mutex;
        const trace::FileAnalyzer analyzer =
            [&](const trace::TraceReader &reader,
                trace::CorpusFile &file) {
                const std::int64_t hookStart = nowNs();
                const std::int64_t jobStart =
                    tMark.pass == pass ? tMark.lastEndNs : passStart;
                const litmus::Test test = reader.test();
                core::HeuristicCounter counter(
                    test, core::buildPerpetualOutcomes(
                              test, {test.target}));
                file.outcomeLabels = {"target"};
                file.targetOutcome = 0;
                double iterations = 0;
                for (std::size_t r = 0; r < reader.numRuns(); ++r) {
                    const trace::RunInfo &info = reader.runInfo(r);
                    file.runs[r].counts = counter.count(
                        info.iterations, reader.rawBufs(r),
                        core::CountMode::FirstMatch, 1);
                    file.runs[r].counted = true;
                    iterations += static_cast<double>(info.iterations);
                }
                const std::int64_t hookEnd = nowNs();
                tMark = {pass, hookEnd};
                std::lock_guard<std::mutex> lock(mutex);
                const std::uint64_t job = nextJob_++;
                const std::int64_t span =
                    tracer.add("job", job, passSpan, jobStart, hookEnd);
                tracer.add("trace", job, span, jobStart, hookStart);
                tracer.add("counth", job, span, hookStart, hookEnd);
                work.jobMs.push_back(
                    static_cast<double>(hookEnd - jobStart) * 1e-6);
                work.iterations += iterations;
            };
        trace::CorpusOptions corpusOptions;
        corpusOptions.jobs = 2;
        const trace::CorpusReport report = trace::scanCorpus(
            trace::discoverCorpus(corpusDir_), corpusOptions, analyzer);
        tracer.close(passSpan);
        work.passSeconds.push_back(secondsSince(passStart));
        ++work.passes;
        checkPass(report, work);
    }

    void
    checkPass(const trace::CorpusReport &report, Work &work)
    {
        if (report.files.size() != paths_.size())
            report_.fail("corpus scan saw a different file count");
        for (const trace::CorpusFile &file : report.files) {
            ++report_.attempted;
            work.fileBytes += static_cast<double>(file.fileBytes);
            const auto recorded = recorded_.find(file.testName);
            if (file.status != trace::FileStatus::Ok) {
                report_.fail(file.path + ": replay file is " +
                             trace::fileStatusName(file.status));
            } else if (file.runs.size() != 1 || !file.runs[0].counted ||
                       recorded == recorded_.end() ||
                       file.runs[0].counts.at(0) != recorded->second) {
                report_.fail(file.path +
                             ": replayed count differs from the "
                             "count recorded at capture");
            } else {
                work.targetHits +=
                    static_cast<double>(file.runs[0].counts[0]);
            }
        }
    }

    const Options &options_;
    Report &report_;
    std::string corpusDir_;
    std::vector<std::string> paths_;
    /** Target counts at capture; the checks compare against these. */
    std::map<std::string, std::uint64_t> recorded_;
    std::map<std::string, std::uint64_t> captured_;
    std::vector<double> setupSeconds_;
    std::vector<double> convertSeconds_;
    std::vector<double> captureSeconds_;
    std::vector<double> captureMbPerS_;
    std::uint64_t passId_ = 0;
    std::uint64_t nextJob_ = 1;
};

} // namespace

Report
runCorpusReplay(const Options &options)
{
    Report report;
    ReplayBench bench(options, report);
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
    return report;
}

} // namespace jobbench

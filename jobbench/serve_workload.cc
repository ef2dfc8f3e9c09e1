/**
 * @file
 * serve-mixed: an in-process serve::Daemon (2 workers, journal on,
 * cache on, a corpus dir) driven by two closed-loop clients, each on
 * its own connection.
 *
 * Each client submits Table II jobs at N = 2,000 (T_L = 3 at 200)
 * with the daemon's default job config, in blocks of four: one cold
 * submission of a key never seen before and three cache hits, each
 * resubmitting a key this client has already completed, in a seeded
 * order. The client reads the event stream through Client::readLine
 * and timestamps every event as it arrives: submit → accepted is
 * admission, accepted → started the queue wait, started → result the
 * supervised run (fork, execution, counting, journal, cache store,
 * capture and the corpus manifest refresh).
 */

#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "jobbench.h"
#include "litmus/registry.h"
#include "litmus/writer.h"
#include "model/classify.h"
#include "perple/harness.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "supervise/run.h"
#include "trace/corpus.h"

namespace jobbench
{
namespace
{

using namespace perple;

struct TestInput
{
    std::string source;
    core::PerpetualTest perpetual;
    std::int64_t iterations = 0;
    bool forbidden = false;
};

/** One submission as the client saw it. */
struct Submission
{
    std::string terminal;
    bool cached = false;
    std::string resultText;
    std::int64_t submitNs = 0;
    std::int64_t acceptedNs = 0;
    std::int64_t startedNs = 0;
    std::int64_t resultNs = 0;
};

struct Completed
{
    serve::SubmitRequest request;
    std::string resultText;
};

/** Per-client state that lives across timed loops. */
struct ClientState
{
    Rng rng{0};
    std::size_t colds = 0;
    std::size_t blockPos = 0;
    std::size_t coldSlot = 0;
    std::vector<Completed> completed;
};

struct Work
{
    std::vector<double> jobMs;
    std::vector<double> coldMs;
    std::vector<double> hitMs;
    std::vector<double> admitMs;
    std::vector<double> queueMs;
    std::vector<double> runMs;
    double coldIterations = 0;
    double targetHits = 0;
    double wallSeconds = 0;
    std::vector<std::string> failures;

    void
    merge(const Work &other)
    {
        const auto append = [](std::vector<double> &to,
                               const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(jobMs, other.jobMs);
        append(coldMs, other.coldMs);
        append(hitMs, other.hitMs);
        append(admitMs, other.admitMs);
        append(queueMs, other.queueMs);
        append(runMs, other.runMs);
        coldIterations += other.coldIterations;
        targetHits += other.targetHits;
        failures.insert(failures.end(), other.failures.begin(),
                        other.failures.end());
    }
};

double
ms(std::int64_t from, std::int64_t to)
{
    return static_cast<double>(to - from) * 1e-6;
}

Submission
submit(serve::Client &client, const serve::SubmitRequest &request)
{
    Submission out;
    out.submitNs = nowNs();
    client.sendLine(serve::submitRequestToJson(request).dump());
    while (true) {
        const auto line = client.readLine();
        const std::int64_t at = nowNs();
        if (!line)
            throw std::runtime_error("daemon closed the connection");
        const serve::Json event = serve::Json::parse(*line);
        const std::string kind = event.stringOr("event", "");
        if (kind == "accepted") {
            out.acceptedNs = at;
            out.cached = event.boolOr("cached", false);
        } else if (kind == "started") {
            out.startedNs = at;
        } else if (kind == "result" || kind == "rejected" ||
                   kind == "error") {
            out.resultNs = at;
            out.terminal = kind;
            if (const serve::Json *result = event.find("result"))
                out.resultText = result->dump();
            return out;
        }
    }
}

class ServeBench
{
  public:
    ServeBench(const Options &options, Report &report)
        : options_(options), report_(report)
    {}

    ~ServeBench() { stopDaemon(); }
    ServeBench(const ServeBench &) = delete;
    ServeBench &operator=(const ServeBench &) = delete;

    void
    setup()
    {
        setupRep(0, true);
        Rng order{options_.seed};
        probeOrder_ = permutation(tests_.size(), order);
        for (std::size_t c = 0; c < kClients; ++c)
            clients_[c].rng = Rng{options_.seed * 31 + c + 1};

        // One untimed cold job measures the journal's per-job writes.
        serve::Client client(socket());
        const std::uint64_t before = journalWrites(client);
        Work warmup;
        runCold(client, clients_[0], 0, warmup);
        ++report_.attempted;
        for (const std::string &failure : warmup.failures)
            report_.fail(failure);
        writesPerCold_ =
            static_cast<double>(journalWrites(client) - before);
        if (options_.inject == "perturb-count" &&
            !clients_[0].completed.empty())
            clients_[0].completed[0].resultText += " ";
    }

    /**
     * One timed set-up in a fresh directory: convert and classify
     * every test, then start a daemon. @p keep keeps the daemon
     * running for the timed loop; otherwise it is drained and its
     * directory removed.
     */
    void
    setupRep(std::size_t rep, bool keep)
    {
        namespace fs = std::filesystem;
        // Short relative paths keep the socket far below the 108-byte
        // sun_path limit.
        const std::string dir =
            options_.runDir + "/d" + std::to_string(rep);
        const std::int64_t start = nowNs();
        fs::create_directories(dir + "/state");
        fs::create_directories(dir + "/corpus");
        std::vector<TestInput> tests;
        for (const litmus::SuiteEntry &entry : litmus::perpetualSuite()) {
            TestInput input;
            input.source = litmus::writeTest(entry.test);
            input.perpetual = core::convert(entry.test);
            const bool tl3 = entry.test.numLoadThreads() >= 3;
            input.iterations =
                options_.tiny ? (tl3 ? 50 : 200) : (tl3 ? 200 : 2000);
            tests.push_back(std::move(input));
        }
        convertSeconds_.push_back(secondsSince(start));
        for (std::size_t i = 0; i < tests.size(); ++i)
            tests[i].forbidden =
                model::classifyTargetTso(
                    litmus::perpetualSuite()[i].test) ==
                litmus::TsoVerdict::Forbidden;

        const std::int64_t startAt = nowNs();
        serve::DaemonConfig config;
        config.socketPath = dir + "/s.sock";
        config.stateDir = dir + "/state";
        config.corpusDir = dir + "/corpus";
        config.workers = 2;
        config.journal = true;
        auto daemon = std::make_unique<serve::Daemon>(std::move(config));
        daemon->start();
        daemonStartSeconds_.push_back(secondsSince(startAt));
        setupSeconds_.push_back(secondsSince(start));
        if (keep) {
            dir_ = dir;
            tests_ = std::move(tests);
            daemon_ = std::move(daemon);
            waiter_ = std::thread([this] { daemon_->wait(); });
        } else {
            daemon->requestStop();
            daemon->wait();
            fs::remove_all(dir);
        }
    }

    /** The remaining set-ups, after the timed loop and the drain. */
    void
    finishSetupReps()
    {
        for (std::size_t rep = setupSeconds_.size();
             !options_.tiny && rep < kSetupReps; ++rep)
            setupRep(rep, false);
    }

    Work
    loop(double seconds, Tracer &tracer)
    {
        Work clientWork[kClients];
        const std::int64_t start = nowNs();
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                try {
                    serve::Client client(socket());
                    while (secondsSince(start) < seconds)
                        runBlockStep(client, clients_[c], c,
                                     clientWork[c], tracer);
                } catch (const std::exception &error) {
                    clientWork[c].failures.push_back(
                        std::string("client: ") + error.what());
                }
            });
        // Set-up repetitions between the clients' jobs, every half
        // second (see kSetupReps).
        while (secondsSince(start) < seconds) {
            std::this_thread::sleep_for(std::chrono::milliseconds(500));
            if (!options_.tiny && secondsSince(start) < seconds)
                setupRep(setupSeconds_.size(), false);
        }
        for (std::thread &thread : threads)
            thread.join();
        Work work;
        work.wallSeconds = secondsSince(start);
        for (const Work &one : clientWork)
            work.merge(one);
        report_.attempted += work.jobMs.size();
        for (const std::string &failure : work.failures)
            report_.fail(failure);
        return work;
    }

    /** Ledger extras measured after the timed loops. */
    void
    probeLayers()
    {
        serve::Client client(socket());
        std::vector<double> pings;
        for (int i = 0; i < (options_.tiny ? 20 : 200); ++i) {
            const std::int64_t start = nowNs();
            if (!client.ping())
                report_.fail("ping was not answered");
            pings.push_back(secondsSince(start) * 1e6);
        }
        pingUs_ = median(pings);

        const std::int64_t scanStart = nowNs();
        const trace::CorpusReport corpus = trace::scanCorpus(
            trace::discoverCorpus(dir_ + "/corpus"), {.jobs = 1});
        manifestScanMs_ = secondsSince(scanStart) * 1e3;
        if (corpus.corruptFiles != 0 || corpus.salvagedFiles != 0)
            report_.fail("the daemon's corpus holds damaged captures");

        // The same job supervised (fork, payload pipe, parent-side
        // analysis) and in-process, interleaved.
        std::vector<double> overhead;
        for (std::size_t k = 0; k < (options_.tiny ? 2u : 6u); ++k) {
            const TestInput &test = tests_[probeOrder_[k]];
            core::HarnessConfig config;
            config.seed = options_.seed + k;
            const std::vector<litmus::Outcome> outcomes = {
                test.perpetual.original.target};
            supervise::SupervisorConfig supervisor;
            supervisor.timeoutSeconds = 30;
            const std::int64_t a = nowNs();
            const auto supervised = supervise::runPerpetualSupervised(
                test.perpetual, test.iterations, outcomes, config,
                supervisor);
            const std::int64_t b = nowNs();
            const auto direct = core::runPerpetual(
                test.perpetual, test.iterations, outcomes, config);
            const std::int64_t c = nowNs();
            if (!supervised.ok() || !supervised.analysis ||
                supervised.analysis->exhaustive != direct.exhaustive)
                report_.fail("supervised run differs from in-process");
            overhead.push_back(ms(a, b) - ms(b, c));
        }
        superviseOverheadMs_ = median(overhead);
    }

    /** Daemon-side checks from the status op; then drain. */
    void
    finish(std::size_t hits)
    {
        serve::Client client(socket());
        const serve::Json status = client.status();
        const serve::Json *stats = statsOf(status);
        const std::uint64_t executed = stats->uintOr("executed", 0);
        const std::uint64_t writes = stats->uintOr("journal_writes", 0);
        const std::uint64_t cacheHits = stats->uintOr("cache_hits", 0);
        const std::uint64_t submitted = stats->uintOr("submitted", 0);
        std::size_t colds = 0;
        for (const ClientState &state : clients_)
            colds += state.colds;
        if (executed != colds)
            report_.fail("executed " + std::to_string(executed) +
                         " != distinct cold keys " +
                         std::to_string(colds));
        const double coldWrites =
            writesPerCold_ * static_cast<double>(executed);
        writesPerHit_ = (static_cast<double>(writes) - coldWrites) /
                        static_cast<double>(hits == 0 ? 1 : hits);
        if (static_cast<double>(writes) != coldWrites)
            report_.fail("cache hits wrote to the journal");
        hitRatio_ = static_cast<double>(cacheHits) /
                    static_cast<double>(submitted);
        stopDaemon();
    }

    void
    reportEndToEnd(const Work &work)
    {
        report_.set("setup_s", median(setupSeconds_), "s");
        report_.set("jobs_per_s",
                    static_cast<double>(work.jobMs.size()) /
                        work.wallSeconds,
                    "1/s");
        report_.set("iters_per_s", work.coldIterations / work.wallSeconds,
                    "1/s");
        report_.set("target_hits_per_s",
                    work.targetHits / work.wallSeconds, "1/s");
        report_.set("job_p50_ms", quantile(work.jobMs, 0.5), "ms");
        report_.set("job_p90_ms", quantile(work.jobMs, 0.9), "ms");
    }

    void
    reportLayers(const Work &untraced, const Work &traced,
                 const Tracer &tracer)
    {
        auto self = tracer.selfSeconds();
        auto total = tracer.totalSeconds();
        report_.set("setup.convert_s", median(convertSeconds_), "s");
        report_.set("setup.daemon_start_s", median(daemonStartSeconds_),
                    "s");
        report_.set("serve.admit_ms", median(traced.admitMs), "ms");
        report_.set("serve.queue_ms", median(traced.queueMs), "ms");
        report_.set("serve.run_ms", median(traced.runMs), "ms");
        report_.set("serve.ping_us", pingUs_, "us");
        report_.set("serve.journal_writes_per_cold", writesPerCold_,
                    "count");
        report_.set("serve.journal_writes_per_hit", writesPerHit_,
                    "count");
        report_.set("serve.hit_ratio", hitRatio_, "ratio");
        report_.set("serve.cold_p50_ms", quantile(traced.coldMs, 0.5),
                    "ms");
        report_.set("serve.cold_p90_ms", quantile(traced.coldMs, 0.9),
                    "ms");
        report_.set("serve.hit_p50_ms", quantile(traced.hitMs, 0.5),
                    "ms");
        report_.set("serve.hit_p90_ms", quantile(traced.hitMs, 0.9),
                    "ms");
        report_.set("trace.manifest_scan_ms", manifestScanMs_, "ms");
        report_.set("supervise.overhead_ms", superviseOverheadMs_, "ms");
        report_.set("ledger.residual_pct",
                    100.0 * self["job"] / total["job"], "%");
        // Cold latency grows with the corpus, so compare hits.
        report_.set("ledger.trace_overhead_pct",
                    100.0 * (median(traced.hitMs) /
                                 median(untraced.hitMs) -
                             1.0),
                    "%");
    }

  private:
    static constexpr std::size_t kClients = 2;

    std::string
    socket() const
    {
        return dir_ + "/s.sock";
    }

    static const serve::Json *
    statsOf(const serve::Json &status)
    {
        const serve::Json *stats = status.find("stats");
        if (stats == nullptr || !stats->isObject())
            throw std::runtime_error("status reply without stats");
        return stats;
    }

    static std::uint64_t
    journalWrites(serve::Client &client)
    {
        return statsOf(client.status())->uintOr("journal_writes", 0);
    }

    void
    stopDaemon()
    {
        if (!daemon_)
            return;
        daemon_->requestStop();
        waiter_.join();
        daemon_.reset();
    }

    void
    runBlockStep(serve::Client &client, ClientState &state,
                 std::size_t index, Work &work, Tracer &tracer)
    {
        // Blocks of four: one cold submission and three hits, the
        // cold one at a seeded position (first while nothing of this
        // client's has completed yet).
        if (state.blockPos == 0)
            state.coldSlot =
                state.completed.empty() ? 0 : state.rng.below(4);
        const bool cold =
            state.completed.empty() || state.blockPos == state.coldSlot;
        state.blockPos = (state.blockPos + 1) % 4;
        const Submission got = cold ? runCold(client, state, index, work)
                                    : runHit(client, state, work);
        record(work, got, cold, tracer);
    }

    Submission
    runCold(serve::Client &client, ClientState &state,
            std::size_t index, Work &work)
    {
        // Table order, the clients half a suite apart: a run's cold
        // mix depends on how many colds it completes, not on the seed.
        const TestInput &test =
            tests_[(state.colds + index * tests_.size() / kClients) %
                   tests_.size()];
        serve::SubmitRequest request;
        request.test = test.source;
        request.iterations = test.iterations;
        request.config.seed =
            options_.seed * 1000003 + index * 1000000 + state.colds;
        ++state.colds;
        const Submission got = submit(client, request);
        std::string problem;
        if (got.terminal != "result" || got.cached) {
            problem = "cold job ended with " + got.terminal +
                      (got.cached ? " (cached)" : "");
        } else {
            const serve::Json result = serve::Json::parse(got.resultText);
            const serve::Json *exhaustive = result.find("exhaustive");
            const serve::Json *heuristic = result.find("heuristic");
            if (result.stringOr("status", "") != "ok" ||
                exhaustive == nullptr || heuristic == nullptr) {
                problem = "cold result is incomplete: " + got.resultText;
            } else {
                const std::uint64_t count =
                    exhaustive->items().at(0).asUint64();
                const std::uint64_t counth =
                    heuristic->items().at(0).asUint64();
                if (test.forbidden && (count != 0 || counth != 0))
                    problem = "TSO-forbidden target was counted";
                work.targetHits += static_cast<double>(count);
                work.coldIterations +=
                    static_cast<double>(request.iterations);
            }
        }
        if (problem.empty())
            state.completed.push_back({request, got.resultText});
        else
            work.failures.push_back(test.perpetual.original.name + ": " +
                                    problem);
        return got;
    }

    Submission
    runHit(serve::Client &client, ClientState &state, Work &work)
    {
        const Completed &key =
            state.completed[state.rng.below(state.completed.size())];
        const Submission got = submit(client, key.request);
        if (got.terminal != "result" || !got.cached)
            work.failures.push_back("hit ended with " + got.terminal +
                                    (got.cached ? "" : " (not cached)"));
        else if (got.resultText != key.resultText)
            work.failures.push_back(
                "hit bytes differ from the cold result");
        return got;
    }

    void
    record(Work &work, const Submission &got, bool cold, Tracer &tracer)
    {
        const double jobMs = ms(got.submitNs, got.resultNs);
        work.jobMs.push_back(jobMs);
        (cold ? work.coldMs : work.hitMs).push_back(jobMs);
        if (cold && got.startedNs != 0) {
            work.admitMs.push_back(ms(got.submitNs, got.acceptedNs));
            work.queueMs.push_back(ms(got.acceptedNs, got.startedNs));
            work.runMs.push_back(ms(got.startedNs, got.resultNs));
        }
        if (!tracer.enabled())
            return;
        const std::uint64_t job = nextJob_.fetch_add(1);
        const std::int64_t root =
            tracer.add("job", job, -1, got.submitNs, got.resultNs);
        tracer.add("serve.admit", job, root, got.submitNs,
                   got.acceptedNs);
        if (cold) {
            tracer.add("serve.queue", job, root, got.acceptedNs,
                       got.startedNs);
            tracer.add("serve.run", job, root, got.startedNs,
                       got.resultNs);
        } else {
            tracer.add("serve.hit", job, root, got.acceptedNs,
                       got.resultNs);
        }
    }

    const Options &options_;
    Report &report_;
    std::string dir_;
    std::vector<TestInput> tests_;
    std::vector<std::size_t> probeOrder_;
    std::unique_ptr<serve::Daemon> daemon_;
    std::thread waiter_;
    ClientState clients_[kClients];
    std::atomic<std::uint64_t> nextJob_{1};
    std::vector<double> setupSeconds_;
    std::vector<double> convertSeconds_;
    std::vector<double> daemonStartSeconds_;
    double writesPerCold_ = 0;
    double writesPerHit_ = 0;
    double hitRatio_ = 0;
    double pingUs_ = 0;
    double manifestScanMs_ = 0;
    double superviseOverheadMs_ = 0;
};

} // namespace

Report
runServeMixed(const Options &options)
{
    Report report;
    ServeBench bench(options, report);
    bench.setup();
    if (!options.trace) {
        Tracer off(false);
        const Work work = bench.loop(options.seconds, off);
        bench.finish(work.hitMs.size());
        bench.finishSetupReps();
        bench.reportEndToEnd(work);
        report.set("peak_rss_mb", peakRssMb(), "MiB");
    } else {
        Tracer off(false);
        const Work untraced = bench.loop(options.seconds / 2, off);
        Tracer tracer(true);
        const Work traced = bench.loop(options.seconds / 2, tracer);
        bench.probeLayers();
        bench.finish(untraced.hitMs.size() + traced.hitMs.size());
        bench.finishSetupReps();
        bench.reportLayers(untraced, traced, tracer);
        tracer.write(options.spansPath);
    }
    return report;
}

} // namespace jobbench

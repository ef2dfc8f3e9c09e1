/**
 * @file
 * Shared pieces of the job-level benchmark: run options, the result
 * report printed as the final JSON line, benchmark-side spans, and the
 * small statistics the workloads share.
 *
 * Every workload runs whole jobs through the library's public entry
 * points and times each layer from outside, around the call into it.
 * Nothing here reaches into src/: spans are recorded by the benchmark
 * around core::runPerpetual, core::analyzeRun, trace::scanCorpus,
 * supervise::runPerpetualSupervised and the serve::Client socket.
 */

#ifndef JOBBENCH_JOBBENCH_H
#define JOBBENCH_JOBBENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace jobbench
{

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;

    /** Traced run: print the per-layer ledger instead of the
     *  end-to-end metrics. */
    bool trace = false;

    /** Tiny iteration counts, for the benchmark's own smoke tests. */
    bool tiny = false;

    /**
     * Deliberate fault for the negative tests: "perturb-count" adds
     * one to a recorded count, "flip-capture-byte" corrupts one
     * replay capture. Empty in measured runs.
     */
    std::string inject;

    /** Fresh per-run scratch directory (state dir, corpus, socket). */
    std::string runDir;

    /** Where a traced run writes its spans, one JSON line each. */
    std::string spansPath;
};

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** Output of one run: the last stdout line. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Name → (value, unit), in the order they were set. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void set(const std::string &name, double value,
             const std::string &unit);

    /**
     * Record one failed check: printed to stderr, counted in
     * `failed`. Failures of one job count once per call, so callers
     * check a job's outputs together and report once.
     */
    void fail(const std::string &what);

    /** One-line JSON object with correct/attempted/failed/metrics. */
    std::string json() const;
};

/** One benchmark-side span. */
struct Span
{
    std::string name;
    std::uint64_t job = 0;
    std::int64_t parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * In-memory span recorder. Disabled tracers record nothing, so the
 * untraced end-to-end runs pay one branch per call site. Spans of one
 * job share its job id; a layer's self time is its duration minus
 * the union of its children's intervals.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool
    enabled() const
    {
        return enabled_;
    }

    /** Open a span now; returns its id, -1 when disabled. */
    std::int64_t open(const std::string &name, std::uint64_t job,
                      std::int64_t parent = -1);

    /** Close span @p id now (no-op for -1). */
    void close(std::int64_t id);

    /** Record a span whose interval was measured elsewhere. */
    std::int64_t add(const std::string &name, std::uint64_t job,
                     std::int64_t parent, std::int64_t startNs,
                     std::int64_t endNs);

    /** Self seconds summed per span name. */
    std::map<std::string, double> selfSeconds() const;

    /** Total seconds summed per span name. */
    std::map<std::string, double> totalSeconds() const;

    /** Write every span as one JSON line to @p path. */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span around one call into a layer. */
class Scoped
{
  public:
    Scoped(Tracer &tracer, const std::string &name, std::uint64_t job,
           std::int64_t parent = -1)
        : tracer_(tracer), id_(tracer.open(name, job, parent))
    {}
    ~Scoped() { tracer_.close(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t id_;
};

/** Linear-interpolated quantile of @p values (q in [0, 1]). */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Peak resident set of this process (VmHWM), MiB. */
double peakRssMb();

/** splitmix64: the benchmark's seeded stream of inputs. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, bound). */
    std::size_t
    below(std::size_t bound)
    {
        return static_cast<std::size_t>(next() % bound);
    }
};

/** Seeded permutation of 0..n-1. */
std::vector<std::size_t> permutation(std::size_t n, Rng &rng);

/**
 * Least set-up repetitions per run. Set-up runs once before the timed
 * loop and again at intervals during it (and after it, until this many
 * have run): the host's speed drifts over seconds, so a median over
 * repetitions spread across the run is steadier than one over
 * back-to-back repetitions.
 */
constexpr std::size_t kSetupReps = 15;

// --- Workloads (one translation unit each family) -----------------

Report runSimSuite(const Options &options);
Report runExactSuite(const Options &options);
Report runNativeSuite(const Options &options);
Report runCorpusReplay(const Options &options);
Report runServeMixed(const Options &options);

} // namespace jobbench

#endif // JOBBENCH_JOBBENCH_H

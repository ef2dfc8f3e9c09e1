/**
 * @file
 * jobbench: the job-level benchmark program.
 *
 *   jobbench --workload W --seed S --seconds T --trace 0|1
 *            --run-dir DIR [--spans FILE] [--tiny] [--inject KIND]
 *
 * Prints a preamble (seed, workloads, nproc, CPU model, build type)
 * and, as the last stdout line, one JSON object with `correct`,
 * `attempted`, `failed` and `metrics`: the end-to-end metrics for
 * --trace 0, the per-layer ledger for --trace 1. Exits non-zero
 * without a result line when the run itself cannot complete; failed
 * output checks are reported in the result instead.
 *
 * Every run works in a fresh --run-dir that it removes on exit, and
 * ends with no child process alive.
 */

#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/strings.h"
#include "jobbench.h"

namespace
{

using namespace jobbench;

struct Workload
{
    const char *name;
    Report (*run)(const Options &);
};

const Workload kWorkloads[] = {
    {"sim-suite", runSimSuite},
    {"exact-suite", runExactSuite},
    {"serve-mixed", runServeMixed},
    {"corpus-replay", runCorpusReplay},
    {"native-suite", runNativeSuite},
};

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every workload prints (--trace 0). */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"jobs_per_s", "1/s"},
    {"iters_per_s", "1/s"},
    {"target_hits_per_s", "1/s"},
    {"job_p50_ms", "ms"},
    {"job_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/**
 * The per-layer ledger (--trace 1). A layer the workload does not
 * exercise reads 0; which workloads move which metric is recorded in
 * NOTES.md.
 */
const MetricSpec kPerLayer[] = {
    {"setup.convert_s", "s"},
    {"setup.daemon_start_s", "s"},
    {"sim.exec_s", "s"},
    {"sim.iters_per_s", "1/s"},
    {"runtime.exec_s", "s"},
    {"runtime.iters_per_s", "1/s"},
    {"runtime.barrier_bailouts", "count"},
    {"counth.s", "s"},
    {"counth.pivots_per_s", "1/s"},
    {"counth.kernel_share", "ratio"},
    {"count.s", "s"},
    {"count.frames", "count"},
    {"count.frames_per_s", "1/s"},
    {"stream.epochs", "count"},
    {"stream.seam_deferrals", "count"},
    {"stream.tail_s", "s"},
    {"trace.open_s", "s"},
    {"trace.read_mb_per_s", "MiB/s"},
    {"trace.counth_s", "s"},
    {"trace.capture_s", "s"},
    {"trace.capture_mb_per_s", "MiB/s"},
    {"trace.manifest_scan_ms", "ms"},
    {"supervise.overhead_ms", "ms"},
    {"serve.admit_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.ping_us", "us"},
    {"serve.journal_writes_per_cold", "count"},
    {"serve.journal_writes_per_hit", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.cold_p50_ms", "ms"},
    {"serve.cold_p90_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.hit_p90_ms", "ms"},
    {"ledger.residual_pct", "%"},
    {"ledger.trace_overhead_pct", "%"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "jobbench: %s\n"
                 "usage: jobbench --workload W --seed S --seconds T "
                 "--trace 0|1 --run-dir DIR [--spans FILE] [--tiny] "
                 "[--inject perturb-count|flip-capture-byte]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed") {
            if (!perple::parseFullUint64(value(), options.seed))
                usage("--seed must be a whole number");
        } else if (arg == "--seconds") {
            if (!perple::parseFullDouble(value(), options.seconds))
                usage("--seconds must be a number");
        }
        else if (arg == "--trace")
            options.trace = value() == "1";
        else if (arg == "--run-dir")
            options.runDir = value();
        else if (arg == "--spans")
            options.spansPath = value();
        else if (arg == "--tiny")
            options.tiny = true;
        else if (arg == "--inject")
            options.inject = value();
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (options.runDir.empty())
        usage("--run-dir is required");
    if (!(options.seconds > 0))
        usage("--seconds must be positive");
    if (!options.inject.empty() && options.inject != "perturb-count" &&
        options.inject != "flip-capture-byte")
        usage("unknown --inject kind");
    if (options.spansPath.empty())
        options.spansPath = options.runDir + ".spans.jsonl";
    return options;
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

/** Canonical metric list: end-to-end ones must all be present. */
Report
canonical(const Report &raw, bool trace)
{
    Report out;
    out.attempted = raw.attempted;
    out.failed = raw.failed;
    const auto find = [&](const char *name)
        -> const std::pair<double, std::string> * {
        for (const auto &metric : raw.metrics)
            if (metric.first == name)
                return &metric.second;
        return nullptr;
    };
    if (!trace) {
        for (const MetricSpec &spec : kEndToEnd) {
            const auto *metric = find(spec.name);
            if (metric == nullptr || metric->second != spec.unit)
                throw std::logic_error(std::string("workload did not "
                                                   "report ") +
                                       spec.name);
            out.set(spec.name, metric->first, spec.unit);
        }
    } else {
        for (const MetricSpec &spec : kPerLayer) {
            const auto *metric = find(spec.name);
            if (metric != nullptr && metric->second != spec.unit)
                throw std::logic_error(std::string("unit mismatch on ") +
                                       spec.name);
            out.set(spec.name, metric == nullptr ? 0.0 : metric->first,
                    spec.unit);
        }
    }
    for (const auto &metric : raw.metrics)
        if (out.metrics.end() ==
            std::find_if(out.metrics.begin(), out.metrics.end(),
                         [&](const auto &m) {
                             return m.first == metric.first;
                         }))
            throw std::logic_error("unlisted metric " + metric.first);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    const Workload *workload = nullptr;
    std::string names;
    for (const Workload &candidate : kWorkloads) {
        names += names.empty() ? "" : ",";
        names += candidate.name;
        if (options.workload == candidate.name)
            workload = &candidate;
    }
    if (workload == nullptr)
        usage(("unknown workload '" + options.workload + "'").c_str());

    std::printf("jobbench: workload=%s seed=%llu seconds=%g trace=%d "
                "tiny=%d\n",
                workload->name,
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                options.tiny ? 1 : 0);
    std::printf("jobbench: workloads=%s\n", names.c_str());
    std::printf("jobbench: nproc=%u cpu=\"%s\" build=%s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                JOBBENCH_BUILD_TYPE);
    std::fflush(stdout);

    namespace fs = std::filesystem;
    try {
        fs::remove_all(options.runDir);
        fs::create_directories(options.runDir);
        const Report raw = workload->run(options);
        fs::remove_all(options.runDir);
        Report report = canonical(raw, options.trace);
        // Hermeticity: the run must leave no child process behind.
        errno = 0;
        if (::waitpid(-1, nullptr, WNOHANG) != -1 || errno != ECHILD)
            report.fail("a child process survived the run");
        std::printf("%s\n", report.json().c_str());
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "jobbench: %s\n", error.what());
        std::error_code ec;
        fs::remove_all(options.runDir, ec);
        return 1;
    }
}

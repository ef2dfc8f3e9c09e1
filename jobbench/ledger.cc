/**
 * @file
 * Report, span recorder and statistics shared by the workloads.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "jobbench.h"

namespace jobbench
{

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    metrics.push_back({name, {value, unit}});
}

void
Report::fail(const std::string &what)
{
    ++failed;
    std::fprintf(stderr, "jobbench: check failed: %s\n", what.c_str());
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metric.first);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metric.second + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

std::int64_t
Tracer::open(const std::string &name, std::uint64_t job,
             std::int64_t parent)
{
    if (!enabled_)
        return -1;
    const std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, job, parent, start, 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::close(std::int64_t id)
{
    if (id < 0)
        return;
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endNs = end;
}

std::int64_t
Tracer::add(const std::string &name, std::uint64_t job,
            std::int64_t parent, std::int64_t startNs,
            std::int64_t endNs)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, job, parent, startNs, endNs});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans_.size());
    for (const Span &span : spans_)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].push_back(
                {span.startNs, span.endNs});
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        // Union of the children's intervals, clipped to the parent.
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = span.startNs;
        for (const auto &[start, end] : kids) {
            const std::int64_t from = std::max(start, reach);
            const std::int64_t to = std::min(end, span.endNs);
            if (to > from) {
                covered += to - from;
                reach = to;
            }
        }
        self[span.name] +=
            static_cast<double>(span.endNs - span.startNs - covered) *
            1e-9;
    }
    return self;
}

std::map<std::string, double>
Tracer::totalSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> total;
    for (const Span &span : spans_)
        total[span.name] +=
            static_cast<double>(span.endNs - span.startNs) * 1e-9;
    return total;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << span.name
            << "\",\"job\":" << span.job << ",\"parent\":"
            << span.parent << ",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs << "}\n";
    }
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::vector<std::size_t>
permutation(std::size_t n, Rng &rng)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

} // namespace jobbench

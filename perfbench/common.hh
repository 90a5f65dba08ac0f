/**
 * @file
 * Shared plumbing of the LEGO benchmark: run arguments, the result
 * record every workload fills, timing helpers, and the span
 * aggregator that turns the in-tree tracer's export into per-layer
 * self times.
 *
 * Spans are recorded only from the benchmark's own files (category
 * "bench"), around each call into a layer's public function; the
 * library's own spans (categories "dse", "serve", "pool", "cache")
 * are ignored by the aggregator but still count towards the tracing
 * overhead the traced run reports.
 */

#ifndef LEGO_PERFBENCH_COMMON_HH
#define LEGO_PERFBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** What a workload run reports; main() prints the JSON line. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metric values by name; units live in main.cc's tables. */
    std::map<std::string, double> metrics;

    /** Count one checked operation; a false `ok` fails the run. */
    void check(bool ok, const char *what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            correct = false;
            std::fprintf(stderr, "perfbench: check failed: %s\n", what);
        }
    }
    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }
};

/** Nearest-rank percentile (q in [0, 1]); 0 for an empty sample. */
inline double
pct(const std::vector<double> &v, double q)
{
    return v.empty() ? 0.0 : lego::obs::percentileOf(v, q);
}

inline double
median(const std::vector<double> &v)
{
    return pct(v, 0.5);
}

/**
 * One set-up sample in seconds: `reps` back-to-back calls of `build`
 * timed as one unit, divided by `reps`. One construction takes
 * microseconds, so a single call would time the allocator and the
 * scheduler, not the set-up. Workloads take samples throughout the
 * run and report the median, so the samples span the run as the
 * timed work does, rather than one moment of the host.
 */
template <class F>
double
setupSample(int reps, F &&build)
{
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
        build();
    return msSince(t0) / 1000.0 / reps;
}

/** Peak resident set of this process in MB (ru_maxrss). */
double peakRssMb();

/** Benchmark span category: the only one the aggregator reads. */
constexpr const char *kCat = "bench";

#define PB_SPAN(name) LEGO_TRACE_SPAN(name, ::perfbench::kCat)

/**
 * Per-name span statistics mined from Tracer::toJson(). Self time is
 * a span's duration minus the part covered by its direct children on
 * the same thread.
 */
class SpanStats
{
  public:
    struct Entry
    {
        std::vector<double> durNs;  //!< Inclusive durations.
        double selfNs = 0;          //!< Summed self time.
    };

    /** Export the tracer, fold its "bench" spans in, clear it.
     *  Call only while no thread records (after drain/join). */
    void collect();

    const Entry &get(const std::string &name) const;
    double selfMs(const std::string &name) const
    {
        return get(name).selfNs / 1e6;
    }
    std::size_t count(const std::string &name) const
    {
        return get(name).durNs.size();
    }
    double p50(const std::string &name) const
    {
        return median(get(name).durNs);
    }
    /** Events the tracer lost to ring wrap-around, summed. */
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::map<std::string, Entry> byName_;
    std::uint64_t dropped_ = 0;
};

/** Enable tracing with rings large enough for one collect() window. */
void beginTracing();

} // namespace perfbench

#endif // LEGO_PERFBENCH_COMMON_HH

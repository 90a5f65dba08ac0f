/**
 * @file
 * Per-call stats attribution for concurrent callers of the DSE
 * engine. Snapshotting GLOBAL monotonic counters before and after a
 * call is exact only while calls never overlap; once the serve loop
 * overlaps requests, two open windows see each other's work.
 *
 * A StatsContext is the overlap-safe window: a per-call counter
 * block installed into thread-local storage with an RAII Scope.
 * Every counter bump site (Evaluator work counters, CostCache tier
 * counters) credits BOTH the global atomic and the current thread's
 * context, and every WorkerPool fan-out (the evaluator's per-class
 * sweeps, explore()'s candidate batches) re-installs the submitting
 * thread's context inside each item, so work executed by shared
 * pool workers is attributed to the call that asked for it —
 * exactly, even with any number of calls in flight.
 * DseEngine::statsFrom turns a finished context into DseStats.
 *
 * Null context (the default on every thread) costs one thread-local
 * load per bump; paths that never install a scope are unchanged.
 */

#ifndef LEGO_DSE_STATS_SCOPE_HH
#define LEGO_DSE_STATS_SCOPE_HH

#include <atomic>
#include <cstdint>

namespace lego
{
namespace dse
{

/**
 * One call's work/caching counters, bumped from any thread whose
 * current scope points here. Field names mirror DseStats; atomics
 * because several pool workers serve one request concurrently.
 */
class StatsContext
{
  public:
    std::atomic<std::uint64_t> frontHits{0};   //!< Frontier memo.
    std::atomic<std::uint64_t> frontMisses{0};
    std::atomic<std::uint64_t> segHits{0};     //!< Segment memo.
    std::atomic<std::uint64_t> segMisses{0};
    std::atomic<std::uint64_t> evictions{0};   //!< L1 LRU evictions.
    /** Shared mmap-tier attribution (each also counts in the
     *  matching frontHits/segHits slot). */
    std::atomic<std::uint64_t> sharedFrontHits{0};
    std::atomic<std::uint64_t> sharedSegHits{0};
    std::atomic<std::uint64_t> modelEvals{0};
    std::atomic<std::uint64_t> mappingsPruned{0};
    std::atomic<std::uint64_t> dataflowsPruned{0};
    std::atomic<std::uint64_t> layersDeduped{0};
    std::atomic<std::uint64_t> crossModelDeduped{0};

    /** The context installed on THIS thread (null = none). */
    static StatsContext *current() { return tls(); }

    /**
     * RAII installation. Nestable: the previous context is restored
     * on destruction. Installing null is valid (and is how a worker
     * serving uncontexted work keeps it unattributed).
     */
    class Scope
    {
      public:
        explicit Scope(StatsContext *ctx) : prev_(tls())
        {
            tls() = ctx;
        }
        ~Scope() { tls() = prev_; }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        StatsContext *prev_;
    };

  private:
    static StatsContext *&tls()
    {
        thread_local StatsContext *ctx = nullptr;
        return ctx;
    }
};

/**
 * Bump a global monotonic counter AND the current thread's context
 * slot (when one is installed). THE idiom for every counter the
 * serving loop reports per request; sites that use it stay exact
 * under overlapped requests for free.
 */
inline void
bumpStat(std::atomic<std::uint64_t> &global,
         std::atomic<std::uint64_t> StatsContext::*slot,
         std::uint64_t n = 1)
{
    global.fetch_add(n, std::memory_order_relaxed);
    if (StatsContext *ctx = StatsContext::current())
        (ctx->*slot).fetch_add(n, std::memory_order_relaxed);
}

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_STATS_SCOPE_HH

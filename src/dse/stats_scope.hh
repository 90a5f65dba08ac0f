/**
 * @file
 * THE DSE counter table, and per-call stats attribution for
 * concurrent callers of the DSE engine.
 *
 * LEGO_DSE_COUNTERS below lists every monotonic DSE counter once:
 * field name plus published metric name. Everything else is derived
 * from it — the plain DseCounts struct (CostCache::counters(),
 * Evaluator::counters(), the base of DseStats), the StatsContext
 * atomic block, the kDseCounters member-pointer table that
 * statsFrom, publishMetrics, snapshot deltas and sums loop over,
 * and the metric names tools/check_obs.py requires. Adding a
 * counter is one row here plus its bumpStat site.
 *
 * Snapshotting GLOBAL monotonic counters before and after a call is
 * exact only while calls never overlap; once the serve loop overlaps
 * requests, two open windows see each other's work. A StatsContext
 * is the overlap-safe window: a per-call counter block installed
 * into thread-local storage with an RAII Scope. Every counter bump
 * site credits BOTH its owner's global block and the current
 * thread's context, and every WorkerPool fan-out (the evaluator's
 * per-class sweeps, explore()'s candidate batches) re-installs the
 * submitting thread's context inside each item, so work executed by
 * shared pool workers is attributed to the call that asked for it —
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
 * X(field, metric) per counter. Each row is owned by one component,
 * which holds its lifetime total: the cache rows by CostCache, the
 * eval and segment rows by Evaluator (the segmentation search bumps
 * through the evaluator it runs on).
 */
#define LEGO_DSE_COUNTERS(X)                                          \
    /* Frontier-memo lookups answered by any level / that swept. */   \
    X(frontHits, "dse.cache.front_hits")                              \
    X(frontMisses, "dse.cache.front_misses")                          \
    X(frontInserts, "dse.cache.front_inserts")                        \
    /* Segment-record memo lookups and created entries. */            \
    X(segHits, "dse.cache.seg_hits")                                  \
    X(segMisses, "dse.cache.seg_misses")                              \
    X(segInserts, "dse.cache.seg_inserts")                            \
    X(quarantined, "dse.cache.quarantined") /* Corrupt files. */      \
    X(evictions, "dse.cache.evictions")     /* Both kinds. */         \
    /* Hits served from the shared mmap tier; each also counts in     \
     * frontHits/segHits (attribution, not a new denominator). */     \
    X(sharedFrontHits, "dse.cache.shared_front_hits")                 \
    X(sharedSegHits, "dse.cache.shared_seg_hits")                     \
    X(remaps, "dse.cache.remaps") /* Shared-snapshot remaps. */       \
    /* Searches run: frontier sweeps (memo hits excluded) plus        \
     * non-tensor layers, which are never memoized. */                \
    X(searches, "dse.eval.searches")                                  \
    /* runLayerWithEff invocations: the hot-path unit of work. */     \
    X(modelEvals, "dse.eval.model_evals")                             \
    X(mappingsPruned, "dse.eval.mappings_pruned") /* Cycle bound. */  \
    /* Dataflows with no tiling evaluated before the global cut. */   \
    X(dataflowsPruned, "dse.eval.dataflows_pruned")                   \
    /* Layer instances broadcast from their class, not searched. */   \
    X(layersDeduped, "dse.eval.layers_deduped")                       \
    /* Extra class shares a zoo-level table produced across models    \
     * (mapZooFrontier only, so explore() always reports 0). */       \
    X(crossModelDeduped, "dse.eval.cross_model_deduped")              \
    /* Segmentation search: chainable runs considered, annealer       \
     * moves proposed, pipelined segments costed, costed segments     \
     * over capacity, pipelined segments in the final plan. */        \
    X(segRuns, "dse.segment.runs")                                    \
    X(segMoves, "dse.segment.moves")                                  \
    X(segPlans, "dse.segment.plans")                                  \
    X(segInfeasible, "dse.segment.infeasible")                        \
    X(segAccepted, "dse.segment.accepted")

/** One plain value per counter row: snapshots, deltas, sums. */
struct DseCounts
{
#define LEGO_DSE_COUNT_FIELD(field, metric) std::uint64_t field = 0;
    LEGO_DSE_COUNTERS(LEGO_DSE_COUNT_FIELD)
#undef LEGO_DSE_COUNT_FIELD

    DseCounts &operator+=(const DseCounts &o);
    DseCounts operator-(const DseCounts &o) const;
};

/**
 * One atomic per counter row. As a StatsContext it is one call's
 * window, bumped from any thread whose current scope points here
 * (atomics because several pool workers serve one request
 * concurrently); CostCache and Evaluator hold their lifetime totals
 * in the same block.
 */
class StatsContext
{
  public:
#define LEGO_DSE_ATOMIC_FIELD(field, metric)                          \
    std::atomic<std::uint64_t> field{0};
    LEGO_DSE_COUNTERS(LEGO_DSE_ATOMIC_FIELD)
#undef LEGO_DSE_ATOMIC_FIELD

    /** Relaxed snapshot of every row (exact when no bump is
     *  concurrently in flight). */
    DseCounts load() const;
    /** Zero every row. */
    void reset();

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

/** One row of the counter table, for code that loops over it. */
struct DseCounter
{
    const char *metric;
    std::uint64_t DseCounts::*count;
    std::atomic<std::uint64_t> StatsContext::*live;
};

inline constexpr DseCounter kDseCounters[] = {
#define LEGO_DSE_COUNTER_ROW(field, metric)                           \
    {metric, &DseCounts::field, &StatsContext::field},
    LEGO_DSE_COUNTERS(LEGO_DSE_COUNTER_ROW)
#undef LEGO_DSE_COUNTER_ROW
};

inline DseCounts &
DseCounts::operator+=(const DseCounts &o)
{
    for (const DseCounter &c : kDseCounters)
        this->*c.count += o.*c.count;
    return *this;
}

inline DseCounts
DseCounts::operator-(const DseCounts &o) const
{
    DseCounts d;
    for (const DseCounter &c : kDseCounters)
        d.*c.count = this->*c.count - o.*c.count;
    return d;
}

inline DseCounts
StatsContext::load() const
{
    DseCounts d;
    for (const DseCounter &c : kDseCounters)
        d.*c.count = (this->*c.live).load(std::memory_order_relaxed);
    return d;
}

inline void
StatsContext::reset()
{
    for (const DseCounter &c : kDseCounters)
        (this->*c.live).store(0, std::memory_order_relaxed);
}

/**
 * Bump a row of its owner's global block AND of the current
 * thread's context (when one is installed). THE idiom for every
 * counter row; sites that use it stay exact under overlapped
 * requests for free.
 */
inline void
bumpStat(StatsContext &global,
         std::atomic<std::uint64_t> StatsContext::*slot,
         std::uint64_t n = 1)
{
    (global.*slot).fetch_add(n, std::memory_order_relaxed);
    if (StatsContext *ctx = StatsContext::current())
        (ctx->*slot).fetch_add(n, std::memory_order_relaxed);
}

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_STATS_SCOPE_HH

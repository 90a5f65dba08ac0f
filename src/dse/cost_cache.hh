/**
 * @file
 * Memoization cache for the DSE's per-layer answers. Two entry kinds
 * share one sharded table set (one mutex per shard, keys distributed
 * by hash so contention stays low):
 *
 *  - **frontier** entries: the whole mapping frontier of one
 *    (hardware, layer shape, K). A hit skips the layer's entire
 *    mapping sweep, at any K — repeated layer shapes (ResNet50's
 *    bottleneck blocks, the per-head attention GEMMs) are searched
 *    once per hardware instance. A thread-local L0 sits in front.
 *  - **segment** entries (hardware + per-stage layer/slice identity
 *    -> resolved stage mappings + pipelined cost) memoize the
 *    segmentation search the same way.
 *
 * Production-scale behaviors (format v6):
 *  - **Bounded memory** — setCapacity() bounds the sharded (L1)
 *    tier by resident bytes and/or entry count; inserts past the
 *    bound trigger epoch-batched, cost-aware LRU eviction
 *    (frontiers first, then segments — LRU order within each kind),
 *    with an exact evictions counter and residentBytes() gauge.
 *  - **Shared read-mostly tier** — the persistent file is an
 *    mmap-able, offset-based, CRC-covered snapshot holding
 *    open-addressed hash tables, so N processes attachShared() the
 *    same published file and probe it copy-free after an L0+L1
 *    miss. A writer republishes via the tmp+fsync+rename discipline
 *    with a monotonic generation stamp; refreshShared() atomically
 *    remaps when the generation changes.
 *
 * Layer *names* and repeat counts are deliberately excluded from the
 * keys: two layers with identical shapes hit the same entry even
 * when the model zoo lists them as distinct instances.
 */

#ifndef LEGO_DSE_COST_CACHE_HH
#define LEGO_DSE_COST_CACHE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dse/pareto.hh"
#include "dse/stats_scope.hh"
#include "model/layer_class.hh"
#include "sim/perf.hh"
#include "sim/segment_cost.hh"

namespace lego
{
namespace dse
{

/**
 * Canonical fixed-width cache key: the serialized hardware and layer
 * sections plus a kind-specific tail (see makeFrontierKey and
 * makeSegmentKey). Exact-match equality: a hash collision can never
 * return a wrong result.
 */
struct CacheKey
{
    std::array<std::uint64_t, 32> words{};
    std::uint64_t hashValue = 0; //!< Filled once by the key builder.

    bool operator==(const CacheKey &o) const { return words == o.words; }

    /** 64-bit FNV-1a over the canonical words. */
    std::uint64_t computeHash() const;
};

struct CacheKeyHash
{
    std::size_t operator()(const CacheKey &k) const
    {
        return std::size_t(k.hashValue);
    }
};

/**
 * Build the canonical key of a (hw, layer, K) frontier memo entry:
 * every hardware field but the cosmetic name, the layer's canonical
 * signature (name and repeat excluded), then a sentinel plus K.
 */
CacheKey makeFrontierKey(const HardwareConfig &hw, const Layer &l,
                         std::size_t k);

/**
 * Exact identity of one pipelined-segment stage as keyed into the
 * cache: the layer's canonical signature plus its slice width. A
 * multi-stage segment cannot fit every stage's full signature into
 * the fixed-width CacheKey, so the segment key carries *hashed*
 * per-stage tags and the stored SegmentRecord carries these exact
 * ids for verification at lookup — a tag collision therefore reads
 * as a miss, never as a wrong result (the cache's exactness
 * contract is preserved).
 */
struct SegmentKeyId
{
    std::array<std::uint64_t, LayerSignature::kWords> sig{};
    std::uint64_t cols = 0;

    bool operator==(const SegmentKeyId &o) const
    {
        return cols == o.cols && sig == o.sig;
    }
};

/** Make the id of one stage. */
SegmentKeyId segmentKeyId(const Layer &l, int cols);

/**
 * Memoized evaluation of one pipelined segment: per-stage resolved
 * mappings/results (under the slice sub-configs) plus the pipelined
 * SegmentCost. A hit skips the per-stage mapping searches AND the
 * pipeline cost evaluation.
 */
struct SegmentRecord
{
    std::vector<SegmentKeyId> id; //!< Verification, one per stage.
    std::vector<Mapping> mappings;
    std::vector<LayerResult> results;
    SegmentCost cost;
};

/**
 * Build the canonical key of a segment memo entry: the hardware
 * section of makeFrontierKey, a segment sentinel, the stage count,
 * and one hashed tag word per stage (FNV-1a over the stage's
 * SegmentKeyId).
 * Panics past the key's tag-word capacity (17 stages) — far above
 * any sensible SegmentOptions::maxStages.
 */
CacheKey makeSegmentKey(const HardwareConfig &hw,
                        const std::vector<SegmentKeyId> &stages);

/** What CostCache::loadEx found at the path. */
enum class CacheLoadStatus
{
    Loaded,  //!< Entries merged.
    Missing, //!< No file (fresh deployment) — expected cold start.
    Stale,   //!< Valid file from another format version or schema —
             //!< deliberate cold start, NOT corruption.
    Corrupt, //!< Bad magic, failed checksum, truncation, structural
             //!< nonsense — the file cannot be trusted.
};

/** The mmap'd read-mostly snapshot tier (defined in cost_cache.cc);
 *  opaque to clients — CostCache probes it internally. */
class SharedSnapshot;

/**
 * Sharded, thread-safe memo table holding two entry kinds: per-layer
 * mapping frontiers (key -> point list) and pipelined-segment
 * records. A thread-local L0 sits in front of the frontier table and
 * an optional mmap'd read-mostly snapshot behind both.
 *
 * Three levels:
 *  - **L0** — a fixed-size, direct-mapped frontier table in
 *    thread-local storage. The common per-worker re-lookup takes
 *    zero locks: one hash index, one exact key compare. Entries are
 *    tagged with the owning cache's id and clear()-epoch, so a
 *    thread serving several caches (or a cache that was cleared) can
 *    never read a stale result. A stale L0 entry surviving an L1
 *    eviction is benign: cached values are pure functions of their
 *    keys.
 *  - **L1** — the sharded mutex-protected tables (one mutex per
 *    shard, keys distributed by hash). This is the level save()
 *    serializes and setCapacity() bounds; L0 is never serialized.
 *  - **Shared** — an optional read-only mmap of a published v6
 *    snapshot (attachShared), probed copy-free after an L1 miss.
 *    Hits promote into L0 only — never into L1 — so the snapshot's
 *    pages stay shared across every process mapping it.
 *
 * Counter contract (exact under any worker count; all relaxed
 * atomics): every frontier lookup counts exactly one of
 * frontHits/frontMisses, whichever level answers it, and every
 * segment lookup exactly one of segHits/segMisses. A shared-tier hit
 * counts in BOTH the kind's hit counter and its shared*Hits counter
 * (attribution, not a new denominator), so a miss still means
 * "missed every tier". frontInserts/segInserts count entries
 * actually created (losing racers of a duplicate insert are not
 * counted), so frontInserts + segInserts - evictions == size()
 * on a cache that was never cleared.
 */
class CostCache
{
  public:
    CostCache();
    ~CostCache();

    /**
     * @name Bounded L1 (eviction)
     * @{
     */

    /**
     * Bound the sharded tier: `maxBytes` caps the total serialized
     * footprint (the exact bytes save() would write per entry, key
     * included), `maxEntries` caps the entry count across both
     * kinds; 0 = unbounded (the default). An insert that exceeds a
     * bound triggers one epoch-batched eviction: entries are ranked
     * (kind priority, last use) — frontiers evicted before segment
     * records, LRU within each kind — and evicted until the tier is
     * back under 7/8 of each bound, so inserts amortize to O(1)
     * between batches. Rationale: a frontier rebuilds from one
     * per-layer sweep, while a segment record stands for whole
     * per-stage searches plus a pipeline evaluation, so keeping the
     * records is what keeps warm segmentation answers alive under
     * memory pressure (bench_dse_perf's cache_eviction sweep gates
     * this).
     */
    void setCapacity(std::uint64_t maxBytes,
                     std::uint64_t maxEntries);

    /** @} */

    /** @name Frontier entries (keys from makeFrontierKey) @{ */

    /** Sharded lookup of a memoized frontier point list. */
    bool lookupFrontier(const CacheKey &key,
                        std::vector<FrontierPoint> *out);

    /** Insert a frontier (first writer wins). */
    void insertFrontier(const CacheKey &key,
                        const std::vector<FrontierPoint> &points);

    /** Two-level frontier lookup (thread-local L0, then sharded). */
    bool lookupFrontierFast(const CacheKey &key,
                            std::vector<FrontierPoint> *out);

    /** insertFrontier() that also fills the caller's L0 slot. */
    void insertFrontierFast(const CacheKey &key,
                            const std::vector<FrontierPoint> &points);

    /** @} */

    /** @name Segment entries (keys from makeSegmentKey) @{ */

    /**
     * Sharded lookup of a memoized segment evaluation. `stages` is
     * the exact per-stage identity the key was built from; a stored
     * record whose id differs (hashed-tag collision) counts as a
     * miss, preserving exactness.
     */
    bool lookupSegment(const CacheKey &key,
                       const std::vector<SegmentKeyId> &stages,
                       SegmentRecord *out);

    /** Insert a segment record (first writer wins). */
    void insertSegment(const CacheKey &key, const SegmentRecord &rec);

    /** @} */

    /**
     * @name Shared read-mostly tier (mmap'd published snapshots)
     *
     * attachShared(path) remembers the snapshot path and maps it
     * read-only if a valid v6 file is already there (a missing or
     * invalid file just means "not yet published" — the next
     * refreshShared() picks it up). Probes hit the mapped image
     * in place: open-addressed in-file hash tables, no
     * deserialization, pages shared with every other process mapping
     * the same file. refreshShared() re-reads the published header
     * and atomically swaps in a new mapping when the generation
     * stamp changed (counted in the remaps row); in-flight probes
     * keep using the old mapping until they finish — readers never
     * block writers and vice versa.
     * @{
     */

    /** Attach (and map, if possible) a published snapshot. Returns
     *  true when a snapshot is mapped after the call. */
    bool attachShared(const std::string &path);

    /** Re-check the published generation; remap on change. Returns
     *  true when a new snapshot was mapped by this call. */
    bool refreshShared();

    /** Generation stamp of the currently mapped snapshot (0 = none
     *  mapped). */
    std::uint64_t sharedGeneration() const;

    /** @} */

    /** Snapshot of the cache rows of the counter table
     *  (stats_scope.hh); the eval and segment rows read 0. */
    DseCounts counters() const { return totals_.load(); }
    /** Exact serialized footprint of the resident L1 entries. */
    std::uint64_t residentBytes() const
    {
        return residentBytes_.load();
    }

    /** Resident L1 entry count, both kinds. */
    std::size_t size() const { return std::size_t(entryCount_.load()); }
    /** Frontier entry count. */
    std::size_t frontierCount() const;
    /** Segment entry count. */
    std::size_t segmentCount() const;
    void clear();

    /**
     * @name Persistence (warm-starting model-zoo sweeps, and the
     * published form of the shared tier)
     *
     * Versioned binary serialization of every frontier and segment
     * entry. The file header carries a magic word, a format version,
     * and a schema hash over the serialized field layout, so a file
     * written by an older build — different version OR different
     * schema — is *rejected* (cold start), never misread. Format v6
     * is an mmap-able snapshot: a fixed header (with a monotonic
     * generation stamp and header/body CRC32 words), per-kind
     * open-addressed slot tables, fixed-stride entry arrays, and a
     * variable-length heap — the same bytes serve loadEx() (merge
     * into L1) and attachShared() (probe in place). save() fsyncs
     * the temp file before the rename — a crash at any point leaves
     * either the old valid file or the new valid file, never a torn
     * one. Entries are host-endian; the magic word doubles as the
     * endianness check.
     * @{
     */

    /** Hash of the serialized CacheKey/frontier/segment layout. */
    static std::uint64_t schemaHash();

    /** On-disk format version save() writes and load() requires —
     *  surfaced so build stamps (obs::buildInfo) and perf artifacts
     *  can attribute cache files to the format that wrote them. */
    static std::uint64_t fileFormatVersion();

    /**
     * Write all entries to `path`: serialize to a sibling temp file,
     * fsync it, rename over the target, then fsync the directory —
     * crash-durable at every step. The written generation stamp is
     * the current file's generation + 1 (1 on a fresh path), so
     * attached readers observe every publish (single-writer
     * protocol; see serve/README.md "Multi-process deployment").
     * False on any I/O failure (the previous file at `path` is left
     * untouched).
     */
    bool save(const std::string &path) const;

    /**
     * Merge entries from `path` into the cache (first writer wins,
     * as with insert), reporting WHY a file was not loaded: Missing
     * (no file), Stale (valid but another version/schema — a
     * deliberate cold start), or Corrupt (bad magic, checksum or
     * structural failure). The cache is untouched unless Loaded;
     * hit/miss counters are never affected.
     */
    CacheLoadStatus loadEx(const std::string &path);

    /** loadEx() == Loaded — the status-blind convenience form. */
    bool load(const std::string &path);

    /**
     * loadEx(), but a Corrupt file is additionally set aside by
     * renaming it to `path + ".corrupt"` (best-effort) and counted
     * in the quarantined row, so the next save() starts from a clean
     * slate and the evidence survives for inspection instead of
     * being overwritten.
     */
    CacheLoadStatus loadOrQuarantine(const std::string &path);

    /** @} */

  private:
    /** One L1 entry: the value plus its recency stamp and exact
     *  serialized footprint (key included) for eviction ranking and
     *  byte accounting. */
    template <class V>
    struct Entry
    {
        V val;
        std::uint64_t lastUse = 0;
        std::uint64_t bytes = 0;
    };

    struct Shard
    {
        std::mutex mu;
        std::unordered_map<CacheKey, Entry<std::vector<FrontierPoint>>,
                           CacheKeyHash>
            fronts;
        std::unordered_map<CacheKey, Entry<SegmentRecord>,
                           CacheKeyHash>
            segs;
    };

    /** Mutex shards the keys are distributed over by hash. */
    static constexpr std::size_t kShards = 16;

    Shard &shardFor(const CacheKey &key);

    /** Next global recency stamp (relaxed; ordering between stamps
     *  taken under different shard locks only matters to eviction
     *  ranking, where approximate interleaving is acceptable). */
    std::uint64_t tick()
    {
        return tick_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Account one created entry of `bytes`; may start an eviction
     *  batch. */
    void admitted(std::uint64_t bytes);
    bool overCapacity() const;
    /** One epoch-batched eviction pass (serialized on evictMu_). */
    void enforceCapacity();

    /** Mutex-protected copy of the current snapshot pointer (null
     *  when none is mapped). */
    std::shared_ptr<const SharedSnapshot> sharedSnapshot() const;
    /** Map `sharedPath_` and swap it in if its generation differs
     *  from the mapped one. Returns true on a fresh map. */
    bool mapShared(bool countRemap);

    std::vector<std::unique_ptr<Shard>> shards_;
    /** Process-unique instance id tagged into L0 slots. */
    std::uint64_t id_;
    /** Bumped by clear() so stale L0 entries die everywhere. */
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::uint64_t> tick_{0};

    /** Capacity bounds (0 = unbounded) and exact usage gauges. */
    std::atomic<std::uint64_t> maxBytes_{0};
    std::atomic<std::uint64_t> maxEntries_{0};
    std::atomic<std::uint64_t> residentBytes_{0};
    std::atomic<std::uint64_t> entryCount_{0};
    /** Serializes eviction batches (inserts from other threads
     *  proceed concurrently; they just can't start a second batch). */
    std::mutex evictMu_;

    /** Shared-tier state: the snapshot pointer swaps under
     *  sharedMu_; probes copy the shared_ptr and read lock-free. */
    mutable std::mutex sharedMu_;
    std::string sharedPath_;
    std::shared_ptr<const SharedSnapshot> shared_;
    std::atomic<bool> sharedAttached_{false};
    std::atomic<std::uint64_t> sharedGen_{0};

    /** Lifetime totals of the cache rows. */
    StatsContext totals_;
};

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_COST_CACHE_HH

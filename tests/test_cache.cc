/**
 * @file
 * Production-scale CostCache behaviors: bounded-memory LRU eviction
 * (capacity boundaries, eviction order, exact counters, warm-hit
 * survival), the v6 on-disk format's compatibility classification
 * against committed fixtures (v4/v5 → Stale cold start, corrupt v6
 * → byte-verbatim quarantine), and the mmap'd shared read-mostly tier
 * (attach, copy-free probes, generation-stamped atomic remap,
 * per-request attribution through dse::StatsContext).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "dse/stats_scope.hh"
#include "lego.hh"

namespace lego
{
namespace
{

using dse::CacheKey;
using dse::CacheLoadStatus;
using dse::CostCache;
using dse::DseCounts;
using dse::StatsContext;

/** Serialized footprint of one single-point frontier entry: 32 key
 *  words + point count + heap offset + one 11-word point (must match
 *  the save() layout — the eviction byte accounting is defined as
 *  exactly what save() would write). */
constexpr std::uint64_t kEntryBytes = (32 + 2 + 11) * 8;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
fileExists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

bool
copyFile(const std::string &from, const std::string &to)
{
    std::ifstream in(from, std::ios::binary);
    std::ofstream out(to, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    return static_cast<bool>(in) && static_cast<bool>(out);
}

/** A synthetic frontier key: distinct, hash-correct, hardware-free
 *  — eviction mechanics don't care what the words mean. */
CacheKey
syntheticKey(std::uint64_t n)
{
    CacheKey k;
    k.words[0] = n + 1;
    k.words[1] = n * 2654435761ull;
    k.hashValue = k.computeHash();
    return k;
}

/** A one-point frontier whose result encodes `n`. */
std::vector<dse::FrontierPoint>
syntheticFrontier(std::uint64_t n)
{
    dse::FrontierPoint p;
    p.result.cycles = Int(n + 100);
    p.result.energyPj = double(n) * 1.5;
    p.result.macs = Int(n);
    p.seq = n;
    return {p};
}

TEST(CacheEviction, EntryExactlyAtCapacityIsNotEvicted)
{
    CostCache cache;
    cache.setCapacity(kEntryBytes * 4, 0);
    for (std::uint64_t i = 0; i < 4; ++i)
        cache.insertFrontier(syntheticKey(i), syntheticFrontier(i));
    // Exactly AT the byte bound: the contract is "evict past", not
    // "evict at" — a capacity equal to the working set must hold it.
    EXPECT_EQ(cache.residentBytes(), kEntryBytes * 4);
    EXPECT_EQ(cache.counters().evictions, 0u);
    EXPECT_EQ(cache.size(), 4u);

    // One entry beyond trips a batch: down to <= 7/8 of the bound.
    cache.insertFrontier(syntheticKey(4), syntheticFrontier(4));
    EXPECT_GT(cache.counters().evictions, 0u);
    EXPECT_LE(cache.residentBytes(),
              kEntryBytes * 4 - (kEntryBytes * 4) / 8);
    EXPECT_EQ(cache.counters().frontInserts - cache.counters().evictions,
              cache.frontierCount());
}

TEST(CacheEviction, LruOrderRespectsLookupRecency)
{
    CostCache cache;
    for (std::uint64_t i = 0; i < 8; ++i)
        cache.insertFrontier(syntheticKey(i), syntheticFrontier(i));
    // Refresh 0..3 via lookupFrontier() — recency is an L1 property
    // (L0 hits deliberately don't touch L1 stamps), so the sharded
    // lookup is what refreshes recency.
    std::vector<dse::FrontierPoint> out;
    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(cache.lookupFrontier(syntheticKey(i), &out));

    // Bound to 5 entries: the batch evicts down to 7/8 * 5 = 5, so
    // exactly the 3 least-recently-used (4, 5, 6) go.
    cache.setCapacity(0, 5);
    EXPECT_EQ(cache.counters().evictions, 3u);
    EXPECT_EQ(cache.size(), 5u);
    for (std::uint64_t i : {4ull, 5ull, 6ull})
        EXPECT_FALSE(cache.lookupFrontier(syntheticKey(i), &out)) << i;
    for (std::uint64_t i : {0ull, 1ull, 2ull, 3ull, 7ull})
        EXPECT_TRUE(cache.lookupFrontier(syntheticKey(i), &out)) << i;
}

TEST(CacheEviction, CountersStayExactUnderTwoThreadInterleaving)
{
    CostCache cache;
    cache.setCapacity(kEntryBytes * 64, 0);
    // Two threads interleave disjoint lookup/insert traffic far past
    // capacity; whatever the interleaving, the accounting identities
    // must hold exactly afterwards.
    auto worker = [&](std::uint64_t base) {
        std::vector<dse::FrontierPoint> out;
        for (std::uint64_t i = 0; i < 600; ++i) {
            const CacheKey k = syntheticKey(base + i);
            if (!cache.lookupFrontier(k, &out))
                cache.insertFrontier(k, syntheticFrontier(base + i));
            if (i % 3 == 0)
                cache.lookupFrontier(syntheticKey(base + i / 2), &out);
        }
    };
    std::thread a(worker, 0), b(worker, 10000);
    a.join();
    b.join();
    EXPECT_GT(cache.counters().evictions, 0u);
    EXPECT_EQ(cache.counters().frontInserts - cache.counters().evictions,
              cache.frontierCount());
    EXPECT_EQ(cache.size(), cache.frontierCount());
    EXPECT_EQ(cache.residentBytes(), cache.frontierCount() * kEntryBytes);
    EXPECT_LE(cache.residentBytes(), kEntryBytes * 64);
}

TEST(CacheEviction, WarmSegmentHitRateSurvivesBoundedReplay)
{
    // Both entry kinds: K = 4 frontiers plus the segmentation
    // search's records, on a DRAM-starved box where segments form.
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0;
    Model m = makeLeNet();
    SegmentOptions sopt;
    sopt.enable = true;
    auto replay = [&](dse::Evaluator &ev) {
        ev.mapModelFrontier(hw, m, 4);
        dse::searchSegments(hw, m, ev, sopt);
    };

    // Unbounded baseline: how many entries of each kind?
    CostCache unbounded;
    {
        dse::Evaluator ev(&unbounded);
        replay(ev);
    }
    const std::uint64_t segs = unbounded.segmentCount();
    ASSERT_GT(segs, 0u);
    ASSERT_GT(unbounded.size(), 2 * segs);

    // An entry bound that holds every segment record with room to
    // spare, but not every frontier: frontiers are sacrificed,
    // segment records must survive, so the warm pass still answers
    // every segment lookup from memory.
    CostCache bounded;
    bounded.setCapacity(0, 2 * segs);
    dse::Evaluator ev(&bounded);
    replay(ev); // Cold: fills + evicts.
    EXPECT_GT(bounded.counters().evictions, 0u);
    EXPECT_LE(bounded.size(), 2 * segs);
    EXPECT_EQ(bounded.segmentCount(), segs);

    const DseCounts before = bounded.counters();
    replay(ev);
    const DseCounts delta = bounded.counters() - before;
    EXPECT_GT(delta.segHits, 0u);
    EXPECT_EQ(delta.segMisses, 0u); // 100% warm segment hits.
}

TEST(CacheCompat, OlderFormatFixturesAreStaleNeverQuarantined)
{
    // Valid files of older builds (v4, v5) are a deliberate cold
    // start (Stale), never treated as damage — the file must survive
    // untouched, with no quarantine side effects. The damaged v5
    // fixture reads as Stale too: the version gate precedes every
    // integrity check, since an older layout cannot be checked.
    for (const char *name :
         {"cache_v4.bin", "cache_v5.bin", "cache_v5_corrupt.bin"}) {
        const std::string fixture =
            std::string(LEGO_SOURCE_DIR) + "/tests/fixtures/" + name;
        const std::string path =
            testing::TempDir() + "lego_compat_" + name;
        ASSERT_TRUE(copyFile(fixture, path)) << name;
        std::remove((path + ".corrupt").c_str());

        CostCache cache;
        EXPECT_EQ(cache.loadOrQuarantine(path), CacheLoadStatus::Stale)
            << name;
        EXPECT_EQ(cache.counters().quarantined, 0u) << name;
        EXPECT_EQ(cache.size(), 0u) << name;
        EXPECT_TRUE(fileExists(path)) << name;
        EXPECT_FALSE(fileExists(path + ".corrupt")) << name;
        EXPECT_EQ(slurp(path), slurp(fixture)) << name; // Untouched.
        std::remove(path.c_str());
    }
}

TEST(CacheCompat, CorruptV6FixtureQuarantinesByteVerbatim)
{
    const std::string fixture = std::string(LEGO_SOURCE_DIR) +
                                "/tests/fixtures/cache_v6_corrupt.bin";
    const std::string path =
        testing::TempDir() + "lego_cache_v6_compat.bin";
    const std::string aside = path + ".corrupt";
    ASSERT_TRUE(copyFile(fixture, path));
    std::remove(aside.c_str());

    CostCache cache;
    EXPECT_EQ(cache.loadOrQuarantine(path), CacheLoadStatus::Corrupt);
    EXPECT_EQ(cache.counters().quarantined, 1u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(fileExists(path)); // Moved aside, not deleted.
    ASSERT_TRUE(fileExists(aside));
    // The quarantined bytes are the damaged file verbatim — the
    // post-mortem evidence contract.
    EXPECT_EQ(slurp(aside), slurp(fixture));
    std::remove(aside.c_str());
}

/** Writer cache with both entry kinds, saved to `path`. */
void
publishSnapshot(const std::string &path, CostCache *cache)
{
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0; // Starved DRAM: segments form.
    Model m = makeLeNet();
    dse::Evaluator ev(cache);
    ev.mapModel(hw, m);
    ev.mapModelFrontier(hw, m, 4);
    SegmentOptions sopt;
    sopt.enable = true;
    dse::searchSegments(hw, m, ev, sopt);
    ASSERT_GT(cache->frontierCount(), 0u);
    ASSERT_GT(cache->segmentCount(), 0u);
    ASSERT_TRUE(cache->save(path));
}

/** IEEE CRC32 (reflected 0xEDB88320), bit at a time: the cache
 *  file's header and body checksum. */
std::uint32_t
ieeeCrc32(const char *data, std::size_t n)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= std::uint8_t(data[i]);
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

/** Re-seal a v6 image after an edit: body CRC (word 14) over every
 *  byte past the 16-word header, then header CRC (word 15) over
 *  words 0..14 — so only the structural checks can reject it. */
void
resealV6(std::vector<std::uint64_t> *w)
{
    const char *b = reinterpret_cast<const char *>(w->data());
    (*w)[14] = ieeeCrc32(b + 16 * 8, (w->size() - 16) * 8);
    (*w)[15] = ieeeCrc32(b, 15 * 8);
}

/** A v6 image whose CRCs are valid but whose counts, slot values or
 *  heap references point outside the file: loadEx reports Corrupt
 *  and merges nothing, attachShared maps nothing. (Bit flips fail
 *  the CRCs first and truncation fails the length check first, so
 *  only re-sealed images reach these checks.) */
TEST(CacheCompat, ValidCrcsWithOutOfRangeStructureAreCorrupt)
{
    const std::string path =
        testing::TempDir() + "lego_cache_v6_structure.bin";
    std::remove(path.c_str());
    {
        CostCache writer;
        publishSnapshot(path, &writer);
    }
    const std::string bytes = slurp(path);
    ASSERT_EQ(bytes.size() % 8, 0u);
    std::vector<std::uint64_t> image(bytes.size() / 8);
    std::memcpy(image.data(), bytes.data(), bytes.size());

    // Layout from the header (all in words): 16-word header, then
    // frontier slots, frontier entries, segment slots, segment
    // entries, heap. Entries are 32 key words + item count + heap
    // offset.
    const std::uint64_t fSlots = image[4], fCount = image[5];
    const std::uint64_t gSlots = image[6], gCount = image[7];
    const std::uint64_t heapWords = image[8];
    ASSERT_GT(fCount, 0u);
    ASSERT_GT(gCount, 0u);
    const std::uint64_t kEntry = 34;
    const std::uint64_t frontSlotsAt = 16;
    const std::uint64_t frontEntriesAt = frontSlotsAt + fSlots;
    const std::uint64_t segSlotsAt = frontEntriesAt + fCount * kEntry;
    const std::uint64_t segEntriesAt = segSlotsAt + gSlots;
    ASSERT_EQ(segEntriesAt + gCount * kEntry + heapWords, image.size());
    const std::uint64_t lastFront = frontEntriesAt + (fCount - 1) * kEntry;
    const std::uint64_t lastSeg = segEntriesAt + (gCount - 1) * kEntry;

    struct Edit
    {
        const char *what;
        std::uint64_t word;
        std::uint64_t value;
    };
    const Edit edits[] = {
        {"frontier count past the file", 5, ~0ull / 2},
        {"frontier count off by one", 5, fCount + 1},
        {"segment count past the file", 7, ~0ull / 2},
        {"frontier slots not the count's table size", 4, fSlots * 2},
        {"segment slots past the file", 6, ~0ull},
        {"heap longer than the file", 8, heapWords + 1},
        {"heap past the file", 8, ~0ull},
        {"total words off by one", 9, image.size() + 1},
        {"frontier slot past the entries", frontSlotsAt, fCount + 1},
        {"segment slot past the entries", segSlotsAt + gSlots - 1,
         gCount + 1},
        {"empty frontier", lastFront + 32, 0},
        {"frontier points past the heap", lastFront + 32, heapWords},
        {"frontier heap offset past the heap", lastFront + 33,
         heapWords},
        {"frontier heap offset wraps", lastFront + 33, ~0ull},
        {"one-stage segment", lastSeg + 32, 1},
        {"segment stages past the heap", lastSeg + 32, heapWords},
        {"segment heap offset past the heap", lastSeg + 33, heapWords},
        {"segment heap offset wraps", lastSeg + 33, ~0ull - 3},
    };

    const auto writeImage = [&](const std::vector<std::uint64_t> &w) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(w.data()),
                  std::streamsize(w.size() * 8));
        return static_cast<bool>(out);
    };

    // Control: re-sealing an unedited image keeps it loadable, so
    // every rejection below is the edit's doing.
    std::vector<std::uint64_t> control = image;
    resealV6(&control);
    ASSERT_EQ(control, image);

    for (const Edit &e : edits) {
        ASSERT_LT(e.word, image.size()) << e.what;
        ASSERT_TRUE(e.word < 14 || e.word >= 16) << e.what; // CRCs.
        std::vector<std::uint64_t> w = image;
        w[e.word] = e.value;
        resealV6(&w);
        ASSERT_TRUE(writeImage(w)) << e.what;

        CostCache cache;
        EXPECT_EQ(cache.loadEx(path), CacheLoadStatus::Corrupt)
            << e.what;
        EXPECT_EQ(cache.size(), 0u) << e.what;

        CostCache reader;
        EXPECT_FALSE(reader.attachShared(path)) << e.what;
        EXPECT_EQ(reader.sharedGeneration(), 0u) << e.what;
    }
    std::remove(path.c_str());
}

TEST(SharedCache, ReaderServesEntirelyFromMappedSnapshot)
{
    const std::string path =
        testing::TempDir() + "lego_shared_snapshot.bin";
    std::remove(path.c_str());
    CostCache writer;
    publishSnapshot(path, &writer);

    // Reader: empty L0/L1, warmth only through the mapped tier.
    CostCache reader;
    ASSERT_TRUE(reader.attachShared(path));
    EXPECT_EQ(reader.sharedGeneration(), 1u);

    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0;
    Model m = makeLeNet();
    dse::Evaluator ev(&reader);
    ScheduleResult viaShared = ev.mapModel(hw, m);
    EXPECT_EQ(ev.counters().modelEvals, 0u)
        << "every evaluation should have come from the snapshot";
    EXPECT_GT(reader.counters().sharedFrontHits, 0u);
    // Shared hits never copy into L1 (pages must stay shared):
    // inserts would be the tell.
    EXPECT_EQ(reader.counters().frontInserts, 0u);
    EXPECT_EQ(reader.residentBytes(), 0u);

    // Frontier + segment kinds probe the snapshot too.
    const dse::DseCounts before = reader.counters();
    ev.mapModelFrontier(hw, m, 4);
    SegmentOptions sopt;
    sopt.enable = true;
    dse::searchSegments(hw, m, ev, sopt);
    const dse::DseCounts delta = reader.counters() - before;
    EXPECT_GT(delta.sharedFrontHits, 0u);
    EXPECT_GT(delta.sharedSegHits, 0u);
    EXPECT_EQ(delta.frontMisses, 0u);

    // And the answers are the writer's, bit for bit.
    dse::Evaluator wev(&writer);
    EXPECT_TRUE(sameSchedule(viaShared, wev.mapModel(hw, m)));
    std::remove(path.c_str());
}

TEST(SharedCache, GenerationChangeRemapsAtomically)
{
    const std::string path =
        testing::TempDir() + "lego_shared_remap.bin";
    std::remove(path.c_str());
    CostCache writer;
    HardwareConfig hw;
    Model m = makeLeNet();
    {
        dse::Evaluator ev(&writer);
        ev.mapModel(hw, m);
    }
    ASSERT_TRUE(writer.save(path));

    CostCache reader;
    ASSERT_TRUE(reader.attachShared(path));
    EXPECT_EQ(reader.sharedGeneration(), 1u);
    // No republish → refresh is a cheap no-op (header read only).
    EXPECT_FALSE(reader.refreshShared());
    EXPECT_EQ(reader.counters().remaps, 0u);

    // Idempotent republish (identical content) keeps the generation:
    // readers must not churn mappings for bytes they already have.
    ASSERT_TRUE(writer.save(path));
    EXPECT_FALSE(reader.refreshShared());
    EXPECT_EQ(reader.sharedGeneration(), 1u);

    // A real republish (new frontier entries) bumps the generation
    // and the reader atomically remaps on its next refresh.
    {
        dse::Evaluator ev(&writer);
        ev.mapModelFrontier(hw, m, 4);
    }
    ASSERT_TRUE(writer.save(path));
    EXPECT_TRUE(reader.refreshShared());
    EXPECT_EQ(reader.sharedGeneration(), 2u);
    EXPECT_EQ(reader.counters().remaps, 1u);

    // The new entries are visible through the new mapping.
    std::vector<dse::FrontierPoint> pts;
    EXPECT_TRUE(reader.lookupFrontier(
        dse::makeFrontierKey(hw, m.layers[0], 4), &pts));
    EXPECT_GT(reader.counters().sharedFrontHits, 0u);
    std::remove(path.c_str());
}

TEST(SharedCache, StatsContextAttributesEvictionsAndSharedHits)
{
    const std::string path =
        testing::TempDir() + "lego_shared_attrib.bin";
    std::remove(path.c_str());
    CostCache writer;
    for (std::uint64_t i = 0; i < 8; ++i)
        writer.insertFrontier(syntheticKey(i), syntheticFrontier(i));
    ASSERT_TRUE(writer.save(path));

    // The per-request idiom: both the shared-tier hit and the
    // eviction land in the installed context, exactly — this is what
    // keeps serve's per-request stats exact under overlap.
    CostCache reader;
    ASSERT_TRUE(reader.attachShared(path));
    StatsContext ctx;
    StatsContext::Scope scope(&ctx);
    std::vector<dse::FrontierPoint> out;
    ASSERT_TRUE(reader.lookupFrontier(syntheticKey(3), &out));
    EXPECT_EQ(out.front().result.macs, 3);
    EXPECT_EQ(ctx.sharedFrontHits.load(), 1u);
    EXPECT_EQ(ctx.frontHits.load(), 1u); // Attribution, not a new
                                         // denominator.
    reader.setCapacity(0, 4);
    for (std::uint64_t i = 100; i < 110; ++i)
        reader.insertFrontier(syntheticKey(i), syntheticFrontier(i));
    EXPECT_GT(ctx.evictions.load(), 0u);
    EXPECT_EQ(ctx.evictions.load(), reader.counters().evictions);
    std::remove(path.c_str());
}

} // namespace
} // namespace lego

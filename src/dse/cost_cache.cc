#include "dse/cost_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "model/layer_class.hh"
#include "obs/failpoint.hh"
#include "obs/trace.hh"

namespace lego
{
namespace dse
{

namespace
{

std::uint64_t
doubleBits(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

double
bitsDouble(std::uint64_t u)
{
    double d = 0;
    std::memcpy(&d, &u, sizeof(d));
    return d;
}

/**
 * Canonical description of everything a cache file stores, in field
 * order. Any change to the key layouts or to the serialized
 * FrontierPoint/segment fields MUST be reflected here so that stale
 * files are rejected instead of misread.
 */
const char kCacheFileSchema[] =
    "FrontierKey{words[32]:rows,cols,l1Kb,freqGhz,dram.bandwidthGBs,"
    "dram.energyPerBytePj,dram.burstBytes,numPpus,dataBits,l2X,l2Y,"
    "naiveFusion,dataflows4b<=16,kind,n,ic,oc,oh,ow,kh,kw,stride,m,k,"
    "nOut,batchAmortized,ppu,elems,sentinel,K,0,0}"
    "LayerResult{cycles,utilization,dramBytes,energyPj,macs,"
    "memoryBound}"
    "FrontierPoint{dataflow,tm,tn,tk,LayerResult,seq}"
    "SegmentKey{hw13,sentinel2,stageCount,tag[stageCount]}"
    "SegmentStage{sig15,cols,mapping4,LayerResult}"
    "SegmentCost{feasible,cycles,energyPj,dramBytes,bufferBytes,"
    "nocBytes,nocEnergyPj,sramEnergyPj,dramBytesSaved}"
    "Header16{magic,version,schema,generation,slots/count x2,"
    "heapWords,totalWords,rsv4,bodyCrc32,headerCrc32}"
    "SlotTable{pow2,open-addressed,entryIndex+1}"
    "Entries{front:key32,points,heapOff;seg:key32,stages,heapOff}"
    "Heap{front:points*11;seg:stages*26+9}";

constexpr std::uint64_t kCacheFileMagic = 0x4c45474f44534543ull;
/** v6: the per-mapping scalar region is gone — frontier and segment
 *  regions only, the header shrinks its per-kind words to two pairs.
 *  v5: mmap-able snapshot — fixed 16-word header (generation stamp,
 *  header+body CRC32), per-kind open-addressed slot tables,
 *  fixed-stride entry arrays, variable-length heap. The same bytes
 *  back loadEx (merge) and the shared read-mostly tier (probe in
 *  place).
 *  v4: per-section CRC32 checksum word appended (crash-safe cache).
 *  v3: segment-entry section appended (inter-layer pipelining).
 *  v2: frontier-entry section appended (PR 4). Older files are
 *  rejected by the version check — deliberate cold start. */
constexpr std::uint64_t kCacheFileVersion = 6;

/** Sentinel words of the two key layouts. Frontier and segment keys
 *  live in separate tables; the sentinels keep each layout
 *  self-describing in the file. */
constexpr std::uint64_t kFrontierKeySentinel = ~0ull;
constexpr std::uint64_t kSegmentKeySentinel = ~0ull - 1;

/**
 * CRC32 (IEEE 802.3, reflected 0xEDB88320) over a byte range — the
 * header/body checksums of the cache file. Table-driven; computed
 * identically at save and load so any flipped bit is caught even
 * when the size prechecks still pass.
 */
std::uint32_t
crc32Of(const char *data, std::size_t n)
{
    static const std::uint32_t *table = [] {
        static std::uint32_t t[256];
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ std::uint8_t(data[i])) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---- v6 layout constants (all sizes in 64-bit words) ----------------

/** Header word indices. Every header word except the trailing
 *  headerCrc itself is covered by headerCrc, so a flip anywhere in
 *  the 128-byte header (reserved words included) is caught. Words
 *  0..3 keep their v5 positions, so an older file still reads as
 *  Stale rather than Corrupt. */
enum : std::size_t
{
    kHdrMagic = 0,
    kHdrVersion = 1,
    kHdrSchema = 2,
    kHdrGeneration = 3,
    kHdrFrontSlots = 4,
    kHdrFrontCount = 5,
    kHdrSegSlots = 6,
    kHdrSegCount = 7,
    kHdrHeapWords = 8,
    kHdrTotalWords = 9,
    kHdrBodyCrc = 14,
    kHdrHeaderCrc = 15,
    kHeaderWords = 16,
};

constexpr std::uint64_t kResultWords = 6;
/** Derived from the key type so a grown CacheKey::words can never
 *  desync the load-time entry-size prechecks from save()'s layout. */
constexpr std::uint64_t kKeyWords =
    std::tuple_size<decltype(CacheKey::words)>::value;
/** dataflow, tm, tn, tk, LayerResult, seq. */
constexpr std::uint64_t kFrontierPointWords = 4 + kResultWords + 1;
constexpr std::uint64_t kSegmentCostWords = 9;
/** sig15, cols, mapping4, LayerResult. */
constexpr std::uint64_t kSegmentStageWords =
    LayerSignature::kWords + 1 + 4 + kResultWords;

/** Entry stride of both fixed-width arrays: key, item count (points
 *  or stages), heap offset. */
constexpr std::uint64_t kEntryWords = kKeyWords + 2;

/** Open-addressed table sizing: power of two, load factor <= 1/2
 *  (so probes terminate fast and the table can never fill). */
std::uint64_t
slotCountFor(std::uint64_t entries)
{
    if (entries == 0)
        return 0;
    std::uint64_t s = 2;
    while (s < 2 * entries)
        s <<= 1;
    return s;
}

// ---- exact serialized entry footprints (byte accounting) ------------

std::uint64_t
frontierEntryBytes(std::size_t points)
{
    return (kEntryWords + points * kFrontierPointWords) * 8;
}

std::uint64_t
segmentEntryBytes(std::size_t stages)
{
    return (kEntryWords + stages * kSegmentStageWords +
            kSegmentCostWords) *
           8;
}

/** In-memory serialization buffer: save() builds the whole file
 *  image first so it can be checksummed and written (and fsynced)
 *  in one durable pass. */
struct Blob
{
    std::string bytes;

    void word(std::uint64_t w)
    {
        bytes.append(reinterpret_cast<const char *>(&w), sizeof(w));
    }

    /** Patch a previously appended word in place. */
    void patchWord(std::size_t wordIndex, std::uint64_t w)
    {
        std::memcpy(&bytes[wordIndex * 8], &w, sizeof(w));
    }
};

void
putResult(Blob &out, const LayerResult &r)
{
    out.word(std::uint64_t(r.cycles));
    out.word(doubleBits(r.utilization));
    out.word(std::uint64_t(r.dramBytes));
    out.word(doubleBits(r.energyPj));
    out.word(std::uint64_t(r.macs));
    out.word(std::uint64_t(r.memoryBound ? 1 : 0));
}

/** Decode one LayerResult from six words at `w`. */
LayerResult
readResult(const std::uint64_t *w)
{
    LayerResult r;
    r.cycles = Int(w[0]);
    r.utilization = bitsDouble(w[1]);
    r.dramBytes = Int(w[2]);
    r.energyPj = bitsDouble(w[3]);
    r.macs = Int(w[4]);
    r.memoryBound = w[5] != 0;
    return r;
}

/** Decode one FrontierPoint from eleven words at `w`. */
FrontierPoint
readFrontierPoint(const std::uint64_t *w)
{
    FrontierPoint p;
    p.mapping.dataflow = DataflowTag(w[0]);
    p.mapping.tm = Int(w[1]);
    p.mapping.tn = Int(w[2]);
    p.mapping.tk = Int(w[3]);
    p.result = readResult(w + 4);
    p.seq = w[4 + kResultWords];
    return p;
}

void
putSegmentCost(Blob &out, const SegmentCost &c)
{
    out.word(std::uint64_t(c.feasible ? 1 : 0));
    out.word(std::uint64_t(c.cycles));
    out.word(doubleBits(c.energyPj));
    out.word(std::uint64_t(c.dramBytes));
    out.word(std::uint64_t(c.bufferBytes));
    out.word(std::uint64_t(c.nocBytes));
    out.word(doubleBits(c.nocEnergyPj));
    out.word(doubleBits(c.sramEnergyPj));
    out.word(std::uint64_t(c.dramBytesSaved));
}

/** Decode one SegmentCost from nine words at `w`. */
SegmentCost
readSegmentCost(const std::uint64_t *w)
{
    SegmentCost c;
    c.feasible = w[0] != 0;
    c.cycles = Int(w[1]);
    c.energyPj = bitsDouble(w[2]);
    c.dramBytes = Int(w[3]);
    c.bufferBytes = Int(w[4]);
    c.nocBytes = Int(w[5]);
    c.nocEnergyPj = bitsDouble(w[6]);
    c.sramEnergyPj = bitsDouble(w[7]);
    c.dramBytesSaved = Int(w[8]);
    return c;
}

/** Fill the hardware section of a key (shared by all key kinds). */
std::size_t
hwPrefix(const HardwareConfig &hw, CacheKey *key)
{
    std::size_t i = 0;
    auto put = [&](std::uint64_t w) {
        if (i >= key->words.size())
            panic("cache key: word capacity exceeded — grow "
                  "CacheKey::words for the newly keyed field");
        key->words[i++] = w;
    };

    // Hardware (everything but the cosmetic name).
    put(std::uint64_t(hw.rows));
    put(std::uint64_t(hw.cols));
    put(std::uint64_t(hw.l1Kb));
    put(doubleBits(hw.freqGhz));
    put(doubleBits(hw.dram.bandwidthGBs));
    put(doubleBits(hw.dram.energyPerBytePj));
    put(doubleBits(hw.dram.burstBytes));
    put(std::uint64_t(hw.numPpus));
    put(std::uint64_t(hw.dataBits));
    put(std::uint64_t(hw.l2X));
    put(std::uint64_t(hw.l2Y));
    put(std::uint64_t(hw.naiveFusion));
    // Ordered dataflow list, 4 bits per entry (tag + 1 so that an
    // empty slot differs from DataflowTag 0). The word holds at most
    // 16 tags; a longer list would shift earlier tags out and let two
    // distinct configs collide on one key, so it is a hard error.
    if (hw.dataflows.size() > 16)
        panic("cache key: more than 16 dataflow tags cannot be "
              "packed into one key word — spill to a second word "
              "before keying such configs");
    std::uint64_t dfs = 0;
    for (DataflowTag t : hw.dataflows)
        dfs = (dfs << 4) | (std::uint64_t(t) + 1);
    put(dfs);
    return i;
}

} // namespace

std::uint64_t
CacheKey::computeHash() const
{
    std::uint64_t h = kFnv1aOffset;
    for (std::uint64_t w : words)
        h = fnv1aWord(h, w);
    return h;
}

CacheKey
makeFrontierKey(const HardwareConfig &hw, const Layer &l,
                std::size_t k)
{
    CacheKey key;
    std::size_t i = hwPrefix(hw, &key);
    if (i + LayerSignature::kWords + 4 > key.words.size())
        panic("cache key: word capacity exceeded — grow "
              "CacheKey::words for the newly keyed field");
    // Layer shape (name and repeat excluded on purpose). Sourced
    // from the canonical LayerSignature serialization, so the
    // layer-class dedup and the cache key can never key on
    // different field sets.
    for (std::uint64_t w : layerSignature(l).words())
        key.words[i++] = w;
    // Tail: (sentinel, K, 0, 0).
    key.words[i++] = kFrontierKeySentinel;
    key.words[i++] = std::uint64_t(k);
    key.words[i++] = 0;
    key.words[i++] = 0;
    key.hashValue = key.computeHash();
    return key;
}

SegmentKeyId
segmentKeyId(const Layer &l, int cols)
{
    SegmentKeyId id;
    id.sig = layerSignature(l).words();
    id.cols = std::uint64_t(cols);
    return id;
}

CacheKey
makeSegmentKey(const HardwareConfig &hw,
               const std::vector<SegmentKeyId> &stages)
{
    CacheKey key;
    std::size_t i = hwPrefix(hw, &key);
    if (i + 2 + stages.size() > key.words.size())
        panic("makeSegmentKey: segment of " +
              std::to_string(stages.size()) +
              " stages exceeds the key's tag-word capacity");
    key.words[i++] = kSegmentKeySentinel;
    key.words[i++] = std::uint64_t(stages.size());
    // One hashed tag word per stage. A tag collision is harmless:
    // the stored SegmentRecord carries the exact per-stage ids and
    // lookupSegment verifies them (mismatch = miss).
    for (const SegmentKeyId &s : stages) {
        std::uint64_t h = kFnv1aOffset;
        for (std::uint64_t w : s.sig)
            h = fnv1aWord(h, w);
        h = fnv1aWord(h, s.cols);
        key.words[i++] = h;
    }
    key.hashValue = key.computeHash();
    return key;
}

// ---- one validated view of a v6 image ------------------------------

namespace
{

/**
 * Validated, non-owning view of one v6 image: header, the frontier
 * and segment (slot table, entry array) regions, and the heap. THE
 * integrity check — loadEx() parses the bytes it read and
 * SharedSnapshot the pages it mapped through this one parser, so
 * the merge and probe paths can never disagree on what is corrupt.
 * After a Loaded parse every count, slot, and heap extent is in
 * range, so the readers below trust the image structurally; probes
 * still bound their walk so even a logically inconsistent table
 * terminates.
 */
class ImageView
{
  public:
    /** Validate `bytes` bytes of words; Loaded, Stale or Corrupt. */
    CacheLoadStatus parse(const std::uint64_t *words, std::size_t bytes)
    {
        w_ = words;
        if (bytes < kHeaderWords * 8 || bytes % 8 != 0 ||
            w_[kHdrMagic] != kCacheFileMagic)
            return CacheLoadStatus::Corrupt;
        // A wrong version or schema on an intact magic word is a file
        // from another build — a DELIBERATE cold start, not
        // corruption (so loadOrQuarantine won't destroy a
        // downgrade's still-good file). v5-and-earlier files land
        // here: their word 1 is the old version stamp.
        if (w_[kHdrVersion] != kCacheFileVersion ||
            w_[kHdrSchema] != CostCache::schemaHash())
            return CacheLoadStatus::Stale;
        const char *b = reinterpret_cast<const char *>(w_);
        if (w_[kHdrHeaderCrc] != crc32Of(b, (kHeaderWords - 1) * 8) ||
            w_[kHdrTotalWords] * 8 != bytes)
            return CacheLoadStatus::Corrupt;
        const std::uint64_t fSlots = w_[kHdrFrontSlots];
        const std::uint64_t fCount = w_[kHdrFrontCount];
        const std::uint64_t gSlots = w_[kHdrSegSlots];
        const std::uint64_t gCount = w_[kHdrSegCount];
        const std::uint64_t heapWords = w_[kHdrHeapWords];
        // Counts are cross-checked against the file length before
        // any region arithmetic (divide, never multiply, so a
        // hostile count cannot overflow the check).
        const std::uint64_t maxWords = bytes / 8;
        if (fCount > maxWords / kEntryWords ||
            gCount > maxWords / kEntryWords || fSlots > maxWords ||
            gSlots > maxWords || heapWords > maxWords ||
            fSlots != slotCountFor(fCount) ||
            gSlots != slotCountFor(gCount))
            return CacheLoadStatus::Corrupt;
        frontSlotsAt_ = kHeaderWords;
        frontEntriesAt_ = frontSlotsAt_ + fSlots;
        segSlotsAt_ = frontEntriesAt_ + fCount * kEntryWords;
        segEntriesAt_ = segSlotsAt_ + gSlots;
        heapAt_ = segEntriesAt_ + gCount * kEntryWords;
        // The regions must consume the file exactly — trailing bytes
        // mean a corrupt length/count somewhere.
        if (heapAt_ + heapWords != maxWords ||
            w_[kHdrBodyCrc] != crc32Of(b + kHeaderWords * 8,
                                       bytes - kHeaderWords * 8))
            return CacheLoadStatus::Corrupt;
        // Slot values index entries; heap references stay in range.
        auto slotsOk = [&](std::uint64_t at, std::uint64_t n,
                           std::uint64_t count) {
            for (std::uint64_t i = 0; i < n; ++i)
                if (w_[at + i] > count)
                    return false;
            return true;
        };
        if (!slotsOk(frontSlotsAt_, fSlots, fCount) ||
            !slotsOk(segSlotsAt_, gSlots, gCount))
            return CacheLoadStatus::Corrupt;
        for (std::uint64_t e = 0; e < fCount; ++e) {
            const std::uint64_t points = itemsOf(frontierEntry(e));
            const std::uint64_t off = heapOffOf(frontierEntry(e));
            // save() never writes an empty frontier; reject it here
            // rather than panicking mid-sweep later.
            if (points == 0 ||
                points > heapWords / kFrontierPointWords ||
                off > heapWords - points * kFrontierPointWords)
                return CacheLoadStatus::Corrupt;
        }
        for (std::uint64_t e = 0; e < gCount; ++e) {
            const std::uint64_t stages = itemsOf(segmentEntry(e));
            const std::uint64_t off = heapOffOf(segmentEntry(e));
            // A segment record always has >= 2 stages.
            if (stages < 2 || heapWords < kSegmentCostWords ||
                stages > (heapWords - kSegmentCostWords) /
                             kSegmentStageWords ||
                off > heapWords - kSegmentCostWords -
                          stages * kSegmentStageWords)
                return CacheLoadStatus::Corrupt;
        }
        return CacheLoadStatus::Loaded;
    }

    std::uint64_t generation() const { return w_[kHdrGeneration]; }
    std::uint64_t frontierCount() const { return w_[kHdrFrontCount]; }
    std::uint64_t segmentCount() const { return w_[kHdrSegCount]; }

    /** Word offset of frontier / segment entry `e`. */
    std::uint64_t frontierEntry(std::uint64_t e) const
    {
        return frontEntriesAt_ + e * kEntryWords;
    }
    std::uint64_t segmentEntry(std::uint64_t e) const
    {
        return segEntriesAt_ + e * kEntryWords;
    }

    /** The key stored at entry offset `at` (hash recomputed — never
     *  trusted from disk). */
    CacheKey keyAt(std::uint64_t at) const
    {
        CacheKey key;
        std::copy(w_ + at, w_ + at + kKeyWords, key.words.begin());
        key.hashValue = key.computeHash();
        return key;
    }

    void readFrontier(std::uint64_t at,
                      std::vector<FrontierPoint> *out) const
    {
        const std::uint64_t points = itemsOf(at);
        const std::uint64_t *heap = w_ + heapAt_ + heapOffOf(at);
        out->clear();
        out->reserve(std::size_t(points));
        for (std::uint64_t p = 0; p < points; ++p)
            out->push_back(
                readFrontierPoint(heap + p * kFrontierPointWords));
    }

    void readSegment(std::uint64_t at, SegmentRecord *out) const
    {
        const std::size_t stages = std::size_t(itemsOf(at));
        const std::uint64_t *sw = w_ + heapAt_ + heapOffOf(at);
        out->id.resize(stages);
        out->mappings.resize(stages);
        out->results.resize(stages);
        for (std::size_t st = 0; st < stages; ++st) {
            std::copy(sw, sw + LayerSignature::kWords,
                      out->id[st].sig.begin());
            sw += LayerSignature::kWords;
            out->id[st].cols = *sw++;
            out->mappings[st].dataflow = DataflowTag(sw[0]);
            out->mappings[st].tm = Int(sw[1]);
            out->mappings[st].tn = Int(sw[2]);
            out->mappings[st].tk = Int(sw[3]);
            out->results[st] = readResult(sw + 4);
            sw += 4 + kResultWords;
        }
        out->cost = readSegmentCost(sw);
    }

    bool lookupFrontier(const CacheKey &key,
                        std::vector<FrontierPoint> *out) const
    {
        const std::uint64_t at =
            probe(frontSlotsAt_, w_[kHdrFrontSlots], frontEntriesAt_,
                  key);
        if (at == kNone)
            return false;
        readFrontier(at, out);
        return true;
    }

    /** A stored record whose exact per-stage identity differs
     *  (hashed-tag collision) reads as a miss, same as L1. */
    bool lookupSegment(const CacheKey &key,
                       const std::vector<SegmentKeyId> &stages,
                       SegmentRecord *out) const
    {
        const std::uint64_t at = probe(
            segSlotsAt_, w_[kHdrSegSlots], segEntriesAt_, key);
        if (at == kNone || itemsOf(at) != stages.size())
            return false;
        readSegment(at, out);
        return out->id == stages;
    }

  private:
    static constexpr std::uint64_t kNone = ~0ull;

    std::uint64_t itemsOf(std::uint64_t at) const
    {
        return w_[at + kKeyWords];
    }
    std::uint64_t heapOffOf(std::uint64_t at) const
    {
        return w_[at + kKeyWords + 1];
    }

    /**
     * Open-addressed probe: returns the word offset of the matching
     * entry, or kNone. Linear probing over the power-of-two slot
     * table; a zero slot ends the chain (load factor <= 1/2
     * guarantees empties exist).
     */
    std::uint64_t probe(std::uint64_t slotsAt, std::uint64_t slots,
                        std::uint64_t entriesAt,
                        const CacheKey &key) const
    {
        if (slots == 0)
            return kNone;
        const std::uint64_t mask = slots - 1;
        std::uint64_t idx = key.hashValue & mask;
        for (std::uint64_t walked = 0; walked <= mask; ++walked) {
            const std::uint64_t slot = w_[slotsAt + idx];
            if (slot == 0)
                return kNone;
            const std::uint64_t at = entriesAt + (slot - 1) * kEntryWords;
            if (std::equal(key.words.begin(), key.words.end(),
                           w_ + at))
                return at;
            idx = (idx + 1) & mask;
        }
        return kNone;
    }

    const std::uint64_t *w_ = nullptr;
    std::uint64_t frontSlotsAt_ = 0, frontEntriesAt_ = 0;
    std::uint64_t segSlotsAt_ = 0, segEntriesAt_ = 0;
    std::uint64_t heapAt_ = 0;
};

} // namespace

// ---- shared read-mostly tier: the mmap'd snapshot --------------------

/**
 * One immutable mapping of a published v6 snapshot, fully validated
 * at map() time through ImageView. Instances are shared_ptr-held: a
 * remap publishes a new instance while in-flight probes finish on
 * the old one, which unmaps when its last reference drops.
 */
class SharedSnapshot
{
  public:
    ~SharedSnapshot()
    {
        if (base_ != nullptr)
            ::munmap(base_, bytes_);
    }

    SharedSnapshot(const SharedSnapshot &) = delete;
    SharedSnapshot &operator=(const SharedSnapshot &) = delete;

    /**
     * mmap `path` read-only and validate it as a v6 snapshot.
     * Returns null unless the file exists and parses Loaded — an
     * unpublished, stale, or damaged file is simply "no shared tier
     * yet".
     */
    static std::shared_ptr<const SharedSnapshot>
    map(const std::string &path)
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return nullptr;
        struct stat st = {};
        if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
            ::close(fd);
            return nullptr;
        }
        void *base = ::mmap(nullptr, std::size_t(st.st_size),
                            PROT_READ, MAP_SHARED, fd, 0);
        ::close(fd); // The mapping holds its own reference.
        if (base == MAP_FAILED)
            return nullptr;
        std::shared_ptr<SharedSnapshot> snap(new SharedSnapshot);
        snap->base_ = base;
        snap->bytes_ = std::size_t(st.st_size);
        if (snap->view_.parse(static_cast<const std::uint64_t *>(base),
                              snap->bytes_) != CacheLoadStatus::Loaded)
            return nullptr; // Destructor unmaps.
        return snap;
    }

    const ImageView &view() const { return view_; }

  private:
    SharedSnapshot() = default;

    void *base_ = nullptr;
    std::size_t bytes_ = 0;
    ImageView view_;
};

namespace
{

/**
 * Thread-local frontier L0: a direct-mapped table shared by every
 * CostCache a thread talks to. Slots are tagged with the owning
 * cache's process-unique id and clear()-epoch; a mismatched tag is
 * simply a miss, so stale entries (other caches, cleared caches,
 * reused addresses — ids are never reused) cannot leak. Power-of-two
 * size so the index is a mask of the precomputed key hash.
 */
constexpr std::size_t kL0FrontSlots = 512;

struct L0Slot
{
    bool used = false;
    std::uint64_t owner = 0;
    std::uint64_t epoch = 0;
    CacheKey key;
    std::vector<FrontierPoint> val;
};

L0Slot &
tlsFrontSlot(const CacheKey &key)
{
    thread_local std::vector<L0Slot> slots(kL0FrontSlots);
    return slots[std::size_t(key.hashValue) & (kL0FrontSlots - 1)];
}

std::uint64_t
nextCacheId()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

CostCache::CostCache() : id_(nextCacheId())
{
    shards_.reserve(kShards);
    for (std::size_t s = 0; s < kShards; ++s)
        shards_.push_back(std::make_unique<Shard>());
}

CostCache::~CostCache() = default;

CostCache::Shard &
CostCache::shardFor(const CacheKey &key)
{
    return *shards_[std::size_t(key.hashValue) % kShards];
}

// ---- bounded L1: capacity + epoch-batched cost-aware LRU ------------

void
CostCache::setCapacity(std::uint64_t maxBytes,
                       std::uint64_t maxEntries)
{
    maxBytes_.store(maxBytes, std::memory_order_relaxed);
    maxEntries_.store(maxEntries, std::memory_order_relaxed);
    if (overCapacity())
        enforceCapacity();
}

bool
CostCache::overCapacity() const
{
    const std::uint64_t mb = maxBytes_.load(std::memory_order_relaxed);
    const std::uint64_t me =
        maxEntries_.load(std::memory_order_relaxed);
    return (mb != 0 &&
            residentBytes_.load(std::memory_order_relaxed) > mb) ||
           (me != 0 &&
            entryCount_.load(std::memory_order_relaxed) > me);
}

void
CostCache::enforceCapacity()
{
    // One evictor at a time; racing inserters return immediately —
    // the running batch will account for their bytes too (it reads
    // the gauges as it goes).
    std::unique_lock<std::mutex> evictLk(evictMu_, std::try_to_lock);
    if (!evictLk.owns_lock())
        return;
    if (!overCapacity())
        return;
    LEGO_TRACE_SPAN_ARG("cache.evict", "cache", "resident_bytes",
                        residentBytes_.load());

    // Batch target: 7/8 of each bound, so inserts between batches
    // amortize the O(entries) candidate scan below.
    const std::uint64_t mb = maxBytes_.load(std::memory_order_relaxed);
    const std::uint64_t me =
        maxEntries_.load(std::memory_order_relaxed);
    const std::uint64_t targetBytes = mb == 0 ? 0 : mb - mb / 8;
    const std::uint64_t targetEntries = me == 0 ? 0 : me - me / 8;
    auto overTarget = [&] {
        return (mb != 0 && residentBytes_.load(
                               std::memory_order_relaxed) >
                               targetBytes) ||
               (me != 0 &&
                entryCount_.load(std::memory_order_relaxed) >
                    targetEntries);
    };

    // Rank every resident entry by (kind priority, last use):
    // frontiers first — each one rebuilds from a single per-layer
    // sweep — then segment records, which stand for whole per-stage
    // searches plus a pipeline evaluation. LRU within each kind.
    struct Cand
    {
        bool segment;
        std::uint64_t lastUse;
        std::uint32_t shard;
        CacheKey key;
    };
    std::vector<Cand> cands;
    cands.reserve(
        std::size_t(entryCount_.load(std::memory_order_relaxed)));
    for (std::uint32_t si = 0; si < shards_.size(); ++si) {
        Shard &s = *shards_[si];
        std::lock_guard<std::mutex> lk(s.mu);
        for (const auto &kv : s.fronts)
            cands.push_back({false, kv.second.lastUse, si, kv.first});
        for (const auto &kv : s.segs)
            cands.push_back({true, kv.second.lastUse, si, kv.first});
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand &a, const Cand &b) {
                  return a.segment != b.segment ? b.segment
                                                : a.lastUse < b.lastUse;
              });

    // Erase `c` from its table unless it was touched since the
    // snapshot above (then it is hot again — skip it this batch);
    // returns the bytes freed.
    auto evict = [](auto &table, const Cand &c) -> std::uint64_t {
        auto it = table.find(c.key);
        if (it == table.end() || it->second.lastUse != c.lastUse)
            return 0;
        const std::uint64_t bytes = it->second.bytes;
        table.erase(it);
        return bytes;
    };
    for (const Cand &c : cands) {
        if (!overTarget())
            break;
        Shard &s = *shards_[c.shard];
        std::uint64_t freed = 0;
        {
            std::lock_guard<std::mutex> lk(s.mu);
            freed = c.segment ? evict(s.segs, c) : evict(s.fronts, c);
        }
        if (freed != 0) {
            residentBytes_.fetch_sub(freed,
                                     std::memory_order_relaxed);
            entryCount_.fetch_sub(1, std::memory_order_relaxed);
            bumpStat(totals_, &StatsContext::evictions);
        }
    }
}

// ---- shared-tier plumbing -------------------------------------------

std::shared_ptr<const SharedSnapshot>
CostCache::sharedSnapshot() const
{
    if (!sharedAttached_.load(std::memory_order_acquire))
        return nullptr;
    std::lock_guard<std::mutex> lk(sharedMu_);
    return shared_;
}

bool
CostCache::mapShared(bool countRemap)
{
    std::string path;
    {
        std::lock_guard<std::mutex> lk(sharedMu_);
        path = sharedPath_;
    }
    std::shared_ptr<const SharedSnapshot> snap =
        SharedSnapshot::map(path);
    if (!snap)
        return false;
    std::lock_guard<std::mutex> lk(sharedMu_);
    if (shared_ && shared_->view().generation() == snap->view().generation())
        return false; // Raced with another refresher; keep theirs.
    const bool hadPrevious = shared_ != nullptr;
    shared_ = std::move(snap);
    sharedGen_.store(shared_->view().generation(),
                     std::memory_order_relaxed);
    if (countRemap && hadPrevious)
        bumpStat(totals_, &StatsContext::remaps);
    return true;
}

bool
CostCache::attachShared(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lk(sharedMu_);
        sharedPath_ = path;
        shared_.reset();
        sharedGen_.store(0, std::memory_order_relaxed);
    }
    sharedAttached_.store(true, std::memory_order_release);
    mapShared(/*countRemap=*/false);
    return sharedGeneration() != 0;
}

bool
CostCache::refreshShared()
{
    if (!sharedAttached_.load(std::memory_order_acquire))
        return false;
    // Cheap no-change path: read just the 128-byte header and
    // compare generations before paying for a full map+validate.
    std::string path;
    std::uint64_t current;
    {
        std::lock_guard<std::mutex> lk(sharedMu_);
        path = sharedPath_;
        current = sharedGen_.load(std::memory_order_relaxed);
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    std::uint64_t hdr[kHeaderWords] = {};
    const ssize_t n = ::pread(fd, hdr, sizeof(hdr), 0);
    ::close(fd);
    if (n != ssize_t(sizeof(hdr)) ||
        hdr[kHdrMagic] != kCacheFileMagic ||
        hdr[kHdrVersion] != kCacheFileVersion ||
        hdr[kHdrSchema] != schemaHash() ||
        hdr[kHdrHeaderCrc] !=
            crc32Of(reinterpret_cast<const char *>(hdr),
                    (kHeaderWords - 1) * 8))
        return false;
    if (hdr[kHdrGeneration] == current)
        return false;
    return mapShared(/*countRemap=*/true);
}

std::uint64_t
CostCache::sharedGeneration() const
{
    return sharedGen_.load(std::memory_order_relaxed);
}

// ---- lookups / inserts ----------------------------------------------

void
CostCache::admitted(std::uint64_t bytes)
{
    residentBytes_.fetch_add(bytes, std::memory_order_relaxed);
    entryCount_.fetch_add(1, std::memory_order_relaxed);
    if (overCapacity())
        enforceCapacity();
}

bool
CostCache::lookupFrontier(const CacheKey &key,
                          std::vector<FrontierPoint> *out)
{
    Shard &s = shardFor(key);
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto it = s.fronts.find(key);
        if (it != s.fronts.end()) {
            it->second.lastUse = tick();
            bumpStat(totals_, &StatsContext::frontHits);
            *out = it->second.val;
            return true;
        }
    }
    // L1 miss: probe the mapped snapshot (no locks held — the
    // shared_ptr keeps the image alive). A shared hit is NOT copied
    // into L1, so the snapshot's pages stay shared across processes
    // (lookupFrontierFast still promotes it into the caller's L0).
    if (std::shared_ptr<const SharedSnapshot> snap =
            sharedSnapshot()) {
        if (snap->view().lookupFrontier(key, out)) {
            bumpStat(totals_, &StatsContext::frontHits);
            bumpStat(totals_, &StatsContext::sharedFrontHits);
            return true;
        }
    }
    bumpStat(totals_, &StatsContext::frontMisses);
    return false;
}

void
CostCache::insertFrontier(const CacheKey &key,
                          const std::vector<FrontierPoint> &points)
{
    Shard &s = shardFor(key);
    bool created;
    const std::uint64_t bytes = frontierEntryBytes(points.size());
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto r =
            s.fronts.emplace(key, Entry<std::vector<FrontierPoint>>{});
        created = r.second;
        if (created) {
            r.first->second.val = points;
            r.first->second.bytes = bytes;
            r.first->second.lastUse = tick();
        }
    }
    if (created) {
        bumpStat(totals_, &StatsContext::frontInserts);
        admitted(bytes);
    }
}

bool
CostCache::lookupFrontierFast(const CacheKey &key,
                              std::vector<FrontierPoint> *out)
{
    const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    L0Slot &slot = tlsFrontSlot(key);
    if (slot.used && slot.owner == id_ && slot.epoch == epoch &&
        slot.key == key) {
        bumpStat(totals_, &StatsContext::frontHits);
        *out = slot.val;
        return true;
    }
    if (!lookupFrontier(key, out))
        return false;
    // Promote the L1 (or shared-tier) hit so this worker's next
    // lookup is lock-free.
    slot.used = true;
    slot.owner = id_;
    slot.epoch = epoch;
    slot.key = key;
    slot.val = *out;
    return true;
}

void
CostCache::insertFrontierFast(const CacheKey &key,
                              const std::vector<FrontierPoint> &points)
{
    insertFrontier(key, points);
    L0Slot &slot = tlsFrontSlot(key);
    slot.used = true;
    slot.owner = id_;
    slot.epoch = epoch_.load(std::memory_order_relaxed);
    slot.key = key;
    slot.val = points;
}

bool
CostCache::lookupSegment(const CacheKey &key,
                         const std::vector<SegmentKeyId> &stages,
                         SegmentRecord *out)
{
    Shard &s = shardFor(key);
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto it = s.segs.find(key);
        if (it != s.segs.end() && it->second.val.id == stages) {
            it->second.lastUse = tick();
            bumpStat(totals_, &StatsContext::segHits);
            *out = it->second.val;
            return true;
        }
    }
    if (std::shared_ptr<const SharedSnapshot> snap =
            sharedSnapshot()) {
        if (snap->view().lookupSegment(key, stages, out)) {
            bumpStat(totals_, &StatsContext::segHits);
            bumpStat(totals_, &StatsContext::sharedSegHits);
            return true;
        }
    }
    bumpStat(totals_, &StatsContext::segMisses);
    return false;
}

void
CostCache::insertSegment(const CacheKey &key, const SegmentRecord &rec)
{
    if (rec.id.size() != rec.mappings.size() ||
        rec.id.size() != rec.results.size())
        panic("insertSegment: ragged segment record");
    Shard &s = shardFor(key);
    bool created;
    const std::uint64_t bytes = segmentEntryBytes(rec.id.size());
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto r = s.segs.emplace(key, Entry<SegmentRecord>{});
        created = r.second;
        if (created) {
            r.first->second.val = rec;
            r.first->second.bytes = bytes;
            r.first->second.lastUse = tick();
        }
    }
    if (created) {
        bumpStat(totals_, &StatsContext::segInserts);
        admitted(bytes);
    }
}

std::size_t
CostCache::frontierCount() const
{
    std::size_t n = 0;
    for (const auto &s : shards_) {
        std::lock_guard<std::mutex> lk(s->mu);
        n += s->fronts.size();
    }
    return n;
}

std::size_t
CostCache::segmentCount() const
{
    std::size_t n = 0;
    for (const auto &s : shards_) {
        std::lock_guard<std::mutex> lk(s->mu);
        n += s->segs.size();
    }
    return n;
}

std::uint64_t
CostCache::schemaHash()
{
    std::uint64_t h = kFnv1aOffset;
    for (const char *p = kCacheFileSchema; *p; ++p)
        h = fnv1aByte(h, std::uint8_t(*p));
    return h;
}

std::uint64_t
CostCache::fileFormatVersion()
{
    return kCacheFileVersion;
}

namespace
{

/** write(2) the whole buffer, retrying short writes and EINTR. */
bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t at = 0;
    while (at < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + at, bytes.size() - at);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        at += std::size_t(n);
    }
    return true;
}

/** fsync the directory holding `path`, persisting a rename within
 *  it. Best-effort: the renamed file itself is already valid, a
 *  failure here only re-opens the (pre-existing) window in which a
 *  power cut may resurface the old file. */
void
fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos
            ? "."
            : (slash == 0 ? "/" : path.substr(0, slash));
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

/**
 * Generation the publish of `body` (the new image past the header)
 * to `path` should stamp: the current valid v6 generation + 1, or 1
 * on a fresh/invalid path. A byte-identical body REUSES the current
 * generation — the whole file then comes out bit-identical, so an
 * idempotent republish neither perturbs the artifact nor makes
 * attached readers remap for content they already have.
 * Single-writer protocol — concurrent writers could mint the same
 * generation (last rename wins; see serve/README.md).
 */
std::uint64_t
generationFor(const std::string &path, const char *body,
              std::size_t bodyBytes)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return 1;
    std::uint64_t hdr[kHeaderWords] = {};
    bool same = false;
    std::uint64_t gen = 0;
    const ssize_t n = ::pread(fd, hdr, sizeof(hdr), 0);
    if (n == ssize_t(sizeof(hdr)) &&
        hdr[kHdrMagic] == kCacheFileMagic &&
        hdr[kHdrVersion] == kCacheFileVersion &&
        hdr[kHdrHeaderCrc] ==
            crc32Of(reinterpret_cast<const char *>(hdr),
                    (kHeaderWords - 1) * 8)) {
        gen = hdr[kHdrGeneration];
        if (hdr[kHdrTotalWords] * 8 ==
            kHeaderWords * 8 + bodyBytes) {
            std::string old(bodyBytes, '\0');
            same = ::pread(fd, &old[0], bodyBytes,
                           off_t(kHeaderWords * 8)) ==
                       ssize_t(bodyBytes) &&
                   std::memcmp(old.data(), body, bodyBytes) == 0;
        }
    }
    ::close(fd);
    if (gen == 0)
        return 1;
    return same ? gen : gen + 1;
}

/** Build an open-addressed slot table over per-entry key hashes. */
std::vector<std::uint64_t>
buildSlotTable(const std::vector<std::uint64_t> &hashes)
{
    const std::uint64_t slots = slotCountFor(hashes.size());
    std::vector<std::uint64_t> table(std::size_t(slots), 0);
    if (slots == 0)
        return table;
    const std::uint64_t mask = slots - 1;
    for (std::size_t e = 0; e < hashes.size(); ++e) {
        std::uint64_t idx = hashes[e] & mask;
        while (table[std::size_t(idx)] != 0)
            idx = (idx + 1) & mask;
        table[std::size_t(idx)] = std::uint64_t(e) + 1;
    }
    return table;
}

} // namespace

bool
CostCache::save(const std::string &path) const
{
    LEGO_TRACE_SPAN_ARG("cache.save", "cache", "entries", size());
    // Snapshot under the shard locks first so the header counts are
    // exact even if writers race the save.
    std::vector<std::pair<CacheKey, std::vector<FrontierPoint>>>
        frontEntries;
    std::vector<std::pair<CacheKey, SegmentRecord>> segEntries;
    for (const auto &s : shards_) {
        std::lock_guard<std::mutex> lk(s->mu);
        for (const auto &kv : s->fronts)
            frontEntries.emplace_back(kv.first, kv.second.val);
        for (const auto &kv : s->segs)
            segEntries.emplace_back(kv.first, kv.second.val);
    }

    // Serialize the whole mmap-able image in memory: header, two
    // (slot table, fixed-stride entry array) pairs, then the heap
    // holding frontier point lists and segment stage/cost blocks.
    // The CRCs are patched into the header last.
    std::vector<std::uint64_t> frontHashes, segHashes;
    frontHashes.reserve(frontEntries.size());
    for (const auto &kv : frontEntries)
        frontHashes.push_back(kv.first.hashValue);
    segHashes.reserve(segEntries.size());
    for (const auto &kv : segEntries)
        segHashes.push_back(kv.first.hashValue);
    const std::vector<std::uint64_t> frontSlots =
        buildSlotTable(frontHashes);
    const std::vector<std::uint64_t> segSlots =
        buildSlotTable(segHashes);

    std::uint64_t heapWords = 0;
    for (const auto &kv : frontEntries)
        heapWords += kv.second.size() * kFrontierPointWords;
    for (const auto &kv : segEntries)
        heapWords += kv.second.id.size() * kSegmentStageWords +
                     kSegmentCostWords;
    const std::uint64_t totalWords =
        kHeaderWords + frontSlots.size() +
        frontEntries.size() * kEntryWords + segSlots.size() +
        segEntries.size() * kEntryWords + heapWords;

    Blob out;
    out.bytes.reserve(std::size_t(totalWords) * 8);
    out.word(kCacheFileMagic);
    out.word(kCacheFileVersion);
    out.word(schemaHash());
    out.word(0); // Generation, patched below (needs the body bytes).
    out.word(std::uint64_t(frontSlots.size()));
    out.word(std::uint64_t(frontEntries.size()));
    out.word(std::uint64_t(segSlots.size()));
    out.word(std::uint64_t(segEntries.size()));
    out.word(heapWords);
    out.word(totalWords);
    for (std::size_t r = kHdrTotalWords + 1; r < kHdrBodyCrc; ++r)
        out.word(0); // Reserved.
    out.word(0); // Body CRC, patched below.
    out.word(0); // Header CRC, patched below.

    // Heap offsets are assigned in entry order: all frontier point
    // lists first, then segment stage/cost blocks.
    std::uint64_t heapAt = 0;
    for (std::uint64_t w : frontSlots)
        out.word(w);
    for (const auto &kv : frontEntries) {
        for (std::uint64_t w : kv.first.words)
            out.word(w);
        out.word(std::uint64_t(kv.second.size()));
        out.word(heapAt);
        heapAt += kv.second.size() * kFrontierPointWords;
    }
    for (std::uint64_t w : segSlots)
        out.word(w);
    for (const auto &kv : segEntries) {
        for (std::uint64_t w : kv.first.words)
            out.word(w);
        out.word(std::uint64_t(kv.second.id.size()));
        out.word(heapAt);
        heapAt += kv.second.id.size() * kSegmentStageWords +
                  kSegmentCostWords;
    }
    for (const auto &kv : frontEntries) {
        for (const FrontierPoint &p : kv.second) {
            out.word(std::uint64_t(p.mapping.dataflow));
            out.word(std::uint64_t(p.mapping.tm));
            out.word(std::uint64_t(p.mapping.tn));
            out.word(std::uint64_t(p.mapping.tk));
            putResult(out, p.result);
            out.word(p.seq);
        }
    }
    for (const auto &kv : segEntries) {
        const SegmentRecord &rec = kv.second;
        for (std::size_t st = 0; st < rec.id.size(); ++st) {
            for (std::uint64_t w : rec.id[st].sig)
                out.word(w);
            out.word(rec.id[st].cols);
            out.word(std::uint64_t(rec.mappings[st].dataflow));
            out.word(std::uint64_t(rec.mappings[st].tm));
            out.word(std::uint64_t(rec.mappings[st].tn));
            out.word(std::uint64_t(rec.mappings[st].tk));
            putResult(out, rec.results[st]);
        }
        putSegmentCost(out, rec.cost);
    }
    if (out.bytes.size() != std::size_t(totalWords) * 8)
        panic("cache save: serialized image size diverged from the "
              "header layout");
    out.patchWord(kHdrGeneration,
                  generationFor(path,
                                out.bytes.data() + kHeaderWords * 8,
                                out.bytes.size() -
                                    kHeaderWords * 8));
    // Body CRC over everything after the header; header CRC over
    // every header word but itself (reserved words included, so any
    // header flip is caught).
    out.patchWord(kHdrBodyCrc,
                  crc32Of(out.bytes.data() + kHeaderWords * 8,
                          out.bytes.size() - kHeaderWords * 8));
    out.patchWord(kHdrHeaderCrc,
                  crc32Of(out.bytes.data(), (kHeaderWords - 1) * 8));

    // Durable write: temp file, write, fsync, rename, fsync the
    // directory. A crash (or injected fault) at ANY point leaves
    // either the previous valid file or the new valid file at
    // `path` — never a torn one. Each step has a failpoint so
    // chaos runs can prove that property.
    obs::Failpoints &fp = obs::Failpoints::instance();
    const std::string tmp = path + ".tmp";
    if (fp.fire("cache.save.open"))
        return false;
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        return false;
    if (fp.fire("cache.save.crash")) {
        // Simulated mid-write crash: half the image reaches the temp
        // file, which is left behind un-renamed — exactly the debris
        // a real crash leaves. The target file stays untouched.
        (void)::write(fd, out.bytes.data(), out.bytes.size() / 2);
        ::close(fd);
        return false;
    }
    bool ok = writeAll(fd, out.bytes) && !fp.fire("cache.save.write");
    // fsync BEFORE rename: once the new name is visible it must
    // point at durable bytes, else a crash after the rename can
    // surface a stale-or-empty file (the pre-v4 durability bug).
    if (ok && (fp.fire("cache.save.fsync") || ::fsync(fd) != 0))
        ok = false;
    ::close(fd);
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (fp.fire("cache.save.rename") ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    fsyncParentDir(path);
    return true;
}

CacheLoadStatus
CostCache::loadEx(const std::string &path)
{
    LEGO_TRACE_SPAN("cache.load", "cache");
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return CacheLoadStatus::Missing;
    const std::size_t fileBytes = std::size_t(in.tellg());
    in.seekg(0);
    // Read into words, so the image is 8-byte aligned exactly like
    // a mapped snapshot.
    std::vector<std::uint64_t> words((fileBytes + 7) / 8);
    if (fileBytes > 0 &&
        !in.read(reinterpret_cast<char *>(words.data()),
                 std::streamsize(fileBytes)))
        return CacheLoadStatus::Corrupt;
    if (obs::Failpoints::instance().fire("cache.load.corrupt"))
        return CacheLoadStatus::Corrupt;

    // The parse validates every count, offset and both CRCs, so the
    // merge below cannot fail half-way: a rejected file leaves the
    // cache untouched.
    ImageView view;
    const CacheLoadStatus st = view.parse(words.data(), fileBytes);
    if (st != CacheLoadStatus::Loaded)
        return st;
    std::vector<FrontierPoint> points;
    for (std::uint64_t e = 0; e < view.frontierCount(); ++e) {
        const std::uint64_t at = view.frontierEntry(e);
        view.readFrontier(at, &points);
        insertFrontier(view.keyAt(at), points);
    }
    SegmentRecord rec;
    for (std::uint64_t e = 0; e < view.segmentCount(); ++e) {
        const std::uint64_t at = view.segmentEntry(e);
        view.readSegment(at, &rec);
        insertSegment(view.keyAt(at), rec);
    }
    return CacheLoadStatus::Loaded;
}

bool
CostCache::load(const std::string &path)
{
    return loadEx(path) == CacheLoadStatus::Loaded;
}

CacheLoadStatus
CostCache::loadOrQuarantine(const std::string &path)
{
    const CacheLoadStatus st = loadEx(path);
    if (st != CacheLoadStatus::Corrupt)
        return st;
    // Set the evidence aside (replacing any older quarantine) so the
    // next save() starts clean and the bad file stays inspectable.
    const std::string aside = path + ".corrupt";
    std::remove(aside.c_str());
    if (std::rename(path.c_str(), aside.c_str()) == 0)
        std::fprintf(stderr,
                     "lego: cache file %s failed validation; "
                     "quarantined to %s (cold start)\n",
                     path.c_str(), aside.c_str());
    bumpStat(totals_, &StatsContext::quarantined);
    return st;
}

void
CostCache::clear()
{
    for (auto &s : shards_) {
        std::lock_guard<std::mutex> lk(s->mu);
        s->fronts.clear();
        s->segs.clear();
    }
    // Invalidate every thread's L0 entries for this cache: slots are
    // tagged with the epoch at fill time, so bumping it turns them
    // all into misses without touching other threads' storage. The
    // shared snapshot (if attached) stays mapped — it is read-only
    // state owned by the publisher, not by this process.
    epoch_.fetch_add(1, std::memory_order_relaxed);
    residentBytes_.store(0);
    entryCount_.store(0);
    totals_.reset();
}

} // namespace dse
} // namespace lego

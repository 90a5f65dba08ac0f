/**
 * @file
 * Golden RTL digests: the generator's output pinned byte-for-byte.
 *
 * Each case runs the full back end on one design and pins two
 * numbers: the delay-matching objective (insertedRegBits) and a
 * 64-bit FNV-1a digest of emitVerilog(gen, "t"). Register placement
 * follows the dual the LP solvers return, so any solver change that
 * picks a different optimal dual shows up here even when the
 * register-bit total does not move.
 *
 * Designs: the eleven Fig. 10 designs (8x8), a fused three-config
 * GEMM (ij broadcast, kj broadcast, ik systolic) at p = 2, 4 and 8,
 * and GEMM-IJ at 16x16 and 32x32.
 *
 * kRegAreaGolden pins the register area of the two intermediate
 * delay-matched copies (BackendReport::baseline, after delay matching
 * alone, and ::afterReduce), whose placements the emitted RTL does
 * not show.
 *
 * Regenerating: run test_rtl_digest; every mismatch prints the
 * actual row in the table's format, ready to paste into kGolden.
 * Regenerating is a deliberate RTL change and must be called out as
 * one.
 *
 * The same designs also pin the bit-exact check itself: for every
 * (design, config), kInterpGolden holds the interpreter's InterpStats
 * and an FNV-1a digest of the output tensor computed from the inputs
 * of kInterpSeed, and the output must equal the reference loop nest.
 * A rewrite of the interpreter or the reference must keep every row.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "../bench/kernels.hh"

namespace lego
{
namespace
{

struct Golden
{
    const char *name;
    Int insertedRegBits;
    std::uint64_t digest;
};

// clang-format off
const Golden kGolden[] = {
    {"Attention", 1760, 0x11d51b5d6fe4a5a2ull},
    {"Conv2d-ICOC", 504, 0x8cc6df8245739b0dull},
    {"Conv2d-MNICOC", 3243, 0x819496dd3b058662ull},
    {"Conv2d-OHOW", 1632, 0xfba535a03fb684aaull},
    {"GEMM-IJ", 2420, 0xc6aeed96971b1255ull},
    {"GEMM-IK", 198, 0xfd27942f1f03de9aull},
    {"GEMM-KJ", 176, 0xd6b2aba3f83c0613ull},
    {"GEMM-MJ", 3490, 0x1c1f1950766c06cdull},
    {"MTTKRP-IJ", 2604, 0x18939682b130f1f1ull},
    {"MTTKRP-KJ", 1624, 0x5ed929c36b444485ull},
    {"MTTKRP-MJ", 4319, 0x9db8052de9e1b03eull},
    {"GEMM-3cfg-p2", 63, 0xfd0348c134d79043ull},
    {"GEMM-3cfg-p4", 796, 0xa42b356c61f63159ull},
    {"GEMM-3cfg-p8", 4916, 0x621d5b5099322c1cull},
    {"GEMM-IJ-16x16", 11667, 0xcd9f922b3d5ef3d6ull},
    {"GEMM-IJ-32x32", 77917, 0xaaad10fa5f73053dull},
};
// clang-format on

struct InterpGolden
{
    const char *name;
    int cfg;
    Int cycles, reads, writes, pipelineDepth;
    std::uint64_t outDigest;
};

constexpr unsigned kInterpSeed = 7;

// clang-format off
const InterpGolden kInterpGolden[] = {
    {"Attention", 0, 74, 1024, 4096, 6, 0xdaa1864abcf19107ull},
    {"Attention", 1, 74, 1024, 4096, 6, 0x9e7cd12c24d7f73dull},
    {"Conv2d-ICOC", 0, 584, 41472, 4608, 4, 0xe1729af1db736b31ull},
    {"Conv2d-MNICOC", 0, 591, 9216, 36864, 11, 0xe1729af1db736b31ull},
    {"Conv2d-MNICOC", 1, 584, 41472, 4608, 4, 0xe1729af1db736b31ull},
    {"Conv2d-OHOW", 0, 611, 37440, 36864, 31, 0xe1729af1db736b31ull},
    {"GEMM-IJ", 0, 522, 8192, 32768, 6, 0x1fb40883f0f76598ull},
    {"GEMM-IK", 0, 520, 36864, 4096, 4, 0x1fb40883f0f76598ull},
    {"GEMM-KJ", 0, 546, 36864, 4096, 16, 0x1fb40883f0f76598ull},
    {"GEMM-MJ", 0, 521, 8192, 32768, 5, 0x1fb40883f0f76598ull},
    {"GEMM-MJ", 1, 521, 36864, 4096, 5, 0x1fb40883f0f76598ull},
    {"MTTKRP-IJ", 0, 1035, 24576, 65536, 7, 0x8cf322e60d90b92bull},
    {"MTTKRP-KJ", 0, 1033, 81920, 8192, 5, 0x8cf322e60d90b92bull},
    {"MTTKRP-MJ", 0, 1034, 24576, 65536, 6, 0x8cf322e60d90b92bull},
    {"MTTKRP-MJ", 1, 1034, 81920, 8192, 6, 0x8cf322e60d90b92bull},
    {"GEMM-3cfg-p2", 0, 135, 512, 512, 3, 0x2031ab5e37fd1734ull},
    {"GEMM-3cfg-p2", 1, 135, 768, 256, 3, 0x2031ab5e37fd1734ull},
    {"GEMM-3cfg-p2", 2, 138, 768, 256, 4, 0x2031ab5e37fd1734ull},
    {"GEMM-3cfg-p4", 0, 43, 256, 512, 7, 0x2031ab5e37fd1734ull},
    {"GEMM-3cfg-p4", 1, 43, 640, 128, 7, 0x2031ab5e37fd1734ull},
    {"GEMM-3cfg-p4", 2, 53, 640, 128, 11, 0x2031ab5e37fd1734ull},
    {"GEMM-3cfg-p8", 0, 26, 128, 512, 14, 0x2031ab5e37fd1734ull},
    {"GEMM-3cfg-p8", 1, 26, 576, 64, 14, 0x2031ab5e37fd1734ull},
    {"GEMM-3cfg-p8", 2, 50, 576, 64, 24, 0x2031ab5e37fd1734ull},
    {"GEMM-IJ-16x16", 0, 141, 4096, 32768, 9, 0x1fb40883f0f76598ull},
    {"GEMM-IJ-32x32", 0, 147, 8192, 131072, 15, 0x77d6963d91bd82ecull},
};
// clang-format on

struct RegAreaGolden
{
    const char *name;
    double baseline, afterReduce; //!< BackendReport ...::regArea.
};

// clang-format off
const RegAreaGolden kRegAreaGolden[] = {
    {"Attention", 3942.4000000000015, 3942.4000000000015},
    {"Conv2d-ICOC", 2670.7999999999984, 1205.6000000000006},
    {"Conv2d-MNICOC", 11066, 7257.7999999999902},
    {"Conv2d-OHOW", 6571.3999999999978, 6571.3999999999978},
    {"GEMM-IJ", 5343.8000000000029, 5343.8000000000029},
    {"GEMM-IK", 2736.7999999999997, 1271.6000000000013},
    {"GEMM-KJ", 14361.600000000008, 14361.600000000008},
    {"GEMM-MJ", 12038.399999999987, 7713.1999999999971},
    {"MTTKRP-IJ", 5922.4000000000015, 5922.4000000000015},
    {"MTTKRP-KJ", 6762.7999999999993, 3647.5999999999981},
    {"MTTKRP-MJ", 14709.200000000013, 9618.3999999999705},
    {"GEMM-3cfg-p2", 325.60000000000002, 325.60000000000002},
    {"GEMM-3cfg-p4", 3467.1999999999975, 3442.9999999999964},
    {"GEMM-3cfg-p8", 23038.400000000063, 21060.60000000006},
    {"GEMM-IJ-16x16", 25904.999999999967, 25904.999999999967},
    {"GEMM-IJ-32x32", 172209.40000000055, 172209.40000000055},
};
// clang-format on

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = kFnv1aOffset;
    for (char c : s)
        h = fnv1aByte(h, std::uint8_t(c));
    return h;
}

/** FNV-1a over the tensor's values, 8 little-endian bytes each. */
std::uint64_t
fnv1a(const TensorData &t)
{
    std::uint64_t h = kFnv1aOffset;
    for (size_t i = 0; i < t.size(); i++) {
        const std::uint64_t v = std::uint64_t(t.flat(i));
        for (int b = 0; b < 8; b++)
            h = fnv1aByte(h, std::uint8_t(v >> (8 * b)));
    }
    return h;
}

/** Fused GEMM: ij broadcast, kj broadcast and ik systolic on p x p. */
NamedDesign
fusedGemm3(Int p)
{
    NamedDesign d;
    d.name = "GEMM-3cfg-p" + std::to_string(p);
    Workload w = makeGemm(8, 8, 8);
    addConfig(d, w, makeSimpleSpec(w, "ij", {{"i", p}, {"j", p}}, false));
    addConfig(d, w, makeSimpleSpec(w, "kj", {{"k", p}, {"j", p}}, false));
    addConfig(d, w, makeSimpleSpec(w, "ik", {{"i", p}, {"k", p}}, true));
    return d;
}

std::vector<NamedDesign>
digestDesigns()
{
    std::vector<NamedDesign> out = fig10Designs();
    out.push_back(fusedGemm3(2));
    out.push_back(fusedGemm3(4));
    out.push_back(fusedGemm3(8));
    for (Int p : {16, 32}) {
        NamedDesign big;
        big.name = "GEMM-IJ-" + std::to_string(p) + "x" + std::to_string(p);
        Workload w = makeGemm(2 * p, 2 * p, 32);
        addConfig(big, w,
                  makeSimpleSpec(w, "ij", {{"i", p}, {"j", p}}, false));
        out.push_back(std::move(big));
    }
    return out;
}

/** One digest design after the full back end. */
struct BuiltDesign
{
    NamedDesign design;
    Adg adg;
    CodegenResult gen;
    BackendReport rep;
};

/** The sixteen designs, built once and shared by every test. */
const std::vector<BuiltDesign> &
builtDesigns()
{
    static const std::vector<BuiltDesign> built = [] {
        std::vector<BuiltDesign> out;
        for (NamedDesign &d : digestDesigns()) {
            BuiltDesign b;
            b.design = std::move(d);
            b.rep = buildDesign(b.design, &b.gen, &b.adg);
            out.push_back(std::move(b));
        }
        return out;
    }();
    return built;
}

TEST(RtlDigest, MatchesGolden)
{
    const std::vector<BuiltDesign> &designs = builtDesigns();
    ASSERT_EQ(designs.size(), std::size(kGolden));
    for (size_t i = 0; i < designs.size(); i++) {
        const BuiltDesign &b = designs[i];
        std::uint64_t digest = fnv1a(emitVerilog(b.gen, "t"));
        char row[128];
        std::snprintf(row, sizeof(row), "{\"%s\", %" PRId64
                      ", 0x%016" PRIx64 "ull},",
                      b.design.name.c_str(),
                      std::int64_t(b.rep.matchStats.insertedRegBits),
                      digest);
        EXPECT_EQ(b.design.name, kGolden[i].name) << row;
        EXPECT_EQ(b.rep.matchStats.insertedRegBits,
                  kGolden[i].insertedRegBits) << row;
        EXPECT_EQ(digest, kGolden[i].digest) << row;
    }
}

TEST(RtlDigest, RegAreaMatchesGolden)
{
    const std::vector<BuiltDesign> &designs = builtDesigns();
    ASSERT_EQ(designs.size(), std::size(kRegAreaGolden));
    for (size_t i = 0; i < designs.size(); i++) {
        const BuiltDesign &b = designs[i];
        char row[160];
        std::snprintf(row, sizeof(row), "{\"%s\", %.17g, %.17g},",
                      b.design.name.c_str(), b.rep.baseline.regArea,
                      b.rep.afterReduce.regArea);
        EXPECT_EQ(b.design.name, kRegAreaGolden[i].name) << row;
        EXPECT_EQ(b.rep.baseline.regArea, kRegAreaGolden[i].baseline)
            << row;
        EXPECT_EQ(b.rep.afterReduce.regArea,
                  kRegAreaGolden[i].afterReduce) << row;
    }
}

TEST(RtlDigest, InterpreterMatchesGolden)
{
    size_t row_idx = 0;
    for (const BuiltDesign &b : builtDesigns()) {
        for (int cfg = 0; cfg < int(b.design.configs.size()); cfg++) {
            const Workload &w = *b.adg.configs[size_t(cfg)].workload;
            TensorSet ts = makeInputs(w, kInterpSeed);
            InterpStats st = runOnHardware(b.gen, b.adg, cfg, ts);
            std::uint64_t out = fnv1a(ts[w.outputTensor()]);
            char row[192];
            std::snprintf(row, sizeof(row),
                          "{\"%s\", %d, %" PRId64 ", %" PRId64
                          ", %" PRId64 ", %" PRId64 ", 0x%016" PRIx64
                          "ull},",
                          b.design.name.c_str(), cfg,
                          std::int64_t(st.cycles), std::int64_t(st.reads),
                          std::int64_t(st.writes),
                          std::int64_t(st.pipelineDepth), out);
            EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, cfg,
                                               kInterpSeed))
                << row;
            ASSERT_LT(row_idx, std::size(kInterpGolden)) << row;
            const InterpGolden &g = kInterpGolden[row_idx++];
            EXPECT_EQ(b.design.name, g.name) << row;
            EXPECT_EQ(cfg, g.cfg) << row;
            EXPECT_EQ(st.cycles, g.cycles) << row;
            EXPECT_EQ(st.reads, g.reads) << row;
            EXPECT_EQ(st.writes, g.writes) << row;
            EXPECT_EQ(st.pipelineDepth, g.pipelineDepth) << row;
            EXPECT_EQ(out, g.outDigest) << row;
        }
    }
    EXPECT_EQ(row_idx, std::size(kInterpGolden));
}

} // namespace
} // namespace lego

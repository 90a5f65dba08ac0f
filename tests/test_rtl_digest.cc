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
 * GEMM (ij broadcast, kj broadcast, ik systolic) at p = 2 and p = 4,
 * and a 16x16 GEMM-IJ.
 *
 * Regenerating: run test_rtl_digest; every mismatch prints the
 * actual row in the table's format, ready to paste into kGolden.
 * Regenerating is a deliberate RTL change and must be called out as
 * one.
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
    {"GEMM-IJ-16x16", 11667, 0xcd9f922b3d5ef3d6ull},
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
    NamedDesign big;
    big.name = "GEMM-IJ-16x16";
    Workload w = makeGemm(32, 32, 32);
    addConfig(big, w,
              makeSimpleSpec(w, "ij", {{"i", 16}, {"j", 16}}, false));
    out.push_back(std::move(big));
    return out;
}

TEST(RtlDigest, MatchesGolden)
{
    std::vector<NamedDesign> designs = digestDesigns();
    ASSERT_EQ(designs.size(), std::size(kGolden));
    for (size_t i = 0; i < designs.size(); i++) {
        CodegenResult gen;
        BackendReport rep = buildDesign(designs[i], &gen);
        std::uint64_t digest = fnv1a(emitVerilog(gen, "t"));
        char row[128];
        std::snprintf(row, sizeof(row), "{\"%s\", %" PRId64
                      ", 0x%016" PRIx64 "ull},",
                      designs[i].name.c_str(),
                      std::int64_t(rep.matchStats.insertedRegBits),
                      digest);
        EXPECT_EQ(designs[i].name, kGolden[i].name) << row;
        EXPECT_EQ(rep.matchStats.insertedRegBits,
                  kGolden[i].insertedRegBits) << row;
        EXPECT_EQ(digest, kGolden[i].digest) << row;
    }
}

} // namespace
} // namespace lego

/**
 * @file
 * Cross-cutting property suites (TEST_P sweeps) over randomized
 * workload shapes and dataflow choices:
 *
 *  - banking is conflict-free at every timestamp for the data nodes
 *    the spanning selection produces (Eq. 8);
 *  - every FU always has exactly one valid producer per operand;
 *  - causality: every planned connection has non-negative delay;
 *  - the fully-optimized generated design stays bit-exact for conv
 *    and MTTKRP shape sweeps, and for one 32x32 GEMM.
 */

#include <gtest/gtest.h>

#include "lego.hh"

namespace lego
{
namespace
{

struct Shape
{
    Int a, b, c;
    int pr, pc;
    bool systolic;
};

Shape
shapeFor(int seed)
{
    Shape s;
    s.a = 4 + (seed % 3) * 4;       // 4, 8, 12.
    s.b = 8;
    s.c = 4 + (seed / 3 % 2) * 4;   // 4, 8.
    s.pr = 2 + (seed % 2) * 2;      // 2, 4.
    s.pc = 2;
    s.systolic = (seed / 2) % 2;
    return s;
}

class GemmProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(GemmProperty, BankingConflictFree)
{
    Shape s = shapeFor(GetParam());
    Workload w = makeGemm(s.a * s.pr, s.b * s.pc, s.c);
    DataflowSpec spec = makeSimpleSpec(
        w, "p", {{"i", s.pr}, {"j", s.pc}}, s.systolic);
    DataflowMapping map = buildDataflow(w, spec);
    for (int t = 0; t < int(w.tensors.size()); t++) {
        SpanningResult sr = buildSpanning(w, t, map);
        TensorBanking tb = analyzeBanking(w, t, map, sr.dataNodes);
        EXPECT_TRUE(
            bankingConflictFree(w, t, map, sr.dataNodes, tb))
            << "tensor " << w.tensors[size_t(t)].name << " seed "
            << GetParam();
    }
}

TEST_P(GemmProperty, EveryFuHasOneProducer)
{
    Shape s = shapeFor(GetParam());
    Workload w = makeGemm(s.a * s.pr, s.b * s.pc, s.c);
    DataflowSpec spec = makeSimpleSpec(
        w, "p", {{"j", s.pr}, {"k", s.pc}}, s.systolic);
    DataflowMapping map = buildDataflow(w, spec);
    for (int t = 0; t < int(w.tensors.size()); t++) {
        SpanningResult sr = buildSpanning(w, t, map);
        int covered = 0;
        for (const FuLink &l : sr.links)
            covered += (l.kind == FuLink::Kind::Memory ||
                        l.peer >= 0);
        EXPECT_EQ(covered, int(map.numFUs()));
        // Causality: all planned hops have non-negative delay.
        for (const FuLink &l : sr.links)
            EXPECT_GE(l.depth, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GemmProperty,
                         ::testing::Range(0, 12));

class ConvProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ConvProperty, OptimizedConvBitExact)
{
    int seed = GetParam();
    Int kh = 2 + (seed % 2);         // 2 or 3.
    Int ohw = 4;
    Int ch = 2 + (seed / 2 % 2) * 2; // 2 or 4.
    Workload w = makeConv2d(1, ch, ch, ohw, ohw, kh, kh);
    std::vector<LoopSpec> spatial;
    if (seed % 3 == 0)
        spatial = {{"ic", ch}, {"oc", ch}};
    else if (seed % 3 == 1)
        spatial = {{"oh", 2}, {"ow", 2}};
    else
        spatial = {{"ow", 2}, {"oc", ch}};
    DataflowSpec spec = makeSimpleSpec(
        w, "sweep" + std::to_string(seed), spatial, false);
    Adg adg = generateArchitecture({{&w, buildDataflow(w, spec)}});
    CodegenResult gen = codegen(adg);
    runBackend(gen);
    EXPECT_TRUE(verifyAgainstReference(gen, adg, 0,
                                       unsigned(500 + seed)))
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvProperty,
                         ::testing::Range(0, 9));

class MttkrpProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MttkrpProperty, OptimizedMttkrpBitExact)
{
    int seed = GetParam();
    Int d = 4 + (seed % 2) * 4;
    Workload w = makeMttkrp(d, d, 4, 4);
    std::vector<LoopSpec> spatial =
        seed % 2 ? std::vector<LoopSpec>{{"k", 2}, {"l", 2}}
                 : std::vector<LoopSpec>{{"i", 2}, {"j", 2}};
    DataflowSpec spec = makeSimpleSpec(
        w, "mt" + std::to_string(seed), spatial, false);
    Adg adg = generateArchitecture({{&w, buildDataflow(w, spec)}});
    CodegenResult gen = codegen(adg);
    runBackend(gen);
    EXPECT_TRUE(verifyAgainstReference(gen, adg, 0,
                                       unsigned(900 + seed)))
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MttkrpProperty,
                         ::testing::Range(0, 6));

TEST(Property, DelayMatchingIdempotent)
{
    Workload w = makeGemm(8, 8, 8);
    DataflowSpec spec =
        makeSimpleSpec(w, "kj", {{"k", 4}, {"j", 2}}, true);
    Adg adg = generateArchitecture({{&w, buildDataflow(w, spec)}});
    CodegenResult gen = codegen(adg);
    DelayMatchStats s1 = runDelayMatching(gen.dag);
    DelayMatchStats s2 = runDelayMatching(gen.dag);
    EXPECT_EQ(s1.insertedRegBits, s2.insertedRegBits);
    EXPECT_TRUE(delaysMatched(gen.dag));
}

TEST(Property, Gemm32x32BitExact)
{
    Workload w = makeGemm(64, 64, 32);
    DataflowSpec spec =
        makeSimpleSpec(w, "ij", {{"i", 32}, {"j", 32}}, false);
    Adg adg = generateArchitecture({{&w, buildDataflow(w, spec)}});
    CodegenResult gen = codegen(adg);
    runBackend(gen);
    EXPECT_TRUE(delaysMatched(gen.dag));
    InterpStats st;
    EXPECT_TRUE(verifyAgainstReference(gen, adg, 0, 3232, &st));
    EXPECT_EQ(st.writes, w.iterationCount());
}

TEST(Property, VerilogStableAcrossRuns)
{
    Workload w = makeGemm(8, 8, 8);
    DataflowSpec spec =
        makeSimpleSpec(w, "ij", {{"i", 2}, {"j", 2}}, false);
    auto build = [&]() {
        Adg adg =
            generateArchitecture({{&w, buildDataflow(w, spec)}});
        CodegenResult gen = codegen(adg);
        runBackend(gen);
        return emitVerilog(gen, "stable");
    };
    // Determinism: identical inputs emit identical netlists.
    EXPECT_EQ(build(), build());
}

} // namespace
} // namespace lego

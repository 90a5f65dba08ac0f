/**
 * @file
 * Back-end integration tests: every generated design is lowered to
 * the primitive DAG, delay-matched with the LP, and executed by the
 * cycle-accurate interpreter; its output tensor must be bit-identical
 * to the golden loop-nest executor. This is the repository's
 * substitute for the paper's RTL-simulation cross-check.
 */

#include <gtest/gtest.h>

#include "backend/codegen.hh"
#include "backend/delay_match.hh"
#include "backend/interp.hh"
#include "frontend/frontend.hh"

namespace lego
{
namespace
{

/** Generate, lower and delay-match a set of configs. */
struct Built
{
    Adg adg;
    CodegenResult gen;
    DelayMatchStats dm;
};

Built
buildAll(std::vector<FusedConfig> cfgs, FrontendOptions fopt = {})
{
    Built b;
    b.adg = generateArchitecture(std::move(cfgs), fopt);
    b.gen = codegen(b.adg);
    b.dm = runDelayMatching(b.gen.dag);
    b.gen.dag.validate();
    return b;
}

TEST(Backend, GemmSystolicMatchesReference)
{
    Workload w = makeGemm(8, 6, 8);
    DataflowSpec spec;
    spec.name = "gemm_kj_systolic";
    spec.temporal = {{"i", 2}, {"j", 3}, {"k", 4}, {"i", 4}};
    spec.spatial = {{"k", 2}, {"j", 2}};
    spec.cflow = {1, 1};
    Built b = buildAll({{&w, buildDataflow(w, spec)}});

    EXPECT_TRUE(delaysMatched(b.gen.dag));
    InterpStats st;
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 11, &st));
    EXPECT_GT(st.writes, 0);
}

TEST(Backend, GemmBroadcastMatchesReference)
{
    Workload w = makeGemm(8, 8, 8);
    DataflowSpec spec =
        makeSimpleSpec(w, "gemm_ij", {{"i", 4}, {"j", 4}}, false);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 3));
}

TEST(Backend, GemmKjBroadcastSpatialReduction)
{
    // k parallel with c = 0: psums reduce combinationally along k —
    // the adder-chain case that reduction extraction later collapses.
    Workload w = makeGemm(4, 4, 8);
    DataflowSpec spec =
        makeSimpleSpec(w, "gemm_kj_bcast", {{"k", 4}, {"j", 2}}, false);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 5));
}

TEST(Backend, ConvIcocMatchesReference)
{
    Workload w = makeConv2d(1, 4, 4, 4, 4, 3, 3);
    DataflowSpec spec =
        makeSimpleSpec(w, "conv_icoc", {{"ic", 2}, {"oc", 2}}, false);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 17));
}

TEST(Backend, ConvShiDianNaoSlidingWindow)
{
    // The hard case: OH-OW parallel with delay (FIFO) interconnects
    // and boundary fallback through the valid comparator.
    Workload w = makeConv2d(1, 2, 2, 4, 4, 3, 3);
    DataflowSpec spec;
    spec.name = "conv_ohow";
    spec.temporal = {{"n", 1}, {"ow", 2}, {"oh", 2}, {"oc", 2},
                     {"ic", 2}, {"kw", 3}, {"kh", 3}};
    spec.spatial = {{"ow", 2}, {"oh", 2}};
    spec.cflow = {0, 0};
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 23));
}

TEST(Backend, DepthwiseConvMatchesReference)
{
    Workload w = makeDepthwiseConv2d(1, 4, 4, 4, 3, 3);
    DataflowSpec spec =
        makeSimpleSpec(w, "dw_ohow", {{"oh", 2}, {"ow", 2}}, false);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 29));
}

TEST(Backend, MttkrpMatchesReference)
{
    Workload w = makeMttkrp(4, 4, 4, 4);
    DataflowSpec spec =
        makeSimpleSpec(w, "mttkrp_ij", {{"i", 2}, {"j", 2}}, false);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 31));
}

TEST(Backend, AttentionScoreMatchesReference)
{
    Workload w = makeAttentionScore(8, 8);
    DataflowSpec spec =
        makeSimpleSpec(w, "attn_ij", {{"i", 2}, {"j", 2}}, false);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 37));
}

TEST(Backend, BitFusionGemmMatchesReference)
{
    Workload w = makeBitFusionGemm(4, 4, 4);
    DataflowSpec spec =
        makeSimpleSpec(w, "bf_ij", {{"i", 2}, {"j", 2}}, false);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 41));
}

TEST(Backend, FusedDesignBothConfigsCorrect)
{
    // One hardware design executing both GEMM-KJ systolic and
    // GEMM-IJ broadcast: the Table V scenario in miniature.
    Workload w1 = makeGemm(8, 6, 8);
    DataflowSpec kj;
    kj.name = "kj_systolic";
    kj.temporal = {{"i", 2}, {"j", 3}, {"k", 4}, {"i", 4}};
    kj.spatial = {{"k", 2}, {"j", 2}};
    kj.cflow = {1, 1};
    Workload w2 = makeGemm(8, 6, 8);
    DataflowSpec ij;
    ij.name = "ij_bcast";
    ij.temporal = {{"k", 8}, {"i", 4}, {"j", 3}};
    ij.spatial = {{"i", 2}, {"j", 2}};
    ij.cflow = {0, 0};

    Built b = buildAll({{&w1, buildDataflow(w1, kj)},
                        {&w2, buildDataflow(w2, ij)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 43));
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 1, 43));
}

TEST(Backend, FusedThreeConfigGemmDelaysMatched)
{
    // ij broadcast, kj broadcast and ik systolic on one array. In the
    // ij config an operand mux selects only a constant; the checker
    // must treat it as timing-free, not as arriving at cycle 0.
    for (Int p : {2, 4}) {
        Workload w1 = makeGemm(8, 8, 8), w2 = w1, w3 = w1;
        Built b = buildAll(
            {{&w1, buildDataflow(w1, makeSimpleSpec(
                                         w1, "ij", {{"i", p}, {"j", p}},
                                         false))},
             {&w2, buildDataflow(w2, makeSimpleSpec(
                                         w2, "kj", {{"k", p}, {"j", p}},
                                         false))},
             {&w3, buildDataflow(w3, makeSimpleSpec(
                                         w3, "ik", {{"i", p}, {"k", p}},
                                         true))}});
        EXPECT_TRUE(delaysMatched(b.gen.dag)) << "p=" << p;
        for (int c = 0; c < 3; c++)
            EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, c, 53))
                << "p=" << p << " config " << c;
    }
}

TEST(Backend, FusedConvGemmSharedArray)
{
    // Cross-workload fusion: Conv2D (ICOC) and GEMM (KJ) on one
    // 2x2 array — the foundation-model scenario of the paper intro.
    Workload conv = makeConv2d(1, 4, 4, 2, 2, 3, 3);
    DataflowSpec cs =
        makeSimpleSpec(conv, "conv_icoc", {{"ic", 2}, {"oc", 2}},
                       false);
    Workload gemm = makeGemm(4, 4, 8);
    DataflowSpec gs =
        makeSimpleSpec(gemm, "gemm_kj", {{"k", 2}, {"j", 2}}, false);

    Built b = buildAll({{&conv, buildDataflow(conv, cs)},
                        {&gemm, buildDataflow(gemm, gs)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0, 47));
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 1, 47));
}

TEST(Backend, DelayMatchingInsertsAddrAlignment)
{
    // The write-address path (latency 0) must be padded to match the
    // data path (memread 1 + mul 1): at least 2 registers somewhere.
    Workload w = makeGemm(4, 4, 4);
    DataflowSpec spec =
        makeSimpleSpec(w, "gemm_ij", {{"i", 2}, {"j", 2}}, false);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_GE(b.dm.insertedRegs, 2);
    EXPECT_TRUE(delaysMatched(b.gen.dag));
}

TEST(Backend, DagStructureSane)
{
    Workload w = makeGemm(4, 4, 4);
    DataflowSpec spec =
        makeSimpleSpec(w, "gemm_ij", {{"i", 2}, {"j", 2}}, false);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    const Dag &dag = b.gen.dag;
    // One counter; exactly one mul per FU; every FU has a psum node.
    EXPECT_EQ(dag.nodesOf(PrimOp::Counter).size(), 1u);
    EXPECT_EQ(dag.nodesOf(PrimOp::Mul).size(), 4u);
    for (int fu = 0; fu < 4; fu++)
        EXPECT_GE(b.gen.psum[size_t(fu)], 0);
    EXPECT_GT(dag.registerBits(), 0);
}

/** Property sweep: random shapes/dataflows stay bit-exact. */
class BackendRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(BackendRandom, GemmShapesAndDataflows)
{
    int seed = GetParam();
    // Derive a small shape/dataflow mix from the seed.
    Int i = 2 + (seed % 3) * 2;        // 2, 4, 6.
    Int j = 4 + (seed / 3 % 2) * 4;    // 4, 8.
    Int k = 4;
    Workload w = makeGemm(i, j, k);
    std::vector<LoopSpec> spatial;
    bool systolic = seed % 2;
    switch (seed % 3) {
      case 0:
        spatial = {{"i", 2}, {"j", 2}};
        break;
      case 1:
        spatial = {{"k", 2}, {"j", 2}};
        break;
      default:
        spatial = {{"i", 2}, {"k", 2}};
        break;
    }
    DataflowSpec spec = makeSimpleSpec(
        w, "rand" + std::to_string(seed), spatial, systolic);
    Built b = buildAll({{&w, buildDataflow(w, spec)}});
    EXPECT_TRUE(verifyAgainstReference(b.gen, b.adg, 0,
                                       unsigned(100 + seed)))
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BackendRandom, ::testing::Range(0, 12));

} // namespace
} // namespace lego

/**
 * @file
 * Unit tests for the LP suite: dense simplex, min-cost flow, the
 * difference-constraint LP (delay matching core), and the 0-1 ILP.
 * The difference-constraint solver is cross-checked against the dense
 * simplex on randomized instances (TEST_P property sweep).
 */

#include <gtest/gtest.h>

#include <random>

#include "lp/diffcon.hh"
#include "lp/ilp.hh"
#include "lp/netflow.hh"
#include "lp/simplex.hh"

namespace lego
{
namespace
{

TEST(Simplex, BasicMaximizationAsMin)
{
    // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  => x=4, y=0, z=12.
    LinearProgram lp(2);
    lp.setObjective(0, -3);
    lp.setObjective(1, -2);
    lp.addRow({1, 1}, RowSense::LE, 4);
    lp.addRow({1, 3}, RowSense::LE, 6);
    ASSERT_EQ(lp.solve(), LpStatus::Optimal);
    EXPECT_NEAR(lp.objective(), -12.0, 1e-6);
    EXPECT_NEAR(lp.value(0), 4.0, 1e-6);
    EXPECT_NEAR(lp.value(1), 0.0, 1e-6);
}

TEST(Simplex, Equalities)
{
    // min x + y s.t. x + 2y = 4, x >= 1 (as -x <= -1).
    LinearProgram lp(2);
    lp.setObjective(0, 1);
    lp.setObjective(1, 1);
    lp.addRow({1, 2}, RowSense::EQ, 4);
    lp.addRow({1, 0}, RowSense::GE, 1);
    ASSERT_EQ(lp.solve(), LpStatus::Optimal);
    EXPECT_NEAR(lp.objective(), 2.5, 1e-6); // x=1, y=1.5.
}

TEST(Simplex, Infeasible)
{
    LinearProgram lp(1);
    lp.addRow({1}, RowSense::GE, 2);
    lp.addRow({1}, RowSense::LE, 1);
    EXPECT_EQ(lp.solve(), LpStatus::Infeasible);
}

TEST(Simplex, Unbounded)
{
    LinearProgram lp(1);
    lp.setObjective(0, -1);
    lp.addRow({-1}, RowSense::LE, 0);
    EXPECT_EQ(lp.solve(), LpStatus::Unbounded);
}

TEST(MinCostFlow, SimpleTransshipment)
{
    // 0 -> 1 -> 2 with supplies 0:+2, 2:-2; costs 1 and 2.
    MinCostFlow mcf(3);
    int a01 = mcf.addArc(0, 1, 10, 1);
    int a12 = mcf.addArc(1, 2, 10, 2);
    mcf.setSupply(0, 2);
    mcf.setSupply(2, -2);
    ASSERT_TRUE(mcf.solve());
    EXPECT_EQ(mcf.totalCost(), 2 * 3);
    EXPECT_EQ(mcf.flowOn(a01), 2);
    EXPECT_EQ(mcf.flowOn(a12), 2);
}

TEST(MinCostFlow, PicksCheaperPath)
{
    MinCostFlow mcf(4);
    int cheap1 = mcf.addArc(0, 1, 5, 1);
    int cheap2 = mcf.addArc(1, 3, 5, 1);
    int costly = mcf.addArc(0, 3, 10, 10);
    mcf.setSupply(0, 7);
    mcf.setSupply(3, -7);
    ASSERT_TRUE(mcf.solve());
    EXPECT_EQ(mcf.flowOn(cheap1), 5);
    EXPECT_EQ(mcf.flowOn(cheap2), 5);
    EXPECT_EQ(mcf.flowOn(costly), 2);
    EXPECT_EQ(mcf.totalCost(), 5 * 2 + 2 * 10);
}

TEST(MinCostFlow, NegativeCosts)
{
    MinCostFlow mcf(3);
    mcf.addArc(0, 1, 4, -5);
    mcf.addArc(1, 2, 4, 2);
    mcf.setSupply(0, 3);
    mcf.setSupply(2, -3);
    ASSERT_TRUE(mcf.solve());
    EXPECT_EQ(mcf.totalCost(), 3 * (-5 + 2));
}

TEST(MinCostFlow, Infeasible)
{
    MinCostFlow mcf(2); // No arc between them.
    mcf.setSupply(0, 1);
    mcf.setSupply(1, -1);
    EXPECT_FALSE(mcf.solve());
}

TEST(DiffCon, ChainPrefersRegisterBeforeBroadcastWeights)
{
    // Classic delay-matching shape: u feeds v and w; v -> t, w -> t.
    // Latencies 1 everywhere; wide edge (weight 8) u->v, narrow edges
    // elsewhere. The solver must place slack on cheap edges.
    DiffConstraintLp lp(4);
    // D_v - D_u >= 1 (weight 8), D_w - D_u >= 3 (weight 1),
    // D_t - D_v >= 1 (weight 1), D_t - D_w >= 1 (weight 1).
    lp.addConstraint(0, 1, 1, 8);
    lp.addConstraint(0, 2, 3, 1);
    lp.addConstraint(1, 3, 1, 1);
    lp.addConstraint(2, 3, 1, 1);
    ASSERT_TRUE(lp.solve());
    // Optimal: D_u=0, D_v=1 or 3... The wide edge should carry zero
    // slack: D_v - D_u == 1.
    EXPECT_EQ(lp.value(1) - lp.value(0), 1);
    // All constraints hold.
    EXPECT_GE(lp.value(2) - lp.value(0), 3);
    EXPECT_GE(lp.value(3) - lp.value(1), 1);
    EXPECT_GE(lp.value(3) - lp.value(2), 1);
    // Total = w*slack: slack on u->v must be 0, on the two joins the
    // path imbalance (3+1 vs 1+1 = 2) costs 2 on the v->t edge.
    EXPECT_EQ(lp.objective(), 2);
}

TEST(DiffCon, SlackQuery)
{
    DiffConstraintLp lp(2);
    int c = lp.addConstraint(0, 1, 5, 1);
    ASSERT_TRUE(lp.solve());
    EXPECT_EQ(lp.slack(c), 0);
    EXPECT_EQ(lp.value(1) - lp.value(0), 5);
}

/** Parameterized cross-check of DiffConstraintLp vs dense simplex. */
class DiffConRandom : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DiffConRandom, MatchesDenseSimplex)
{
    std::mt19937 rng(GetParam());
    const int n = 6;
    std::uniform_int_distribution<int> node(0, n - 1);
    std::uniform_int_distribution<Int> lat(0, 4);
    std::uniform_int_distribution<Int> wgt(1, 8);

    // Random DAG edges u < v to guarantee feasibility/boundedness.
    struct E { int u, v; Int l, w; };
    std::vector<E> edges;
    for (int trial = 0; trial < 10; trial++) {
        int u = node(rng), v = node(rng);
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        edges.push_back({u, v, lat(rng), wgt(rng)});
    }
    if (edges.empty())
        return;

    DiffConstraintLp dlp(n);
    for (const auto &e : edges)
        dlp.addConstraint(e.u, e.v, e.l, e.w);
    ASSERT_TRUE(dlp.solve());

    // Dense LP over slack variables: D_v in [0, M] via shift trick:
    // variables x_v >= 0 represent D_v; min sum w(x_v - x_u - l).
    LinearProgram lp(n);
    std::vector<double> c(n, 0.0);
    double constant = 0.0;
    for (const auto &e : edges) {
        c[size_t(e.v)] += double(e.w);
        c[size_t(e.u)] -= double(e.w);
        constant += double(e.w) * double(e.l);
        lp.addRowSparse({{e.v, 1.0}, {e.u, -1.0}}, RowSense::GE,
                        double(e.l));
    }
    for (int j = 0; j < n; j++)
        lp.setObjective(j, c[size_t(j)]);
    ASSERT_EQ(lp.solve(), LpStatus::Optimal);
    EXPECT_NEAR(lp.objective() - constant, double(dlp.objective()), 1e-6)
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffConRandom,
                         ::testing::Range(0u, 24u));

/**
 * Rewire-shaped instances, built the way rewireBroadcasts stage 1
 * builds its LP: every node with two or more out-edges is a broadcast
 * star whose edges carry weight 0; a virtual max-node M per star has
 * M - D_dst >= -latency(dst) at weight 0 for each destination, and
 * the star's width is paid once on M - D_src. Zero weights make the
 * flow phases degenerate, which the small sweep above never hits.
 */
class DiffConRewireRandom : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DiffConRewireRandom, MatchesDenseSimplex)
{
    std::mt19937 rng(GetParam());
    const int n = 24;
    std::uniform_int_distribution<int> node(0, n - 1);
    std::uniform_int_distribution<Int> lat(0, 2);
    std::uniform_int_distribution<Int> wid(1, 16);

    std::vector<Int> latency(size_t(n), 0);
    for (Int &l : latency)
        l = lat(rng);
    struct E { int u, v; Int width; };
    std::vector<E> edges;
    std::vector<int> outDeg(size_t(n), 0);
    for (int trial = 0; trial < 36; trial++) {
        int u = node(rng), v = node(rng);
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        edges.push_back({u, v, wid(rng)});
        outDeg[size_t(u)]++;
    }

    struct C { int u, v; Int l, w; };
    std::vector<C> cons;
    for (const E &e : edges)
        cons.push_back({e.u, e.v, latency[size_t(e.v)],
                        outDeg[size_t(e.u)] >= 2 ? 0 : e.width});
    int vars = n;
    for (int s = 0; s < n; s++) {
        if (outDeg[size_t(s)] < 2)
            continue;
        int m = vars++;
        Int width = 0;
        for (const E &e : edges) {
            if (e.u != s)
                continue;
            cons.push_back({e.v, m, -latency[size_t(e.v)], 0});
            width = std::max(width, e.width);
        }
        cons.push_back({s, m, 0, width});
    }
    ASSERT_GE(vars, 30) << "seed " << GetParam();

    DiffConstraintLp dlp(n);
    while (dlp.numVars() < vars)
        dlp.addVar();
    for (const C &c : cons)
        dlp.addConstraint(c.u, c.v, c.l, c.w);
    ASSERT_TRUE(dlp.solve());
    for (const C &c : cons)
        EXPECT_GE(dlp.value(c.v) - dlp.value(c.u), c.l)
            << "seed " << GetParam();

    LinearProgram lp(vars);
    std::vector<double> obj(size_t(vars), 0.0);
    double constant = 0.0;
    for (const C &c : cons) {
        obj[size_t(c.v)] += double(c.w);
        obj[size_t(c.u)] -= double(c.w);
        constant += double(c.w) * double(c.l);
        lp.addRowSparse({{c.v, 1.0}, {c.u, -1.0}}, RowSense::GE,
                        double(c.l));
    }
    for (int j = 0; j < vars; j++)
        lp.setObjective(j, obj[size_t(j)]);
    ASSERT_EQ(lp.solve(), LpStatus::Optimal);
    EXPECT_NEAR(lp.objective() - constant, double(dlp.objective()), 1e-6)
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffConRewireRandom,
                         ::testing::Range(0u, 24u));

TEST(BoolIlp, SetCover)
{
    // Cover {a,b,c} with sets {a,b}, {b,c}, {a,c}, each cost 1;
    // optimum = 2 sets.
    BoolIlp ilp(3);
    for (int j = 0; j < 3; j++)
        ilp.setObjective(j, 1.0);
    ilp.addRowSparse({{0, 1.0}, {2, 1.0}}, RowSense::GE, 1.0); // a.
    ilp.addRowSparse({{0, 1.0}, {1, 1.0}}, RowSense::GE, 1.0); // b.
    ilp.addRowSparse({{1, 1.0}, {2, 1.0}}, RowSense::GE, 1.0); // c.
    auto x = ilp.solve();
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR(ilp.objective(), 2.0, 1e-6);
}

TEST(BoolIlp, Infeasible)
{
    BoolIlp ilp(2);
    ilp.addRowSparse({{0, 1.0}, {1, 1.0}}, RowSense::GE, 3.0);
    EXPECT_FALSE(ilp.solve().has_value());
}

TEST(BoolIlp, AssignmentShape)
{
    // 2 items, 2 slots; forbid item0->slot0. min total assignments
    // with every item assigned once.
    // Vars: x(i,j) = i*2+j.
    BoolIlp ilp(4);
    for (int j = 0; j < 4; j++)
        ilp.setObjective(j, 1.0);
    ilp.addRowSparse({{0, 1.0}}, RowSense::EQ, 0.0);
    ilp.addRowSparse({{0, 1.0}, {1, 1.0}}, RowSense::EQ, 1.0);
    ilp.addRowSparse({{2, 1.0}, {3, 1.0}}, RowSense::EQ, 1.0);
    // Slot capacity 1.
    ilp.addRowSparse({{0, 1.0}, {2, 1.0}}, RowSense::LE, 1.0);
    ilp.addRowSparse({{1, 1.0}, {3, 1.0}}, RowSense::LE, 1.0);
    auto x = ilp.solve();
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ((*x)[1], 1); // item0 -> slot1.
    EXPECT_EQ((*x)[2], 1); // item1 -> slot0.
}

} // namespace
} // namespace lego

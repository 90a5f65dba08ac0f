/**
 * @file
 * Unit tests for the LP suite: dense simplex, min-cost flow, the
 * difference-constraint LP (delay matching core), and the 0-1 ILP.
 * The difference-constraint solver is cross-checked against the dense
 * simplex on randomized instances (TEST_P property sweep), and
 * MinCostFlow's dual against a textbook successive-shortest-paths
 * reference.
 */

#include <gtest/gtest.h>

#include <limits>
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

/** A min-cost-flow instance, fed identically to both solvers. */
struct FlowInstance
{
    struct Arc { int u, v; Int cap, cost; };
    int n = 0;
    std::vector<Arc> arcs;
    std::vector<Int> supply;
};

/**
 * The dual transshipment DiffConstraintLp::solve builds for
 * D_v - D_u >= lower at weight w: arc u -> v of cost -lower and
 * capacity 1 + sum(w), supply -(w in - w out) per node.
 */
struct DiffConShape
{
    struct Con { int u, v; Int lower, weight; };
    int n = 0;
    std::vector<Con> cons;

    FlowInstance
    flow() const
    {
        FlowInstance fi;
        fi.n = n;
        fi.supply.assign(size_t(n), 0);
        Int cap = 1;
        for (const Con &c : cons) {
            fi.supply[size_t(c.v)] -= c.weight;
            fi.supply[size_t(c.u)] += c.weight;
            cap += c.weight;
        }
        for (const Con &c : cons)
            fi.arcs.push_back({c.u, c.v, cap, -c.lower});
        return fi;
    }
};

/**
 * Rewire-shaped instances, built the way rewireBroadcasts stage 1
 * builds its LP: every node with two or more out-edges is a broadcast
 * star whose edges carry weight 0; a virtual max-node M per star has
 * M - D_dst >= -latency(dst) at weight 0 for each destination, and
 * the star's width is paid once on M - D_src. Zero weights make the
 * flow phases degenerate, which the small sweep above never hits.
 */
DiffConShape
rewireShape(std::mt19937 &rng, int n, int trials)
{
    std::uniform_int_distribution<int> node(0, n - 1);
    std::uniform_int_distribution<Int> lat(0, 2);
    std::uniform_int_distribution<Int> wid(1, 16);

    std::vector<Int> latency(size_t(n), 0);
    for (Int &l : latency)
        l = lat(rng);
    struct E { int u, v; Int width; };
    std::vector<E> edges;
    std::vector<int> outDeg(size_t(n), 0);
    for (int trial = 0; trial < trials; trial++) {
        int u = node(rng), v = node(rng);
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        edges.push_back({u, v, wid(rng)});
        outDeg[size_t(u)]++;
    }

    DiffConShape s;
    s.n = n;
    for (const E &e : edges)
        s.cons.push_back({e.u, e.v, latency[size_t(e.v)],
                          outDeg[size_t(e.u)] >= 2 ? 0 : e.width});
    for (int src = 0; src < n; src++) {
        if (outDeg[size_t(src)] < 2)
            continue;
        int m = s.n++;
        Int width = 0;
        for (const E &e : edges) {
            if (e.u != src)
                continue;
            s.cons.push_back({e.v, m, -latency[size_t(e.v)], 0});
            width = std::max(width, e.width);
        }
        s.cons.push_back({src, m, 0, width});
    }
    return s;
}

class DiffConRewireRandom : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DiffConRewireRandom, MatchesDenseSimplex)
{
    std::mt19937 rng(GetParam());
    const int n = 24;
    const DiffConShape shape = rewireShape(rng, n, 36);
    const int vars = shape.n;
    ASSERT_GE(vars, 30) << "seed " << GetParam();

    DiffConstraintLp dlp(n);
    while (dlp.numVars() < vars)
        dlp.addVar();
    for (const DiffConShape::Con &c : shape.cons)
        dlp.addConstraint(c.u, c.v, c.lower, c.weight);
    ASSERT_TRUE(dlp.solve());
    for (const DiffConShape::Con &c : shape.cons)
        EXPECT_GE(dlp.value(c.v) - dlp.value(c.u), c.lower)
            << "seed " << GetParam();

    LinearProgram lp(vars);
    std::vector<double> obj(size_t(vars), 0.0);
    double constant = 0.0;
    for (const DiffConShape::Con &c : shape.cons) {
        obj[size_t(c.v)] += double(c.weight);
        obj[size_t(c.u)] -= double(c.weight);
        constant += double(c.weight) * double(c.lower);
        lp.addRowSparse({{c.v, 1.0}, {c.u, -1.0}}, RowSense::GE,
                        double(c.lower));
    }
    for (int j = 0; j < vars; j++)
        lp.setObjective(j, obj[size_t(j)]);
    ASSERT_EQ(lp.solve(), LpStatus::Optimal);
    EXPECT_NEAR(lp.objective() - constant, double(dlp.objective()), 1e-6)
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffConRewireRandom,
                         ::testing::Range(0u, 24u));

/**
 * Textbook successive shortest paths, independent of MinCostFlow: the
 * same virtual-source Bellman-Ford start, then one full Dijkstra per
 * augmenting path with the same capped update
 * pi += min(dist, dist[sink]). MinCostFlow saturates each admissible
 * subgraph with its own maximum flow instead, and must still return
 * exactly this dual.
 */
class SspReference
{
  public:
    explicit SspReference(int num_nodes)
        : n_(num_nodes + 2), adj_(size_t(n_)), supply_(size_t(n_), 0),
          pi_(size_t(n_), 0)
    {
    }

    void
    addArc(int u, int v, Int cap, Int cost)
    {
        adj_[size_t(u)].push_back({v, cap, cost, adj_[size_t(v)].size()});
        adj_[size_t(v)].push_back(
            {u, 0, -cost, adj_[size_t(u)].size() - 1});
    }

    void setSupply(int v, Int s) { supply_[size_t(v)] = s; }

    bool
    solve()
    {
        const int src = n_ - 2, dst = n_ - 1;
        Int total = 0;
        for (int v = 0; v < src; v++) {
            if (supply_[size_t(v)] > 0) {
                addArc(src, v, supply_[size_t(v)], 0);
                total += supply_[size_t(v)];
            } else if (supply_[size_t(v)] < 0) {
                addArc(v, dst, -supply_[size_t(v)], 0);
            }
        }
        // Bellman-Ford from a virtual source joined to every node at 0.
        for (int round = 0; round < n_; round++)
            for (int u = 0; u < n_; u++)
                for (const Arc &a : adj_[size_t(u)])
                    if (a.cap > 0)
                        pi_[size_t(a.to)] = std::min(
                            pi_[size_t(a.to)], pi_[size_t(u)] + a.cost);
        for (Int shipped = 0; shipped < total;) {
            if (!dijkstra(src, dst))
                return false;
            Int push = total - shipped;
            for (int v = dst; v != src; v = parent_[size_t(v)])
                push = std::min(push, arcInto(v).cap);
            for (int v = dst; v != src; v = parent_[size_t(v)]) {
                Arc &a = arcInto(v);
                a.cap -= push;
                adj_[size_t(v)][a.rev].cap += push;
                cost_ += push * a.cost;
            }
            shipped += push;
        }
        return true;
    }

    Int potential(int v) const { return pi_[size_t(v)]; }
    Int totalCost() const { return cost_; }

  private:
    static constexpr Int kInf = std::numeric_limits<Int>::max() / 4;

    struct Arc
    {
        int to;
        Int cap;
        Int cost;
        size_t rev;
    };

    /** O(n^2) Dijkstra on reduced costs; fills the shortest-path tree. */
    bool
    dijkstra(int src, int dst)
    {
        std::vector<Int> dist(size_t(n_), kInf);
        std::vector<char> done(size_t(n_), 0);
        parent_.assign(size_t(n_), -1);
        parentArc_.assign(size_t(n_), 0);
        dist[size_t(src)] = 0;
        for (;;) {
            int u = -1;
            for (int v = 0; v < n_; v++)
                if (!done[size_t(v)] && dist[size_t(v)] < kInf &&
                    (u < 0 || dist[size_t(v)] < dist[size_t(u)]))
                    u = v;
            if (u < 0)
                break;
            done[size_t(u)] = 1;
            for (size_t k = 0; k < adj_[size_t(u)].size(); k++) {
                const Arc &a = adj_[size_t(u)][k];
                Int nd = dist[size_t(u)] + a.cost + pi_[size_t(u)] -
                         pi_[size_t(a.to)];
                if (a.cap > 0 && nd < dist[size_t(a.to)]) {
                    dist[size_t(a.to)] = nd;
                    parent_[size_t(a.to)] = u;
                    parentArc_[size_t(a.to)] = k;
                }
            }
        }
        if (dist[size_t(dst)] >= kInf)
            return false;
        for (int v = 0; v < n_; v++)
            pi_[size_t(v)] += std::min(dist[size_t(v)], dist[size_t(dst)]);
        return true;
    }

    Arc &
    arcInto(int v)
    {
        return adj_[size_t(parent_[size_t(v)])][parentArc_[size_t(v)]];
    }

    int n_;
    std::vector<std::vector<Arc>> adj_;
    std::vector<Int> supply_, pi_;
    std::vector<int> parent_;
    std::vector<size_t> parentArc_;
    Int cost_ = 0;
};

/** A delay-matching-like DAG on nodes [base, base + n). */
void
addDagCons(DiffConShape &s, std::mt19937 &rng, int base, int n, int edges,
           Int max_weight)
{
    std::uniform_int_distribution<int> node(0, n - 1);
    std::uniform_int_distribution<Int> lat(0, 3), wgt(0, max_weight);
    for (int k = 0; k < edges; k++) {
        int u = node(rng), v = node(rng);
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        s.cons.push_back({base + u, base + v, lat(rng), wgt(rng)});
    }
}

/**
 * Five shapes, by seed % 5: a diffcon DAG; a rewire-shaped broadcast
 * graph (weight-0 star edges, one virtual max-node per star paying the
 * width once); disconnected components, one carrying no weight, plus
 * isolated nodes; a DAG with parallel constraints of different lower
 * bounds; and a capacitated graph with 0/1 costs, cycles and small
 * capacities, whose maximum flows must cancel flow on reverse arcs.
 * Every shape is feasible.
 */
FlowInstance
randomFlowInstance(unsigned seed)
{
    std::mt19937 rng(seed);
    DiffConShape s;
    switch (seed % 5) {
      case 0:
        s.n = 8 + int(rng() % 40);
        addDagCons(s, rng, 0, s.n, 3 * s.n, 8);
        return s.flow();
      case 1: {
        const int n = 16 + int(rng() % 24);
        return rewireShape(rng, n, 2 * n).flow();
      }
      case 2: {
        const int parts = 2 + int(rng() % 3);
        for (int p = 0; p < parts; p++) {
            const int n = 4 + int(rng() % 12);
            addDagCons(s, rng, s.n, n, 2 * n, p == 0 ? 0 : 6);
            s.n += n + int(rng() % 3); // Trailing isolated nodes.
        }
        return s.flow();
      }
      case 3: {
        s.n = 6 + int(rng() % 20);
        addDagCons(s, rng, 0, s.n, 2 * s.n, 5);
        std::uniform_int_distribution<Int> lat(-2, 4), wgt(0, 5);
        const size_t base = s.cons.size();
        for (size_t k = 0; k < base; k++)
            for (unsigned r = rng() % 3; r > 0; r--)
                s.cons.push_back({s.cons[k].u, s.cons[k].v, lat(rng),
                                  wgt(rng)});
        return s.flow();
      }
      default: {
        FlowInstance fi;
        fi.n = 6 + int(rng() % 14);
        std::uniform_int_distribution<int> node(0, fi.n - 1);
        std::uniform_int_distribution<Int> cap(1, 2), cost(0, 1);
        for (int k = 0; k < 4 * fi.n; k++) {
            int u = node(rng), v = node(rng);
            if (u != v)
                fi.arcs.push_back({u, v, cap(rng), cost(rng)});
        }
        // A dearer ring keeps every instance feasible.
        for (int v = 0; v < fi.n; v++)
            fi.arcs.push_back({v, (v + 1) % fi.n, Int(fi.n), 3});
        fi.supply.assign(size_t(fi.n), 0);
        for (int k = 0; k < fi.n; k++) {
            int u = node(rng), v = node(rng);
            fi.supply[size_t(u)]++;
            fi.supply[size_t(v)]--;
        }
        return fi;
      }
    }
}

class MinCostFlowSspDual : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MinCostFlowSspDual, MatchesTextbookSsp)
{
    const FlowInstance fi = randomFlowInstance(GetParam());
    MinCostFlow mcf(fi.n);
    SspReference ssp(fi.n);
    std::vector<int> ids;
    for (const FlowInstance::Arc &a : fi.arcs) {
        ids.push_back(mcf.addArc(a.u, a.v, a.cap, a.cost));
        ssp.addArc(a.u, a.v, a.cap, a.cost);
    }
    for (int v = 0; v < fi.n; v++) {
        mcf.setSupply(v, fi.supply[size_t(v)]);
        ssp.setSupply(v, fi.supply[size_t(v)]);
    }
    ASSERT_TRUE(ssp.solve());
    ASSERT_TRUE(mcf.solve());
    EXPECT_EQ(mcf.totalCost(), ssp.totalCost());
    for (int v = 0; v < fi.n; v++)
        EXPECT_EQ(mcf.potential(v), ssp.potential(v)) << "node " << v;

    std::vector<Int> net(size_t(fi.n), 0);
    Int cost = 0;
    for (size_t k = 0; k < fi.arcs.size(); k++) {
        const FlowInstance::Arc &a = fi.arcs[k];
        const Int f = mcf.flowOn(ids[k]);
        EXPECT_GE(f, 0);
        EXPECT_LE(f, a.cap);
        net[size_t(a.u)] += f;
        net[size_t(a.v)] -= f;
        cost += f * a.cost;
    }
    EXPECT_EQ(net, fi.supply);
    EXPECT_EQ(cost, mcf.totalCost());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCostFlowSspDual,
                         ::testing::Range(0u, 250u));

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

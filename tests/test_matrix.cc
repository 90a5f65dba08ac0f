/**
 * @file
 * Unit tests for exact matrix algebra and the bounded lattice solver.
 */

#include <gtest/gtest.h>

#include "core/lattice.hh"
#include "core/matrix.hh"

namespace lego
{
namespace
{

TEST(Frac, Arithmetic)
{
    Frac a(1, 2), b(1, 3);
    EXPECT_EQ((a + b), Frac(5, 6));
    EXPECT_EQ((a - b), Frac(1, 6));
    EXPECT_EQ((a * b), Frac(1, 6));
    EXPECT_EQ((a / b), Frac(3, 2));
    EXPECT_EQ(Frac(4, 2).asInt(), 2);
    EXPECT_TRUE(Frac(0, 5).isZero());
    EXPECT_EQ(Frac(-2, -4), Frac(1, 2));
    EXPECT_EQ(Frac(2, -4), Frac(-1, 2));
}

TEST(Frac, Ordering)
{
    EXPECT_LT(Frac(1, 3), Frac(1, 2));
    EXPECT_LT(Frac(-1, 2), Frac(0));
}

TEST(IntMat, MultiplyIdentity)
{
    IntMat a = {{1, 2}, {3, 4}};
    EXPECT_EQ(a * IntMat::identity(2), a);
    EXPECT_EQ(IntMat::identity(2) * a, a);
}

TEST(IntMat, MatVec)
{
    IntMat a = {{1, 0, 2}, {0, 3, 0}};
    IntVec v = {1, 2, 3};
    EXPECT_EQ(a * v, (IntVec{7, 6}));
}

TEST(IntMat, TransposeConcatSlice)
{
    IntMat a = {{1, 2}, {3, 4}};
    IntMat at = {{1, 3}, {2, 4}};
    EXPECT_EQ(a.transpose(), at);
    IntMat b = {{5}, {6}};
    IntMat ab = {{1, 2, 5}, {3, 4, 6}};
    EXPECT_EQ(a.hconcat(b), ab);
    EXPECT_EQ(ab.slice(2, 3), b);
    EXPECT_EQ(ab.slice(0, 2), a);
}

TEST(IntMat, Rank)
{
    EXPECT_EQ(IntMat::identity(3).rank(), 3);
    IntMat singular = {{1, 2}, {2, 4}};
    EXPECT_EQ(singular.rank(), 1);
    EXPECT_EQ(IntMat(2, 3).rank(), 0);
}

TEST(IntMat, NullspaceOfGemmXMapping)
{
    // GEMM tensor X = X[i,k]: rows select i and k; nullspace = span(j).
    IntMat mx = {{1, 0, 0}, {0, 0, 1}};
    auto ns = mx.nullspaceInt();
    ASSERT_EQ(ns.size(), 1u);
    EXPECT_EQ(ns[0], (IntVec{0, 1, 0}));
}

TEST(IntMat, NullspaceScaledToInteger)
{
    // x + 2y = 0 -> basis (2, -1) after integer scaling (primitive).
    IntMat m = {{1, 2}};
    auto ns = m.nullspaceInt();
    ASSERT_EQ(ns.size(), 1u);
    // basis vector v satisfies m*v = 0 and is primitive.
    EXPECT_EQ(m.at(0, 0) * ns[0][0] + m.at(0, 1) * ns[0][1], 0);
    EXPECT_EQ(content(ns[0]), 1);
}

TEST(IntMat, SolveConsistent)
{
    IntMat a = {{2, 1}, {1, -1}};
    auto x = a.solve({5, 1});
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ((*x)[0], Frac(2));
    EXPECT_EQ((*x)[1], Frac(1));
}

TEST(IntMat, SolveInconsistent)
{
    IntMat a = {{1, 1}, {2, 2}};
    EXPECT_FALSE(a.solve({1, 3}).has_value());
}

TEST(IntMat, SolveUnderdetermined)
{
    IntMat a = {{1, 1, 0}};
    auto x = a.solve({4});
    ASSERT_TRUE(x.has_value());
    // Verify a * x == b.
    Frac lhs = (*x)[0] + (*x)[1];
    EXPECT_EQ(lhs, Frac(4));
}

TEST(VecOps, Basics)
{
    EXPECT_EQ(dot({1, 2}, {3, 4}), 11);
    EXPECT_EQ(addVec({1, 2}, {3, 4}), (IntVec{4, 6}));
    EXPECT_EQ(subVec({1, 2}, {3, 4}), (IntVec{-2, -2}));
    EXPECT_EQ(scaleVec({1, -2}, 3), (IntVec{3, -6}));
    EXPECT_EQ(infNorm({1, -5, 2}), 5);
    EXPECT_TRUE(isZeroVec({0, 0}));
    EXPECT_FALSE(isZeroVec({0, 1}));
    EXPECT_EQ(content({6, -9}), 3);
    EXPECT_EQ(content({0, 0}), 0);
}

TEST(MixedRadix, Scalar)
{
    IntVec radix = {4, 3, 5};
    // Eq. 3: ((t0*3)+t1)*5+t2.
    EXPECT_EQ(mixedRadixScalar({1, 2, 3}, radix), (1 * 3 + 2) * 5 + 3);
}

TEST(Lattice, GemmTemporalReuseForX)
{
    // GEMM parallelizing (k, j), temporal loops [t1_i, t0_j, t0_k,
    // t0_i]. For tensor X (depends on i, k), a spatial step
    // ds = (0,-1) along j leaves the X index unchanged, so the
    // minimal positive-delay solution advances t0_j by one: the same
    // X element is needed again a full (R0_k * R0_i) cycles later.
    //
    // Setup: R1_i=2, R0_j=3, R0_k=4, R0_i=5; P_k=2, P_j=2.
    Int r0i = 5, pk = 2, pj = 2;
    IntMat mTI = {{r0i, 0, 0, 1},
                  {0, pj, 0, 0},
                  {0, 0, pk, 0}};
    IntMat mSI = {{0, 0}, {0, 1}, {1, 0}};
    IntMat mX = {{1, 0, 0}, {0, 0, 1}}; // X[i,k].

    IntMat a = mX * mTI;
    IntVec rhs = scaleVec(mX * (mSI * IntVec{0, -1}), -1);

    LatticeProblem p;
    p.a = a;
    p.rhs = rhs;
    p.radix = {2, 3, 4, 5};
    p.minScalar = 1;
    auto sol = solveBoundedLattice(p);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(sol->scalar, 4 * 5);
    EXPECT_EQ(sol->dt, (IntVec{0, 1, 0, 0}));
}

TEST(Lattice, ConvSlidingWindowDelay)
{
    // Fig. 4: Conv2D parallelizing (ow, oh) in ShiDianNao style.
    // Temporal loops [t_n, t_ow, t_oh, t_oc, t_ic, t_kw, t_kh],
    // spatial [s_ow, s_oh]. For tensor X (ih = oh + kh, iw = ow +
    // kw), the spatial step ds = (0,-1) (one row up) is compensated
    // by t_kh += 1 — the paper's delay solution dt = (0,...,0,1)
    // with exactly one cycle of delay.
    Int p_oh = 2, p_ow = 2;
    // iter dims order: n, oc, ic, oh, ow, kh, kw.
    IntMat mTI = {{1, 0, 0, 0, 0, 0, 0},
                  {0, 0, 0, 1, 0, 0, 0},
                  {0, 0, 0, 0, 1, 0, 0},
                  {0, 0, p_oh, 0, 0, 0, 0},
                  {0, p_ow, 0, 0, 0, 0, 0},
                  {0, 0, 0, 0, 0, 0, 1},
                  {0, 0, 0, 0, 0, 1, 0}};
    IntMat mSI = {{0, 0}, {0, 0}, {0, 0},
                  {0, 1}, {1, 0}, {0, 0}, {0, 0}};
    // X[n, ic, ih, iw] with ih = oh + kh, iw = ow + kw.
    IntMat mX = {{1, 0, 0, 0, 0, 0, 0},
                 {0, 0, 1, 0, 0, 0, 0},
                 {0, 0, 0, 1, 0, 1, 0},
                 {0, 0, 0, 0, 1, 0, 1}};

    IntMat a = mX * mTI;
    IntVec rhs = scaleVec(mX * (mSI * IntVec{0, -1}), -1);

    LatticeProblem p;
    p.a = a;
    p.rhs = rhs;
    p.radix = {1, 2, 2, 2, 2, 3, 3}; // Loop extents (kh=kw=3).
    p.minScalar = 1;
    auto sol = solveBoundedLattice(p);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(sol->scalar, 1);
    EXPECT_EQ(sol->dt, (IntVec{0, 0, 0, 0, 0, 0, 1}));
}

TEST(Lattice, InfeasibleSystem)
{
    // x = 1 and x = 2 simultaneously: inconsistent.
    IntMat a = {{1}, {1}};
    LatticeProblem p;
    p.a = a;
    p.rhs = {1, 2};
    p.radix = {10};
    EXPECT_FALSE(solveBoundedLattice(p).has_value());
}

TEST(Lattice, RespectsMinScalar)
{
    // Single unconstrained dim: any dt works; minimal scalar >= 2 is 2.
    IntMat a(0, 1); // No constraint rows.
    LatticeProblem p;
    p.a = a;
    p.rhs = {};
    p.radix = {10};
    p.minScalar = 2;
    auto sol = solveBoundedLattice(p);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(sol->scalar, 2);
}

TEST(Lattice, WindowBound)
{
    // dt must satisfy 3*dt = 12 -> dt = 4, but radix (window) is 4 so
    // |dt| < 4 fails.
    IntMat a = {{3}};
    LatticeProblem p;
    p.a = a;
    p.rhs = {12};
    p.radix = {4};
    EXPECT_FALSE(solveBoundedLattice(p).has_value());
    p.radix = {5};
    auto sol = solveBoundedLattice(p);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(sol->dt, (IntVec{4}));
}

} // namespace
} // namespace lego

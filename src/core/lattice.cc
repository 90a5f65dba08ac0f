#include "core/lattice.hh"

#include <algorithm>
#include <cmath>

namespace lego
{

Int
mixedRadixScalar(const IntVec &dt, const IntVec &radix)
{
    if (dt.size() != radix.size())
        panic("mixedRadixScalar: size mismatch");
    // Eq. 3: t = ((t0 * R1 + t1) * R2 + t2) ...
    Int s = 0;
    for (size_t i = 0; i < dt.size(); i++)
        s = s * radix[i] + dt[i];
    return s;
}

namespace
{

/**
 * Check the component bounds |dt_i| < radix[i]. A delta outside the
 * loop extent can never relate two states of the same loop nest.
 */
bool
inWindow(const IntVec &dt, const IntVec &radix)
{
    for (size_t i = 0; i < dt.size(); i++) {
        Int a = dt[i] < 0 ? -dt[i] : dt[i];
        if (a >= radix[i])
            return false;
    }
    return true;
}

} // namespace

std::optional<LatticeSolution>
solveBoundedLattice(const LatticeProblem &p)
{
    const int t_dims = p.a.cols();
    if (int(p.radix.size()) != t_dims)
        panic("solveBoundedLattice: radix size mismatch");

    IntMat::SolutionSpace space = p.a.solutionSpace(p.rhs);
    if (!space.consistent)
        return std::nullopt;

    const int k = int(space.freeCols.size());

    // Every integer solution assigns integer values to the free
    // variables, so enumerating free values inside the search window
    // covers the full coset. Free values are themselves components of
    // dt, so the effective window is min(searchBound, radix - 1).
    IntVec lo(size_t(k), 0), hi(size_t(k), 0);
    for (int j = 0; j < k; j++) {
        Int w = std::min<Int>(p.searchBound,
                              p.radix[size_t(space.freeCols[j])] - 1);
        lo[size_t(j)] = -w;
        hi[size_t(j)] = w;
    }

    std::optional<LatticeSolution> best;
    IntVec coef = lo;
    bool done = (k > 0 && lo > hi);
    while (!done) {
        FracVec sol = space.solveFor(coef);
        bool integral = true;
        IntVec dt(size_t(t_dims), 0);
        for (int i = 0; i < t_dims && integral; i++) {
            if (!sol[size_t(i)].isInteger())
                integral = false;
            else
                dt[size_t(i)] = sol[size_t(i)].asInt();
        }
        if (integral && inWindow(dt, p.radix)) {
            Int s = mixedRadixScalar(dt, p.radix);
            if (s >= p.minScalar && (!best || s < best->scalar))
                best = LatticeSolution{dt, s};
        }
        if (k == 0)
            break;
        int pos = 0;
        while (pos < k) {
            if (++coef[size_t(pos)] <= hi[size_t(pos)])
                break;
            coef[size_t(pos)] = lo[size_t(pos)];
            pos++;
        }
        if (pos == k)
            done = true;
    }
    return best;
}

} // namespace lego

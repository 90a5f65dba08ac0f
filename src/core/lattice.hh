/**
 * @file
 * Bounded integer lattice solver used by delay-interconnection
 * analysis (Section IV-A, Eq. 7 of the paper).
 *
 * Given the linear system A * dt = rhs over the integers, the solution
 * set is an affine lattice (particular solution + integer combinations
 * of the nullspace basis). The delay analysis needs the solution that
 * minimizes the *scalar* timestamp delay (Eq. 3 mixed-radix weighting)
 * subject to the delay being non-negative and each component staying
 * inside the loop-extent window.
 */

#ifndef LEGO_CORE_LATTICE_HH
#define LEGO_CORE_LATTICE_HH

#include <optional>

#include "core/matrix.hh"

namespace lego
{

/** A solution of the bounded lattice minimization. */
struct LatticeSolution
{
    /** The integer solution vector dt. */
    IntVec dt;
    /** Scalar mixed-radix value of dt (the FIFO depth in cycles). */
    Int scalar;
};

/**
 * Parameters of the minimization. `radix` holds the loop extents R_T
 * used both as the mixed-radix weights of the scalar timestamp and as
 * component bounds |dt_i| < radix[i].
 */
struct LatticeProblem
{
    IntMat a;          //!< Coefficient matrix (D x T).
    IntVec rhs;        //!< Right-hand side (D).
    IntVec radix;      //!< Loop extents R_T (T); weights per Eq. 3.
    Int minScalar = 0; //!< Require scalar >= minScalar.
    /** Search half-width for nullspace coefficients. */
    Int searchBound = 3;
};

/** Mixed-radix scalar value of dt given the loop extents (Eq. 3). */
Int mixedRadixScalar(const IntVec &dt, const IntVec &radix);

/**
 * Solve the bounded lattice minimization.
 *
 * Finds integer dt with a*dt = rhs, |dt_i| < radix[i], and
 * mixedRadixScalar(dt) >= minScalar, minimizing the scalar. Returns
 * std::nullopt when no such solution exists within the search bound
 * on nullspace coefficients.
 *
 * The search enumerates coefficient vectors on the integer nullspace
 * basis inside [-searchBound, searchBound]^k around the particular
 * solution; for the affine relations arising from loop nests this
 * window always contains the optimum (nullspace directions correspond
 * to loop dimensions the tensor does not depend on).
 */
std::optional<LatticeSolution> solveBoundedLattice(const LatticeProblem &p);

} // namespace lego

#endif // LEGO_CORE_LATTICE_HH

// Two-phase sparse revised simplex.
//
// Why hand-rolled: the reproduction must be self-contained (no external
// solver). The paper's LPs are large and very sparse — the ISP routing LP
// has ~2.3k path variables over ~1k rows with ~20k nonzeros, each path
// touching only its own hops' rows — so the solver never forms a tableau.
// It keeps the constraint matrix column-compressed, the current basic
// values, and the basis inverse as a product-form eta file: each iteration
// computes the duals with one backward solve (y = c_B B⁻¹), prices the
// nonbasic columns over their nonzeros (Dantzig's rule), and gets the
// entering column with one forward solve. The eta file is rebuilt from the
// basis columns every kRefactorEvery pivots, which also recomputes the
// basic values from the rhs and sheds accumulated drift.
//
// The solver maximizes, treats all variables as >= 0, and supports <=, >=
// and == rows; rows with a >=/== sense (after normalizing rhs >= 0) start
// on artificial columns that phase 1 drives to zero. It guards against
// cycling on the heavily degenerate balance constraints (rows with rhs 0)
// by breaking ratio-test ties toward the largest basis index (a slack
// leaves before a structural column) and switching from Dantzig's rule to
// Bland's rule after `bland_after` pivots.
// Pivots below `pivot_tol` are avoided whenever a sturdier element is
// available (pivoting on a ~eps entry scales the basis inverse by ~1/eps).
//
// Degenerate LPs have many optimal vertices; which one is returned depends
// on the pivoting order, so only the objective (and feasibility) of a
// solution is stable across solver changes, not the individual x values.
// The solver is single-threaded and deterministic: one model always
// yields the same x.
#pragma once

#include <vector>

#include "lp/model.hpp"

namespace spider {

enum class LpStatus { kOptimal, kUnbounded, kInfeasible, kIterationLimit };

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  // primal values, one per model variable
  long iterations = 0;
};

struct SimplexOptions {
  /// Pivot budget per phase; exceeding it returns kIterationLimit.
  long max_iterations = 500'000;
  /// Pivot/feasibility tolerance.
  double eps = 1e-9;
  /// Switch to Bland's anti-cycling rule after this many pivots (per phase).
  long bland_after = 20'000;
  /// Preferred minimum pivot magnitude; entries in (eps, pivot_tol] are
  /// used only when a column offers nothing sturdier.
  double pivot_tol = 1e-7;
};

/// Solves `model`. On kOptimal the returned x is feasible to within ~eps and
/// optimal; on kUnbounded/kInfeasible/kIterationLimit x is empty.
[[nodiscard]] LpSolution solve_lp(const LpModel& model,
                                  const SimplexOptions& options = {});

}  // namespace spider

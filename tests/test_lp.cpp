// Unit tests for the two-phase simplex solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "fluid/routing_lp.hpp"
#include "lp/simplex.hpp"
#include "util/amount.hpp"
#include "util/random.hpp"

namespace spider {
namespace {

// ---------------------------------------------------------------------------
// Reference solver: the dense two-phase tableau the sparse revised simplex
// replaced, kept here only as an independent oracle. Same conventions as
// solve_lp (maximize, x >= 0, rows normalized to rhs >= 0, Dantzig,
// pivot_tol-preferred ratio test), but ratio ties go to the smallest basis
// index, and the tableau keeps its own guards: the reduced-cost row is
// rebuilt every 512 pivots and a phase stops after 20000 pivots without
// progress.
namespace reference {

struct Result {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
};

constexpr long kRebuildEvery = 512;
constexpr long kStallAfter = 20'000;

class Tableau {
 public:
  Tableau(const LpModel& model, double eps) : eps_(eps) {
    const int n = model.num_variables();
    const int m = model.num_constraints();
    int num_slack = 0;
    int num_artificial = 0;
    for (const auto& row : model.rows()) {
      const RowSense sense = normalized(row);
      if (sense != RowSense::kEq) ++num_slack;
      if (sense != RowSense::kLeq) ++num_artificial;
    }
    first_artificial_ = n + num_slack;
    num_artificial_ = num_artificial;
    cols_ = n + num_slack + num_artificial + 1;  // +1 rhs
    rows_ = m;
    t_.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(cols_),
              0.0);
    basis_.assign(static_cast<std::size_t>(m), -1);
    int next_slack = n;
    int next_artificial = first_artificial_;
    for (int i = 0; i < m; ++i) {
      const auto& row = model.rows()[static_cast<std::size_t>(i)];
      const double sign = row.rhs < 0 ? -1.0 : 1.0;
      const RowSense sense = normalized(row);
      for (const LpTerm& term : row.terms) at(i, term.var) += sign * term.coeff;
      at(i, cols_ - 1) = sign * row.rhs;
      if (sense == RowSense::kLeq) {
        at(i, next_slack) = 1.0;
        basis_[static_cast<std::size_t>(i)] = next_slack++;
      } else {
        if (sense == RowSense::kGeq) at(i, next_slack++) = -1.0;
        at(i, next_artificial) = 1.0;
        basis_[static_cast<std::size_t>(i)] = next_artificial++;
      }
    }
  }

  static RowSense normalized(const LpModel::Row& row) {
    if (row.rhs >= 0 || row.sense == RowSense::kEq) return row.sense;
    return row.sense == RowSense::kLeq ? RowSense::kGeq : RowSense::kLeq;
  }

  double& at(int row, int col) {
    return t_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(col)];
  }
  [[nodiscard]] double at(int row, int col) const {
    return t_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(col)];
  }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int rhs_col() const { return cols_ - 1; }
  [[nodiscard]] int num_decision_cols() const { return cols_ - 1; }
  [[nodiscard]] int first_artificial() const { return first_artificial_; }
  [[nodiscard]] int num_artificial() const { return num_artificial_; }
  [[nodiscard]] int basis(int row) const {
    return basis_[static_cast<std::size_t>(row)];
  }

  void pivot(int row, int col) {
    const double inv = 1.0 / at(row, col);
    for (int j = 0; j < cols_; ++j) at(row, j) *= inv;
    at(row, col) = 1.0;
    for (int i = 0; i < rows_; ++i) {
      if (i == row) continue;
      const double factor = at(i, col);
      if (factor == 0.0) continue;
      for (int j = 0; j < cols_; ++j) at(i, j) -= factor * at(row, j);
      at(i, col) = 0.0;
    }
    basis_[static_cast<std::size_t>(row)] = col;
  }

  [[nodiscard]] int ratio_test(int col, double min_pivot) const {
    int best_row = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < rows_; ++i) {
      const double a = at(i, col);
      if (a <= min_pivot) continue;
      const double ratio = at(i, rhs_col()) / a;
      if (ratio < best_ratio - eps_ ||
          (ratio < best_ratio + eps_ &&
           (best_row == -1 || basis(i) < basis(best_row)))) {
        best_ratio = ratio;
        best_row = i;
      }
    }
    return best_row;
  }

 private:
  double eps_;
  int rows_ = 0;
  int cols_ = 0;
  int first_artificial_ = 0;
  int num_artificial_ = 0;
  std::vector<double> t_;
  std::vector<int> basis_;
};

void rebuild_reduced(const Tableau& tab, const std::vector<double>& c,
                     std::vector<double>& reduced, double& objective) {
  const int cols = tab.num_decision_cols();
  reduced.assign(static_cast<std::size_t>(cols), 0.0);
  objective = 0.0;
  for (int j = 0; j < cols; ++j)
    reduced[static_cast<std::size_t>(j)] = -c[static_cast<std::size_t>(j)];
  for (int i = 0; i < tab.rows(); ++i) {
    const double cb = c[static_cast<std::size_t>(tab.basis(i))];
    if (cb == 0.0) continue;
    for (int j = 0; j < cols; ++j)
      reduced[static_cast<std::size_t>(j)] += cb * tab.at(i, j);
    objective += cb * tab.at(i, tab.rhs_col());
  }
  for (int i = 0; i < tab.rows(); ++i)
    reduced[static_cast<std::size_t>(tab.basis(i))] = 0.0;
}

LpStatus run_phase(Tableau& tab, std::vector<double>& reduced,
                   double& objective, const std::vector<double>& c,
                   const SimplexOptions& opt, int entering_limit) {
  double best_objective = objective;
  long stall = 0;
  for (long iter = 0; iter < opt.max_iterations; ++iter) {
    if (iter > 0 && iter % kRebuildEvery == 0)
      rebuild_reduced(tab, c, reduced, objective);
    const bool bland = iter >= opt.bland_after;
    int entering = -1;
    double best = -opt.eps;
    for (int j = 0; j < entering_limit; ++j) {
      const double r = reduced[static_cast<std::size_t>(j)];
      if (r < best) {
        entering = j;
        if (bland) break;
        best = r;
      }
    }
    if (entering == -1) return LpStatus::kOptimal;
    int leaving = tab.ratio_test(entering, opt.pivot_tol);
    if (leaving == -1) leaving = tab.ratio_test(entering, opt.eps);
    if (leaving == -1) return LpStatus::kUnbounded;
    const double factor = reduced[static_cast<std::size_t>(entering)];
    tab.pivot(leaving, entering);
    for (int j = 0; j < tab.num_decision_cols(); ++j)
      reduced[static_cast<std::size_t>(j)] -= factor * tab.at(leaving, j);
    objective -= factor * tab.at(leaving, tab.rhs_col());
    reduced[static_cast<std::size_t>(entering)] = 0.0;
    if (objective > best_objective +
                        opt.pivot_tol * (1.0 + std::abs(best_objective))) {
      best_objective = objective;
      stall = 0;
    } else if (++stall >= kStallAfter) {
      return LpStatus::kOptimal;
    }
  }
  return LpStatus::kIterationLimit;
}

Result solve(const LpModel& model, const SimplexOptions& options = {}) {
  Result result;
  Tableau tab(model, options.eps);
  const int cols = tab.num_decision_cols();
  std::vector<double> reduced;
  double objective = 0.0;
  if (tab.num_artificial() > 0) {
    std::vector<double> c1(static_cast<std::size_t>(cols), 0.0);
    for (int j = tab.first_artificial(); j < cols; ++j)
      c1[static_cast<std::size_t>(j)] = -1.0;
    rebuild_reduced(tab, c1, reduced, objective);
    if (run_phase(tab, reduced, objective, c1, options, cols) ==
        LpStatus::kIterationLimit)
      return result;
    if (objective < -1e-6) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
    for (int i = 0; i < tab.rows(); ++i) {
      if (tab.basis(i) < tab.first_artificial()) continue;
      for (int j = 0; j < tab.first_artificial(); ++j) {
        if (std::abs(tab.at(i, j)) > options.eps) {
          tab.pivot(i, j);
          break;
        }
      }
    }
  }
  std::vector<double> c2(static_cast<std::size_t>(cols), 0.0);
  for (int j = 0; j < model.num_variables(); ++j)
    c2[static_cast<std::size_t>(j)] = model.objective_coeff(j);
  rebuild_reduced(tab, c2, reduced, objective);
  result.status = run_phase(tab, reduced, objective, c2, options,
                            tab.first_artificial());
  if (result.status != LpStatus::kOptimal) return result;
  result.x.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
  for (int i = 0; i < tab.rows(); ++i) {
    const int b = tab.basis(i);
    if (b < model.num_variables())
      result.x[static_cast<std::size_t>(b)] =
          std::max(0.0, tab.at(i, tab.rhs_col()));
  }
  result.objective = model.evaluate_objective(result.x);
  return result;
}

}  // namespace reference

TEST(Simplex, SimpleTwoVariable) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12.
  LpModel m;
  const int x = m.add_variable(3.0);
  const int y = m.add_variable(2.0);
  m.add_constraint({{x, 1}, {y, 1}}, RowSense::kLeq, 4);
  m.add_constraint({{x, 1}, {y, 3}}, RowSense::kLeq, 6);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 4.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 0.0, 1e-7);
}

TEST(Simplex, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj 8/3.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(1.0);
  m.add_constraint({{x, 2}, {y, 1}}, RowSense::kLeq, 4);
  m.add_constraint({{x, 1}, {y, 2}}, RowSense::kLeq, 4);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0 / 3.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 4.0 / 3.0, 1e-7);
}

TEST(Simplex, DetectsUnbounded) {
  LpModel m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, -1}}, RowSense::kLeq, 1);  // -x <= 1: no upper bound
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, DetectsInfeasible) {
  LpModel m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, 1}}, RowSense::kLeq, 1);
  m.add_constraint({{x, 1}}, RowSense::kGeq, 3);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, EqualityRows) {
  // max x + 2y s.t. x + y == 3, y <= 2 -> x=1, y=2, obj 5.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(2.0);
  m.add_constraint({{x, 1}, {y, 1}}, RowSense::kEq, 3);
  m.add_constraint({{y, 1}}, RowSense::kLeq, 2);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 1.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 2.0, 1e-7);
}

TEST(Simplex, GeqRowsNeedPhaseOne) {
  // max -x s.t. x >= 2, x <= 5 -> x=2.
  LpModel m;
  const int x = m.add_variable(-1.0);
  m.add_constraint({{x, 1}}, RowSense::kGeq, 2);
  m.add_constraint({{x, 1}}, RowSense::kLeq, 5);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -1 (i.e. y >= x + 1), y <= 3, max x -> x=2, y=3.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(0.0);
  m.add_constraint({{x, 1}, {y, -1}}, RowSense::kLeq, -1);
  m.add_constraint({{y, 1}}, RowSense::kLeq, 3);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
}

TEST(Simplex, DegenerateRhsZeroRowsTerminate) {
  // Balance-style rows with rhs 0 (heavy degeneracy).
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(1.0);
  m.add_constraint({{x, 1}, {y, -1}}, RowSense::kLeq, 0);
  m.add_constraint({{y, 1}, {x, -1}}, RowSense::kLeq, 0);
  m.add_constraint({{x, 1}}, RowSense::kLeq, 2);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);  // x = y = 2
}

TEST(Simplex, ZeroObjectiveReturnsFeasiblePoint) {
  LpModel m;
  const int x = m.add_variable(0.0);
  m.add_constraint({{x, 1}}, RowSense::kLeq, 10);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(m.max_violation(s.x), 0.0, 1e-9);
}

TEST(Simplex, EmptyModelIsTrivial) {
  LpModel m;
  const int x = m.add_variable(5.0);
  (void)x;
  // No constraints at all: unbounded.
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, RepeatedVariableTermsAreSummed) {
  // max x with (0.5x + 0.5x) <= 3 -> x = 3.
  LpModel m;
  const int x = m.add_variable(1.0);
  m.add_constraint({{x, 0.5}, {x, 0.5}}, RowSense::kLeq, 3);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 3.0, 1e-7);
}

TEST(LpModel, EvaluateAndViolation) {
  LpModel m;
  const int x = m.add_variable(2.0);
  const int y = m.add_variable(1.0);
  m.add_constraint({{x, 1}, {y, 1}}, RowSense::kLeq, 3);
  m.add_constraint({{x, 1}}, RowSense::kGeq, 1);
  m.add_constraint({{y, 1}}, RowSense::kEq, 1);
  const std::vector<double> feasible{2.0, 1.0};
  EXPECT_DOUBLE_EQ(m.evaluate_objective(feasible), 5.0);
  EXPECT_NEAR(m.max_violation(feasible), 0.0, 1e-12);
  const std::vector<double> infeasible{0.0, 3.0};
  EXPECT_GT(m.max_violation(infeasible), 0.9);
}

TEST(LpModel, RejectsUnknownVariable) {
  LpModel m;
  (void)m.add_variable(1.0);
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, RowSense::kLeq, 1),
               AssertionError);
}

/// Property: on random small LPs with b >= 0 (always feasible at 0), the
/// solver's optimum matches brute-force enumeration over a fine grid lower
/// bound and is feasible.
class SimplexProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexProperty, OptimumIsFeasibleAndDominatesGridSearch) {
  Rng rng(GetParam());
  LpModel m;
  const int nv = 3;
  for (int v = 0; v < nv; ++v) m.add_variable(rng.uniform(0.1, 2.0));
  for (int c = 0; c < 4; ++c) {
    std::vector<LpTerm> terms;
    for (int v = 0; v < nv; ++v)
      terms.push_back({v, rng.uniform(0.05, 1.0)});  // positive: bounded
    m.add_constraint(std::move(terms), RowSense::kLeq, rng.uniform(1.0, 5.0));
  }
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-6);

  // Coarse grid search can only find feasible points at least as bad.
  double best_grid = 0;
  const int steps = 12;
  for (int i = 0; i <= steps; ++i)
    for (int j = 0; j <= steps; ++j)
      for (int k = 0; k <= steps; ++k) {
        const std::vector<double> x{i * 0.5, j * 0.5, k * 0.5};
        if (m.max_violation(x) <= 1e-9)
          best_grid = std::max(best_grid, m.evaluate_objective(x));
      }
  EXPECT_GE(s.objective, best_grid - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProperty,
                         testing::Values(101, 102, 103, 104, 105, 106, 107,
                                         108, 109, 110));

// ---------------------------------------------------------------------------
// The sparse revised simplex against the reference tableau.

/// The balanced-routing LP (eqs. 1–5) of a random instance: a connected
/// multigraph (a ring plus random chords, some parallel to existing
/// channels) with random capacities, random demands, and 4 edge-disjoint
/// paths per pair — the production model builder, on the production path
/// search.
LpModel random_routing_lp(Rng& rng) {
  const auto n = static_cast<NodeId>(rng.uniform_int(6, 14));
  Graph graph(n);
  for (NodeId v = 0; v < n; ++v)
    (void)graph.add_edge(v, (v + 1) % n, xrp(rng.uniform_int(20, 200)));
  const auto chords = rng.uniform_int(n, 2 * n);
  for (std::int64_t c = 0; c < chords; ++c) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto b = static_cast<NodeId>(rng.uniform_int(0, n - 2));
    if (b >= a) ++b;
    (void)graph.add_edge(a, b, xrp(rng.uniform_int(20, 200)));
    if (rng.chance(0.3))  // a parallel channel
      (void)graph.add_edge(a, b, xrp(rng.uniform_int(20, 200)));
  }
  PaymentGraph demands(n);
  const auto pairs = rng.uniform_int(n, 3 * n);
  for (std::int64_t p = 0; p < pairs; ++p) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto dst = static_cast<NodeId>(rng.uniform_int(0, n - 2));
    if (dst >= src) ++dst;
    demands.add_demand(src, dst, rng.uniform(1.0, 100.0));
  }
  return RoutingLp::with_disjoint_paths(graph, demands, 1.0, 4)
      .balanced_model();
}

/// A small dense model mixing <=, >= and == rows with rhs of either sign:
/// feasible, infeasible and unbounded instances all occur.
LpModel random_mixed_lp(Rng& rng) {
  LpModel m;
  const auto nv = static_cast<int>(rng.uniform_int(2, 8));
  for (int v = 0; v < nv; ++v) (void)m.add_variable(rng.uniform(-1.0, 2.0));
  const auto rows = rng.uniform_int(2, 9);
  int equalities = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::vector<LpTerm> terms;
    for (int v = 0; v < nv; ++v)
      if (rng.chance(0.7)) terms.push_back({v, rng.uniform(-1.0, 1.0)});
    if (terms.empty()) terms.push_back({0, 1.0});
    const double pick = rng.uniform();
    RowSense sense = pick < 0.45 ? RowSense::kLeq : RowSense::kGeq;
    if (pick > 0.85 && equalities < nv / 2) {
      sense = RowSense::kEq;
      ++equalities;
    }
    m.add_constraint(std::move(terms), sense, rng.uniform(-5.0, 5.0));
  }
  if (rng.chance(0.7)) {  // usually bounded: Σx <= U
    std::vector<LpTerm> all;
    for (int v = 0; v < nv; ++v) all.push_back({v, 1.0});
    m.add_constraint(std::move(all), RowSense::kLeq, rng.uniform(5.0, 20.0));
  }
  return m;
}

void expect_matches_reference(const LpModel& m, const std::string& label) {
  const reference::Result want = reference::solve(m);
  const LpSolution got = solve_lp(m);
  ASSERT_EQ(got.status, want.status) << label;
  if (got.status != LpStatus::kOptimal) return;
  const double scale =
      std::max({1.0, std::abs(want.objective), std::abs(got.objective)});
  EXPECT_LE(std::abs(got.objective - want.objective), 1e-9 * scale)
      << label << ": revised " << got.objective << " vs tableau "
      << want.objective;
  EXPECT_LE(m.max_violation(got.x), 1e-7) << label;
}

TEST(RevisedSimplex, MatchesReferenceTableau) {
  Rng rng(20200225);
  for (int i = 0; i < 40; ++i) {
    const LpModel m = random_routing_lp(rng);
    ASSERT_GT(m.num_constraints(), 0);
    expect_matches_reference(m, "routing LP " + std::to_string(i));
  }
  int statuses[4] = {};
  for (int i = 0; i < 400; ++i) {
    const LpModel m = random_mixed_lp(rng);
    expect_matches_reference(m, "mixed LP " + std::to_string(i));
    ++statuses[static_cast<int>(reference::solve(m).status)];
  }
  // The mixed models exercise every outcome, not just the easy one.
  EXPECT_GT(statuses[static_cast<int>(LpStatus::kOptimal)], 0);
  EXPECT_GT(statuses[static_cast<int>(LpStatus::kInfeasible)], 0);
  EXPECT_GT(statuses[static_cast<int>(LpStatus::kUnbounded)], 0);
}

TEST(RevisedSimplex, DegenerateCyclingExampleTerminates) {
  // Beale's example: two rhs-0 rows on which textbook Dantzig pivoting
  // (largest reduced cost, lowest-row ties) cycles forever through six
  // degenerate bases. Optimum 1/20 at x4 = 1/25, x6 = 1.
  LpModel m;
  const int x4 = m.add_variable(0.75);
  const int x5 = m.add_variable(-150.0);
  const int x6 = m.add_variable(0.02);
  const int x7 = m.add_variable(-6.0);
  m.add_constraint({{x4, 0.25}, {x5, -60}, {x6, -0.04}, {x7, 9}},
                   RowSense::kLeq, 0);
  m.add_constraint({{x4, 0.5}, {x5, -90}, {x6, -0.02}, {x7, 3}},
                   RowSense::kLeq, 0);
  m.add_constraint({{x6, 1}}, RowSense::kLeq, 1);
  const LpSolution s = solve_lp(m);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.05, 1e-9);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x4)], 0.04, 1e-9);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x6)], 1.0, 1e-9);
  EXPECT_LE(m.max_violation(s.x), 1e-9);
  // No reference comparison here: the tableau's Dantzig pivoting cycles on
  // this model until its stall exit returns the feasible, suboptimal x = 0.
}

TEST(RevisedSimplex, IterationLimitIsReported) {
  Rng rng(7);
  const LpModel m = random_routing_lp(rng);
  const LpSolution full = solve_lp(m);
  ASSERT_EQ(full.status, LpStatus::kOptimal);
  ASSERT_GT(full.iterations, 2);
  SimplexOptions tight;
  tight.max_iterations = 2;
  const LpSolution cut = solve_lp(m, tight);
  EXPECT_EQ(cut.status, LpStatus::kIterationLimit);
  EXPECT_TRUE(cut.x.empty());
  // The same budget is per phase: a phase-1 model cut short reports the
  // limit too, never a false infeasible.
  LpModel geq;
  const int x = geq.add_variable(-1.0);
  const int y = geq.add_variable(-1.0);
  geq.add_constraint({{x, 1}, {y, 2}}, RowSense::kGeq, 4);
  geq.add_constraint({{x, 3}, {y, 1}}, RowSense::kGeq, 6);
  SimplexOptions one;
  one.max_iterations = 1;
  EXPECT_EQ(solve_lp(geq, one).status, LpStatus::kIterationLimit);
  EXPECT_EQ(solve_lp(geq).status, LpStatus::kOptimal);
}

}  // namespace
}  // namespace spider

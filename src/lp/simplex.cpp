#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

namespace spider {

namespace {

/// Pivots between two rebuilds of the eta file. Each pivot appends one eta
/// column, so this bounds the forward/backward solve cost between rebuilds;
/// each rebuild costs about one forward solve per structural basic column.
constexpr int kRefactorEvery = 100;

/// Eta entries this small are rounding residue of cancellations; storing
/// them would only thicken the file.
constexpr double kDropTol = 1e-14;

[[nodiscard]] constexpr std::size_t idx(int i) {
  return static_cast<std::size_t>(i);
}

/// The model in standard form, column-compressed. Every row is scaled by
/// ±1 so its rhs is >= 0. Columns: the structural variables, then one
/// slack (+1, <= rows) or surplus (−1, >= rows) column per inequality row,
/// then one artificial (+1) column per >= / == row. Each row's slack or
/// artificial column is a unit column, so those columns form the identity
/// starting basis.
struct StandardForm {
  int rows = 0;
  int cols = 0;
  int first_artificial = 0;
  std::vector<int> start;  // cols + 1 offsets into index/value
  std::vector<int> index;  // row of each nonzero, ascending per column
  std::vector<double> value;
  std::vector<double> rhs;
  std::vector<int> unit_col;  // per row: its identity-basis column

  explicit StandardForm(const LpModel& model) {
    const int n = model.num_variables();
    rows = model.num_constraints();
    std::vector<double> sign(idx(rows));
    std::vector<RowSense> sense(idx(rows));
    int num_slack = 0;
    int num_artificial = 0;
    for (int i = 0; i < rows; ++i) {
      const LpModel::Row& row = model.rows()[idx(i)];
      const bool flip = row.rhs < 0;
      RowSense s = row.sense;
      if (flip && s != RowSense::kEq)
        s = s == RowSense::kLeq ? RowSense::kGeq : RowSense::kLeq;
      sign[idx(i)] = flip ? -1.0 : 1.0;
      sense[idx(i)] = s;
      rhs.push_back(flip ? -row.rhs : row.rhs);
      if (s != RowSense::kEq) ++num_slack;
      if (s != RowSense::kLeq) ++num_artificial;
    }
    first_artificial = n + num_slack;
    cols = first_artificial + num_artificial;

    // Structural columns, bucketed by variable. Rows are visited in order,
    // so a column's entries arrive sorted by row and a repeated term lands
    // right after its twin, where it is merged.
    std::vector<int> bucket(idx(n) + 1, 0);
    for (const LpModel::Row& row : model.rows())
      for (const LpTerm& t : row.terms) ++bucket[idx(t.var) + 1];
    std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
    std::vector<int> fill(bucket.begin(), bucket.end() - 1);
    std::vector<int> raw_index(idx(bucket.back()));
    std::vector<double> raw_value(raw_index.size());
    for (int i = 0; i < rows; ++i) {
      for (const LpTerm& t : model.rows()[idx(i)].terms) {
        const double coeff = sign[idx(i)] * t.coeff;
        int& at = fill[idx(t.var)];
        if (at > bucket[idx(t.var)] && raw_index[idx(at - 1)] == i) {
          raw_value[idx(at - 1)] += coeff;
        } else {
          raw_index[idx(at)] = i;
          raw_value[idx(at)] = coeff;
          ++at;
        }
      }
    }
    start.push_back(0);
    for (int j = 0; j < n; ++j) {
      for (int p = bucket[idx(j)]; p < fill[idx(j)]; ++p) {
        if (raw_value[idx(p)] == 0.0) continue;  // terms that cancelled
        index.push_back(raw_index[idx(p)]);
        value.push_back(raw_value[idx(p)]);
      }
      start.push_back(static_cast<int>(index.size()));
    }

    // Helper columns, one nonzero each.
    unit_col.assign(idx(rows), -1);
    const auto add_unit = [this](int row, double coeff) {
      index.push_back(row);
      value.push_back(coeff);
      start.push_back(static_cast<int>(index.size()));
      return static_cast<int>(start.size()) - 2;
    };
    for (int i = 0; i < rows; ++i) {
      if (sense[idx(i)] == RowSense::kLeq) unit_col[idx(i)] = add_unit(i, 1.0);
      if (sense[idx(i)] == RowSense::kGeq) (void)add_unit(i, -1.0);
    }
    for (int i = 0; i < rows; ++i)
      if (sense[idx(i)] != RowSense::kLeq) unit_col[idx(i)] = add_unit(i, 1.0);
  }

  [[nodiscard]] int nnz(int col) const {
    return start[idx(col) + 1] - start[idx(col)];
  }
  /// Row indices of column `col`'s nonzeros.
  [[nodiscard]] std::span<const int> rows_of(int col) const {
    return {index.data() + start[idx(col)], idx(nnz(col))};
  }
  /// y · a_col.
  [[nodiscard]] double dot(int col, const std::vector<double>& y) const {
    double sum = 0.0;
    for (int p = start[idx(col)]; p < start[idx(col) + 1]; ++p)
      sum += value[idx(p)] * y[idx(index[idx(p)])];
    return sum;
  }
  /// Writes a_col into the zeroed dense vector `out`.
  void scatter(int col, std::vector<double>& out) const {
    for (int p = start[idx(col)]; p < start[idx(col) + 1]; ++p)
      out[idx(index[idx(p)])] = value[idx(p)];
  }
};

/// Revised simplex state over a StandardForm: the basis (one column per
/// row position), its basic values, and B⁻¹ = E_K ⋯ E_1 as a product-form
/// eta file. Eta k replaces position eta_row_[k] of the identity: its
/// pivot entry is 1/α_r and its other entries −α_i/α_r, where α is the
/// entering column expressed in the previous basis.
class RevisedSimplex {
 public:
  RevisedSimplex(const StandardForm& a, const SimplexOptions& options)
      : a_(a),
        opt_(options),
        m_(idx(a.rows)),
        basis_(a.unit_col),
        is_basic_(idx(a.cols), 0),
        xb_(a.rhs),
        work_(m_, 0.0),
        alpha_(m_, 0.0),
        eta_start_{0} {
    for (const int col : basis_) is_basic_[idx(col)] = 1;
  }

  struct PhaseResult {
    LpStatus status = LpStatus::kOptimal;
    long iterations = 0;
  };

  /// Maximizes cost · x from the current basis; only columns below
  /// `entering_limit` may enter (phase 2 bars the artificials).
  PhaseResult run_phase(const std::vector<double>& cost, int entering_limit) {
    for (long iter = 0; iter < opt_.max_iterations; ++iter) {
      if (pivots_since_refactor_ >= kRefactorEvery) refactor();
      const bool bland = iter >= opt_.bland_after;
      const int entering = price(cost, entering_limit, bland);
      if (entering == -1) return {LpStatus::kOptimal, iter};
      load_column(entering);
      // Prefer a sturdy pivot; fall back to tiny-but-nonzero elements only
      // when the column has nothing better.
      int leaving = ratio_test(opt_.pivot_tol, bland);
      if (leaving == -1) leaving = ratio_test(opt_.eps, bland);
      if (leaving == -1) return {LpStatus::kUnbounded, iter};
      pivot(idx(leaving), entering);
    }
    return {LpStatus::kIterationLimit, opt_.max_iterations};
  }

  /// cost · x at the current basic values.
  [[nodiscard]] double objective(const std::vector<double>& cost) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < m_; ++i) sum += cost[idx(basis_[i])] * xb_[i];
    return sum;
  }

  /// After phase 1: pivots every artificial still basic (at value ~0) out
  /// in favour of the first non-artificial column with a nonzero entry in
  /// its row. An artificial whose row has none stays: the row is redundant
  /// and the artificial inert. No rebuild runs in between, so positions
  /// keep their meaning for the whole sweep.
  void drive_out_artificials() {
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < a_.first_artificial) continue;
      // Row r of B⁻¹A is (e_r B⁻¹) A.
      std::fill(work_.begin(), work_.end(), 0.0);
      work_[r] = 1.0;
      btran(work_);
      for (int j = 0; j < a_.first_artificial; ++j) {
        if (is_basic_[idx(j)] || std::abs(a_.dot(j, work_)) <= opt_.eps)
          continue;
        load_column(j);
        pivot(r, j);
        break;
      }
    }
  }

  /// x for the first `num_structural` columns, from basic values freshly
  /// recomputed by a rebuild (if any pivot happened since the last one).
  [[nodiscard]] std::vector<double> primal(int num_structural) {
    if (pivots_since_refactor_ > 0) refactor();
    std::vector<double> x(idx(num_structural), 0.0);
    for (std::size_t i = 0; i < m_; ++i)
      if (basis_[i] < num_structural)
        x[idx(basis_[i])] = std::max(0.0, xb_[i]);
    return x;
  }

 private:
  /// Dantzig (largest reduced cost, first index on ties) or, under Bland,
  /// the first improving column; -1 if none improves by more than eps.
  int price(const std::vector<double>& cost, int entering_limit, bool bland) {
    for (std::size_t i = 0; i < m_; ++i) work_[i] = cost[idx(basis_[i])];
    btran(work_);  // work_ = y = c_B B⁻¹
    int entering = -1;
    double best = opt_.eps;
    for (int j = 0; j < entering_limit; ++j) {
      if (is_basic_[idx(j)]) continue;
      const double d = cost[idx(j)] - a_.dot(j, work_);
      if (d > best) {
        entering = j;
        if (bland) break;
        best = d;
      }
    }
    return entering;
  }

  /// alpha_ = B⁻¹ a_col.
  void load_column(int col) {
    std::fill(alpha_.begin(), alpha_.end(), 0.0);
    a_.scatter(col, alpha_);
    ftran(alpha_);
  }

  /// The leaving position for the loaded column, restricted to pivot
  /// elements above `min_pivot`, or -1 if no position qualifies. Under
  /// Dantzig, ties break toward the largest basis index: on a degenerate
  /// tie a slack or artificial leaves rather than a structural column that
  /// entered earlier, so degenerate pivots keep the structural basis they
  /// have built instead of cycling through it (smallest-index ties took
  /// 265k pivots on a 900-pair ripple-full routing LP, largest-index ties
  /// 2.7k). Under Bland's rule, ties break toward the smallest basis index,
  /// which that rule needs to guarantee termination.
  [[nodiscard]] int ratio_test(double min_pivot, bool bland) const {
    int best_row = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m_; ++i) {
      const double a = alpha_[i];
      if (a <= min_pivot) continue;
      const double ratio = std::max(0.0, xb_[i]) / a;
      if (ratio < best_ratio - opt_.eps ||
          (ratio < best_ratio + opt_.eps &&
           (best_row == -1 ||
            (bland ? basis_[i] < basis_[idx(best_row)]
                   : basis_[i] > basis_[idx(best_row)])))) {
        best_ratio = ratio;
        best_row = static_cast<int>(i);
      }
    }
    return best_row;
  }

  /// Makes `col` (loaded in alpha_) basic at position `r`.
  void pivot(std::size_t r, int col) {
    const double theta = std::max(0.0, xb_[r]) / alpha_[r];
    if (theta != 0.0)
      for (std::size_t i = 0; i < m_; ++i) xb_[i] -= theta * alpha_[i];
    xb_[r] = theta;
    append_eta(r);
    is_basic_[idx(basis_[r])] = 0;
    is_basic_[idx(col)] = 1;
    basis_[r] = col;
    ++pivots_since_refactor_;
  }

  /// Appends the eta column that pivots alpha_ at position `r`.
  void append_eta(std::size_t r) {
    const double inv = 1.0 / alpha_[r];
    eta_row_.push_back(static_cast<int>(r));
    eta_pivot_.push_back(inv);
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == r || std::abs(alpha_[i]) <= kDropTol) continue;
      eta_index_.push_back(static_cast<int>(i));
      eta_value_.push_back(-alpha_[i] * inv);
    }
    eta_start_.push_back(static_cast<int>(eta_index_.size()));
  }

  /// v := B⁻¹ v (apply E_1, …, E_K).
  void ftran(std::vector<double>& v) const {
    for (std::size_t k = 0; k < eta_row_.size(); ++k) {
      const std::size_t r = idx(eta_row_[k]);
      const double vr = v[r];
      if (vr == 0.0) continue;
      v[r] = vr * eta_pivot_[k];
      for (int p = eta_start_[k]; p < eta_start_[k + 1]; ++p)
        v[idx(eta_index_[idx(p)])] += eta_value_[idx(p)] * vr;
    }
  }

  /// y := y B⁻¹ (apply E_K, …, E_1 from the right).
  void btran(std::vector<double>& y) const {
    for (std::size_t k = eta_row_.size(); k-- > 0;) {
      const std::size_t r = idx(eta_row_[k]);
      double sum = y[r] * eta_pivot_[k];
      for (int p = eta_start_[k]; p < eta_start_[k + 1]; ++p)
        sum += eta_value_[idx(p)] * y[idx(eta_index_[idx(p)])];
      y[r] = sum;
    }
  }

  /// Rebuilds the eta file for the current basis columns and recomputes
  /// the basic values as B⁻¹ b. An eta column is the column being
  /// eliminated expressed in the basis built so far, so the order matters
  /// for fill-in. Unit columns keep their own row and need no eta. Of the
  /// rest, the triangular parts go first and last: a row only one column
  /// still touches is that column's pivot (eliminated first, in discovery
  /// order), and then a column touching only one unclaimed row pivots there
  /// (eliminated last, in reverse discovery order). Neither picks up
  /// fill-in, because no column eliminated before them touches their
  /// pivot rows. Only the remaining bump is eliminated with real forward
  /// solves, sparsest column first, each at the unclaimed position where
  /// it is largest. A bump column with no usable pivot left (numerically
  /// dependent) leaves the basis for an unclaimed row's unit column, which
  /// only happens on a basis the pivot tolerances should never produce.
  void refactor() {
    eta_row_.clear();
    eta_pivot_.clear();
    eta_index_.clear();
    eta_value_.clear();
    eta_start_.assign(1, 0);
    pivots_since_refactor_ = 0;

    std::vector<int> next(m_, -1);  // the new basis, by position
    std::vector<int> pending;
    for (const int col : basis_) {
      if (a_.nnz(col) == 1) {
        const std::size_t row = idx(a_.rows_of(col).front());
        if (a_.value[idx(a_.start[idx(col)])] == 1.0 && next[row] == -1) {
          next[row] = col;
          continue;
        }
      }
      pending.push_back(col);
    }

    // Row-wise view of the pending columns over the unclaimed rows:
    // row_cols[row_start[r]..] lists the pending indices touching row r.
    std::vector<int> row_start(m_ + 1, 0);
    for (const int col : pending)
      for (const int row : a_.rows_of(col))
        if (next[idx(row)] == -1) ++row_start[idx(row) + 1];
    std::partial_sum(row_start.begin(), row_start.end(), row_start.begin());
    std::vector<int> row_cols(idx(row_start.back()));
    std::vector<int> row_count(m_, 0);  // pending columns left per row
    for (std::size_t k = 0; k < pending.size(); ++k)
      for (const int row : a_.rows_of(pending[k]))
        if (next[idx(row)] == -1)
          row_cols[idx(row_start[idx(row)] + row_count[idx(row)]++)] =
              static_cast<int>(k);

    std::vector<char> done(pending.size(), 0);
    std::vector<std::pair<int, std::size_t>> front;  // (column, position)
    std::vector<std::pair<int, std::size_t>> back;
    const auto claim = [&](std::size_t k, std::size_t r, auto& list) {
      done[k] = 1;
      next[r] = pending[k];
      list.emplace_back(pending[k], r);
    };

    // Row singletons, in discovery order.
    std::vector<std::size_t> queue;
    for (std::size_t r = 0; r < m_; ++r)
      if (next[r] == -1 && row_count[r] == 1) queue.push_back(r);
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const std::size_t r = queue[h];
      if (next[r] != -1 || row_count[r] != 1) continue;
      int p = row_start[r];
      while (done[idx(row_cols[idx(p)])]) ++p;
      const std::size_t k = idx(row_cols[idx(p)]);
      claim(k, r, front);
      for (const int row : a_.rows_of(pending[k]))
        if (next[idx(row)] == -1 && --row_count[idx(row)] == 1)
          queue.push_back(idx(row));
    }

    // Column singletons among what is left, in discovery order.
    std::vector<int> col_count(pending.size(), 0);  // unclaimed rows touched
    queue.clear();
    for (std::size_t k = 0; k < pending.size(); ++k) {
      if (done[k]) continue;
      for (const int row : a_.rows_of(pending[k]))
        col_count[k] += next[idx(row)] == -1 ? 1 : 0;
      if (col_count[k] == 1) queue.push_back(k);
    }
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const std::size_t k = queue[h];
      if (done[k] || col_count[k] != 1) continue;
      const std::span<const int> rows = a_.rows_of(pending[k]);
      const std::size_t r = idx(*std::find_if(
          rows.begin(), rows.end(),
          [&next](int row) { return next[idx(row)] == -1; }));
      claim(k, r, back);
      for (int p = row_start[r]; p < row_start[r + 1]; ++p) {
        const std::size_t other = idx(row_cols[idx(p)]);
        if (!done[other] && --col_count[other] == 1) queue.push_back(other);
      }
    }

    std::vector<int> bump;
    for (std::size_t k = 0; k < pending.size(); ++k)
      if (!done[k]) bump.push_back(pending[k]);
    std::stable_sort(bump.begin(), bump.end(),
                     [this](int x, int y) { return a_.nnz(x) < a_.nnz(y); });

    for (const auto& [col, r] : front) {
      load_column(col);
      append_eta(r);
    }
    for (const int col : bump) {
      load_column(col);
      std::size_t r = m_;
      double best = opt_.eps;
      for (std::size_t i = 0; i < m_; ++i) {
        if (next[i] != -1 || std::abs(alpha_[i]) <= best) continue;
        best = std::abs(alpha_[i]);
        r = i;
      }
      if (r == m_) {
        is_basic_[idx(col)] = 0;
        continue;
      }
      append_eta(r);
      next[r] = col;
    }
    for (auto it = back.rbegin(); it != back.rend(); ++it) {
      load_column(it->first);
      append_eta(it->second);
    }
    for (std::size_t i = 0; i < m_; ++i) {
      if (next[i] != -1) continue;
      next[i] = a_.unit_col[i];
      is_basic_[idx(next[i])] = 1;
    }
    basis_ = std::move(next);
    xb_ = a_.rhs;
    ftran(xb_);
  }

  const StandardForm& a_;
  const SimplexOptions& opt_;
  std::size_t m_;
  std::vector<int> basis_;      // column basic at each position
  std::vector<char> is_basic_;  // per column
  std::vector<double> xb_;      // basic values, per position
  std::vector<double> work_;    // dense row scratch (duals)
  std::vector<double> alpha_;   // dense column scratch (B⁻¹ a_q)
  int pivots_since_refactor_ = 0;
  // The eta file, flat: eta k's off-pivot entries are
  // eta_index_/eta_value_[eta_start_[k], eta_start_[k + 1]).
  std::vector<int> eta_row_;
  std::vector<double> eta_pivot_;
  std::vector<int> eta_start_;
  std::vector<int> eta_index_;
  std::vector<double> eta_value_;
};

}  // namespace

LpSolution solve_lp(const LpModel& model, const SimplexOptions& options) {
  LpSolution solution;
  const StandardForm form(model);
  RevisedSimplex simplex(form, options);

  // Phase 1: drive artificials to zero (maximize -sum(artificials)).
  if (form.first_artificial < form.cols) {
    std::vector<double> c1(idx(form.cols), 0.0);
    std::fill(c1.begin() + form.first_artificial, c1.end(), -1.0);
    const auto phase1 = simplex.run_phase(c1, form.cols);
    solution.iterations += phase1.iterations;
    if (phase1.status == LpStatus::kIterationLimit) {
      solution.status = LpStatus::kIterationLimit;
      return solution;
    }
    // Phase-1 objective is -(sum of artificials); feasible iff ~0.
    if (simplex.objective(c1) < -1e-6) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    simplex.drive_out_artificials();
  }

  // Phase 2: the real objective; artificials may no longer enter.
  std::vector<double> c2(idx(form.cols), 0.0);
  for (int j = 0; j < model.num_variables(); ++j)
    c2[idx(j)] = model.objective_coeff(j);
  const auto phase2 = simplex.run_phase(c2, form.first_artificial);
  solution.iterations += phase2.iterations;
  if (phase2.status != LpStatus::kOptimal) {
    solution.status = phase2.status;
    return solution;
  }

  solution.status = LpStatus::kOptimal;
  solution.x = simplex.primal(model.num_variables());
  solution.objective = model.evaluate_objective(solution.x);
  return solution;
}

}  // namespace spider

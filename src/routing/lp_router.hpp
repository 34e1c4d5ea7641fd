// Spider (LP), §6.1.
//
// Solves the balanced-routing LP (eqs. 1–5) ONCE, from the long-term demand
// matrix estimated over the whole trace, on the same 4 edge-disjoint paths
// per pair — then uses the optimal path rates as fixed splitting weights.
// The paths are read from the shared warmed candidate-path store when the
// session has one (the store every path-based scheme reads), so the LP
// models exactly the candidates the other schemes route over.
//
// Two consequences the paper reports are reproduced deliberately:
//   - pairs to which the LP assigns zero total rate are never attempted
//     (their payments expire in the queue), and
//   - because the balanced LP routes exactly the circulation component of
//     the demand, success volume pins near the circulation fraction.
#pragma once

#include <map>
#include <optional>
#include <span>

#include "fluid/routing_lp.hpp"
#include "routing/path_cache.hpp"
#include "routing/router.hpp"

namespace spider {

/// Objective for the offline fluid LP.
enum class LpObjective {
  /// eqs. (1)-(5): maximize total throughput — the paper's Spider (LP).
  /// May assign zero to whole pairs (§6.2's caveat).
  kThroughput,
  /// §5.3's fairness remark, realized as two-stage max-min: first maximize
  /// the minimum served fraction, then throughput. Every connected pair
  /// gets a positive weight whenever the fair fraction is positive.
  kMaxMinFairness,
};

class LpRouter final : public Router {
 public:
  /// `max_pairs` caps the number of demand pairs the offline LP models
  /// (0 = unlimited): pairs are ranked by demand and the tail is dropped,
  /// i.e. treated exactly like the pairs the LP itself zeroes out. The
  /// ISP topology's ~1000 pairs and the 60-node ripple-like's ~1800 solve
  /// uncapped; paper-scale Ripple traces have far more pairs than any
  /// simplex here can model.
  explicit LpRouter(int num_paths = 4, int max_pairs = 0,
                    LpObjective objective = LpObjective::kThroughput);

  [[nodiscard]] std::string name() const override {
    return objective_ == LpObjective::kThroughput ? "Spider (LP)"
                                                  : "Spider (LP max-min)";
  }
  [[nodiscard]] bool is_atomic() const override { return false; }

  /// Requires context.demand_hint (the estimated demand matrix).
  void init(const Network& network, const RouterInitContext& context) override;

  [[nodiscard]] std::vector<ChunkPlan> plan(const Payment& payment,
                                            Amount amount,
                                            const Network& network,
                                            Rng& rng) override;

  /// Fluid throughput of the solved LP in XRP/s (for reporting).
  [[nodiscard]] double fluid_throughput() const { return fluid_throughput_; }
  /// Max-min objective only: the guaranteed served fraction t*.
  [[nodiscard]] double fair_fraction() const { return fair_fraction_; }
  /// Number of demand pairs whose LP weights are all zero (never attempted).
  [[nodiscard]] int zero_weight_pairs() const { return zero_weight_pairs_; }
  /// The candidate paths the LP modeled for (src, dst); empty if the pair
  /// was not modeled.
  [[nodiscard]] std::span<const Path> pair_paths(NodeId src,
                                                 NodeId dst) const;

 private:
  struct PairPlan {
    std::vector<Path> paths;
    std::vector<double> weights;  // normalized; empty if total rate == 0
  };

  int num_paths_;
  int max_pairs_;
  LpObjective objective_;
  std::map<std::pair<NodeId, NodeId>, PairPlan> pair_plans_;
  VirtualBalances virtual_balances_;  // reattached per plan(); O(1) reset
  double fluid_throughput_ = 0.0;
  double fair_fraction_ = 0.0;
  int zero_weight_pairs_ = 0;
};

}  // namespace spider

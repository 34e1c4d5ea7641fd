#include "routing/lp_router.hpp"

#include <algorithm>
#include <cmath>

namespace spider {

LpRouter::LpRouter(int num_paths, int max_pairs, LpObjective objective)
    : num_paths_(num_paths), max_pairs_(max_pairs), objective_(objective) {
  SPIDER_ASSERT(num_paths >= 1);
  SPIDER_ASSERT(max_pairs >= 0);
}

void LpRouter::init(const Network& network,
                    const RouterInitContext& context) {
  SPIDER_ASSERT_MSG(context.demand_hint != nullptr,
                    "Spider (LP) needs a demand matrix estimate");
  pair_plans_.clear();
  fluid_throughput_ = 0.0;

  PaymentGraph demands = *context.demand_hint;
  if (max_pairs_ > 0) {
    std::vector<DemandEdge> edges = demands.edges();
    if (static_cast<int>(edges.size()) > max_pairs_) {
      std::sort(edges.begin(), edges.end(),
                [](const DemandEdge& a, const DemandEdge& b) {
                  if (a.rate != b.rate) return a.rate > b.rate;
                  return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
                });
      edges.resize(static_cast<std::size_t>(max_pairs_));
      PaymentGraph truncated(demands.num_nodes());
      for (const DemandEdge& e : edges)
        truncated.add_demand(e.src, e.dst, e.rate);
      demands = std::move(truncated);
    }
  }

  // k edge-disjoint shortest paths per pair (§6.1), from the shared warmed
  // store when it holds them, searched here otherwise.
  CandidatePaths candidates;
  candidates.init(network.graph(), num_paths_, PathSelection::kEdgeDisjoint,
                  context.shared_paths);
  std::vector<PairPaths> pairs;
  pairs.reserve(demands.edges().size());
  for (const DemandEdge& d : demands.edges()) {
    const std::span<const Path> found = candidates.paths(d.src, d.dst);
    pairs.push_back(
        PairPaths{d.src, d.dst, d.rate, {found.begin(), found.end()}});
  }
  const RoutingLp lp(network.graph(), std::move(pairs),
                     context.delta_seconds);
  const FluidSolution solution = objective_ == LpObjective::kThroughput
                                     ? lp.solve_balanced()
                                     : lp.solve_max_min_balanced();
  SPIDER_ASSERT_MSG(solution.status == LpStatus::kOptimal,
                    "balanced routing LP failed to solve");
  fluid_throughput_ = solution.throughput;
  fair_fraction_ = solution.min_fraction;
  zero_weight_pairs_ = 0;

  constexpr double kEps = 1e-9;
  for (std::size_t pi = 0; pi < lp.pairs().size(); ++pi) {
    const PairPaths& pp = lp.pairs()[pi];
    const std::vector<double>& rates = solution.path_rates[pi];
    double total = 0;
    for (double r : rates) total += r;
    PairPlan plan;
    plan.paths = pp.paths;
    if (total > kEps) {
      plan.weights.reserve(rates.size());
      for (double r : rates) plan.weights.push_back(r / total);
    } else {
      ++zero_weight_pairs_;
    }
    pair_plans_[{pp.src, pp.dst}] = std::move(plan);
  }
}

std::span<const Path> LpRouter::pair_paths(NodeId src, NodeId dst) const {
  const auto it = pair_plans_.find({src, dst});
  if (it == pair_plans_.end()) return {};
  return it->second.paths;
}

std::vector<ChunkPlan> LpRouter::plan(const Payment& payment, Amount amount,
                                      const Network& network, Rng&) {
  const auto it = pair_plans_.find({payment.src, payment.dst});
  // Unknown pair, or a pair the LP zeroed out: never attempted (§6.2).
  if (it == pair_plans_.end() || it->second.weights.empty()) return {};
  const PairPlan& pair_plan = it->second;

  // Apportion `amount` by weight (largest-remainder rounding), then cap each
  // share by the current joint bottleneck of its path.
  const std::size_t n = pair_plan.paths.size();
  std::vector<Amount> share(n, 0);
  Amount assigned = 0;
  std::vector<std::pair<double, std::size_t>> fractions;
  for (std::size_t i = 0; i < n; ++i) {
    const double exact =
        static_cast<double>(amount) * pair_plan.weights[i];
    share[i] = static_cast<Amount>(std::floor(exact));
    assigned += share[i];
    fractions.push_back({exact - std::floor(exact), i});
  }
  std::sort(fractions.begin(), fractions.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t j = 0; assigned < amount && j < fractions.size(); ++j) {
    ++share[fractions[j].second];
    ++assigned;
  }

  virtual_balances_.attach(network);
  std::vector<ChunkPlan> chunks;
  for (std::size_t i = 0; i < n; ++i) {
    if (share[i] <= 0) continue;
    const Amount sendable =
        std::min(share[i], virtual_balances_.path_bottleneck(
                               pair_plan.paths[i]));
    if (sendable <= 0) continue;
    virtual_balances_.use(pair_plan.paths[i], sendable);
    // pair_plans_ map storage is stable until the next init(): the pointer
    // outlives the simulator's immediate consumption of the plan.
    chunks.push_back(ChunkPlan{&pair_plan.paths[i], sendable});
  }
  return chunks;
}

}  // namespace spider

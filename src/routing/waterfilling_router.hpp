// Spider (Waterfilling), §5.3.1.
//
// A source holding K candidate paths probes each path's bottleneck balance
// and sends on the highest-capacity path until it drops to the level of the
// second, then on both until they reach the third, and so on — the
// "waterfilling" heuristic that equalizes (and therefore re-balances)
// channel capacity across paths without running the full price-based
// algorithm. Non-atomic: whatever does not fit waits in the pending queue.
#pragma once

#include "routing/path_cache.hpp"
#include "routing/router.hpp"

namespace spider {

/// Splits `amount` across paths with the given bottleneck capacities so the
/// largest capacities are drained first and end up equalized. Returns the
/// per-path allocation (alloc[i] <= capacities[i], Σ = min(amount, Σ caps)).
/// Exposed for unit tests.
[[nodiscard]] std::vector<Amount> waterfill(Amount amount,
                                            const std::vector<Amount>&
                                                capacities);

class WaterfillingRouter final : public Router {
 public:
  explicit WaterfillingRouter(int num_paths = 4,
                              PathSelection selection =
                                  PathSelection::kEdgeDisjoint);

  [[nodiscard]] std::string name() const override {
    return "Spider (Waterfilling)";
  }
  [[nodiscard]] bool is_atomic() const override { return false; }

  void init(const Network& network, const RouterInitContext& context) override;

  [[nodiscard]] std::vector<ChunkPlan> plan(const Payment& payment,
                                            Amount amount,
                                            const Network& network,
                                            Rng& rng) override;

 private:
  int num_paths_;
  PathSelection selection_;
  CandidatePaths paths_;  // shared warmed store when available, else lazy
  std::vector<Amount> capacities_;    // per-plan scratch, reused
  VirtualBalances virtual_balances_;  // reattached per plan(); O(1) reset
};

}  // namespace spider

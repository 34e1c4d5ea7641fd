// Shortest-path routing with non-atomic (packet-switched) delivery — the
// baseline the paper adds to represent "packet switching without smart
// routing" (§6.1). Each attempt sends as much of the remainder as the single
// BFS shortest path currently supports; the rest waits for the next poll.
#pragma once

#include "routing/path_cache.hpp"
#include "routing/router.hpp"

namespace spider {

class ShortestPathRouter final : public Router {
 public:
  ShortestPathRouter() = default;

  [[nodiscard]] std::string name() const override { return "Shortest Path"; }
  [[nodiscard]] bool is_atomic() const override { return false; }

  void init(const Network& network, const RouterInitContext& context) override;

  [[nodiscard]] std::vector<ChunkPlan> plan(const Payment& payment,
                                            Amount amount,
                                            const Network& network,
                                            Rng& rng) override;

 private:
  CandidatePaths paths_;  // shared warmed store when available, else lazy
};

}  // namespace spider

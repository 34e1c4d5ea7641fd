#include "routing/waterfilling_router.hpp"

#include <algorithm>
#include <numeric>

namespace spider {

std::vector<Amount> waterfill(Amount amount,
                              const std::vector<Amount>& capacities) {
  SPIDER_ASSERT(amount >= 0);
  const std::size_t n = capacities.size();
  std::vector<Amount> alloc(n, 0);
  if (n == 0 || amount == 0) return alloc;

  // Order paths by capacity, largest first.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (capacities[a] != capacities[b]) return capacities[a] > capacities[b];
    return a < b;
  });

  Amount left = amount;
  // Drain the top `active` paths down to the next level, level by level.
  // After step `active`, the top `active` paths share the remaining
  // capacity level of path order[active] (or 0 past the end).
  for (std::size_t active = 1; active <= n && left > 0; ++active) {
    const Amount current_level = capacities[order[0]] - alloc[order[0]];
    const Amount next_level = active < n ? capacities[order[active]] : 0;
    const Amount gap = current_level - next_level;
    if (gap <= 0) continue;
    const Amount full_step = gap * static_cast<Amount>(active);
    if (left >= full_step) {
      for (std::size_t i = 0; i < active; ++i) alloc[order[i]] += gap;
      left -= full_step;
    } else {
      // Not enough to reach the next level: spread evenly, remainder one
      // milli at a time to the front of the order.
      const Amount each = left / static_cast<Amount>(active);
      Amount extra = left % static_cast<Amount>(active);
      for (std::size_t i = 0; i < active; ++i) {
        Amount add = each + (extra > 0 ? 1 : 0);
        if (extra > 0) --extra;
        alloc[order[i]] += add;
      }
      left = 0;
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    SPIDER_ASSERT_MSG(alloc[i] <= capacities[i],
                      "waterfill overflowed a path capacity");
  return alloc;
}

WaterfillingRouter::WaterfillingRouter(int num_paths, PathSelection selection)
    : num_paths_(num_paths), selection_(selection) {
  SPIDER_ASSERT(num_paths >= 1);
}

void WaterfillingRouter::init(const Network& network,
                              const RouterInitContext& context) {
  paths_.init(network.graph(), num_paths_, selection_, context.shared_paths);
}

std::vector<ChunkPlan> WaterfillingRouter::plan(const Payment& payment,
                                                Amount amount,
                                                const Network& network,
                                                Rng&) {
  paths_.sync(network.topology_generation());
  const std::span<const Path> paths = paths_.paths(payment.src, payment.dst);
  if (paths.empty()) return {};

  // Probe bottlenecks through a virtual overlay so allocations stay jointly
  // feasible even when candidate paths share channels (Yen mode).
  virtual_balances_.attach(network);
  capacities_.clear();
  for (const Path& p : paths)
    capacities_.push_back(virtual_balances_.path_bottleneck(p));

  const std::vector<Amount> alloc = waterfill(amount, capacities_);
  std::vector<ChunkPlan> chunks;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (alloc[i] <= 0) continue;
    // Allocations were computed from the initial probes; when candidate
    // paths share channels (Yen mode) an earlier chunk may have consumed
    // part of this path's bottleneck, so re-clamp before committing.
    const Amount sendable =
        std::min(alloc[i], virtual_balances_.path_bottleneck(paths[i]));
    if (sendable <= 0) continue;
    virtual_balances_.use(paths[i], sendable);
    chunks.push_back(ChunkPlan{&paths[i], sendable});
  }
  return chunks;
}

}  // namespace spider

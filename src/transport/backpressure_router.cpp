#include "transport/backpressure_router.hpp"

#include <algorithm>
#include <numeric>

namespace spider {

BackpressureRouter::BackpressureRouter(int num_paths, PathSelection selection)
    : num_paths_(num_paths), selection_(selection) {
  SPIDER_ASSERT(num_paths >= 1);
}

void BackpressureRouter::init(const Network& network,
                              const RouterInitContext& context) {
  paths_.init(network.graph(), num_paths_, selection_, context.shared_paths);
}

Amount BackpressureRouter::path_backlog(const Path& path,
                                        const Network& network) const {
  if (queues_ == nullptr) return 0;
  Amount backlog = 0;
  for (std::size_t h = 0; h < path.edges.size(); ++h) {
    const EdgeId e = path.edges[h];
    if (static_cast<std::size_t>(e) >= queues_->num_edges()) continue;
    const int side = network.channel(e).side_of(path.nodes[h]);
    backlog += queues_->side(static_cast<std::size_t>(e), side).value;
  }
  return backlog;
}

std::vector<ChunkPlan> BackpressureRouter::plan(const Payment& payment,
                                                Amount amount,
                                                const Network& network,
                                                Rng&) {
  paths_.sync(network.topology_generation());
  const std::span<const Path> paths = paths_.paths(payment.src, payment.dst);
  if (paths.empty()) return {};

  // Least-backlogged path first; candidate index (shortest-first) breaks
  // ties deterministically.
  std::vector<std::size_t> order(paths.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<Amount> backlog(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i)
    backlog[i] = path_backlog(paths[i], network);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (backlog[a] != backlog[b]) return backlog[a] < backlog[b];
    return a < b;
  });

  std::vector<ChunkPlan> chunks;
  Amount left = amount;
  if (queues_ != nullptr) {
    // Router-queue mode: clamp at the first hop only, like the engine's own
    // dispatch rule — downstream shortfalls queue, and that backlog is the
    // signal steering the next plan.
    struct FirstHopUse {
      EdgeId edge;
      int side;
      Amount used;
    };
    std::vector<FirstHopUse> used;
    for (std::size_t idx : order) {
      if (left <= 0) break;
      const Path& p = paths[idx];
      const EdgeId e = p.edges.front();
      const Channel& ch = network.channel(e);
      const int side = ch.side_of(p.nodes.front());
      Amount avail = ch.balance(side);
      for (const FirstHopUse& u : used)
        if (u.edge == e && u.side == side) avail -= u.used;
      const Amount sendable = std::min(left, avail);
      if (sendable <= 0) continue;
      used.push_back({e, side, sendable});
      chunks.push_back(ChunkPlan{&p, sendable});
      left -= sendable;
    }
    return chunks;
  }

  // No bank bound (source-queue mode): plans must be whole-path feasible.
  virtual_balances_.attach(network);
  for (std::size_t idx : order) {
    if (left <= 0) break;
    const Path& p = paths[idx];
    const Amount sendable =
        std::min(left, virtual_balances_.path_bottleneck(p));
    if (sendable <= 0) continue;
    virtual_balances_.use(p, sendable);
    chunks.push_back(ChunkPlan{&p, sendable});
    left -= sendable;
  }
  return chunks;
}

}  // namespace spider

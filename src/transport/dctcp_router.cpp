#include "transport/dctcp_router.hpp"

#include <algorithm>

namespace spider {

SpiderDctcpRouter::SpiderDctcpRouter(int num_paths, PathSelection selection,
                                     const TransportConfig& transport)
    : num_paths_(num_paths), selection_(selection), controller_(transport) {
  SPIDER_ASSERT(num_paths >= 1);
}

void SpiderDctcpRouter::init(const Network& network,
                             const RouterInitContext& context) {
  paths_.init(network.graph(), num_paths_, selection_, context.shared_paths);
}

std::vector<ChunkPlan> SpiderDctcpRouter::plan(const Payment& payment,
                                               Amount amount,
                                               const Network& network, Rng&) {
  paths_.sync(network.topology_generation());
  const std::span<const Path> paths = paths_.paths(payment.src, payment.dst);
  if (paths.empty()) return {};

  std::vector<ChunkPlan> chunks;
  Amount left = amount;
  // Greedy over the candidate order (shortest first); each path is capped
  // by its own window and pacing credit, so the AIMD loop — not this loop's
  // order — decides the steady-state split across paths.
  if (queues_ != nullptr) {
    // Router-queue mode: clamp at the first hop only, like the engine's
    // own dispatch rule. Downstream shortfalls queue at routers, outwait
    // the marking threshold, and come back as marks that shrink the
    // window — the paper's control loop, which whole-path clamping would
    // short-circuit (a perfectly clamped sender never queues, so nothing
    // is ever marked).
    struct FirstHopUse {
      EdgeId edge;
      int side;
      Amount used;
    };
    std::vector<FirstHopUse> used;
    for (const Path& p : paths) {
      if (left <= 0) break;
      const Amount admissible = controller_.admissible(p, now_);
      if (admissible <= 0) continue;
      const EdgeId e = p.edges.front();
      const Channel& ch = network.channel(e);
      const int side = ch.side_of(p.nodes.front());
      Amount avail = ch.balance(side);
      for (const FirstHopUse& u : used)
        if (u.edge == e && u.side == side) avail -= u.used;
      const Amount sendable = std::min({left, admissible, avail});
      if (sendable <= 0) continue;
      used.push_back({e, side, sendable});
      chunks.push_back(ChunkPlan{&p, sendable});
      left -= sendable;
    }
    return chunks;
  }

  // Source-queue mode: no router queues to absorb shortfalls, so plans
  // must be whole-path feasible.
  virtual_balances_.attach(network);
  for (const Path& p : paths) {
    if (left <= 0) break;
    const Amount admissible = controller_.admissible(p, now_);
    if (admissible <= 0) continue;
    const Amount sendable =
        std::min({left, admissible, virtual_balances_.path_bottleneck(p)});
    if (sendable <= 0) continue;
    virtual_balances_.use(p, sendable);
    chunks.push_back(ChunkPlan{&p, sendable});
    left -= sendable;
  }
  return chunks;
}

void SpiderDctcpRouter::on_transport_send(const Path& path, Amount amount,
                                          TimePoint now) {
  controller_.on_send(path, amount, now);
}

void SpiderDctcpRouter::on_transport_ack(const Path& path, Amount amount,
                                         bool marked, Duration rtt,
                                         TimePoint now) {
  controller_.on_ack(path, amount, marked, rtt, now);
}

void SpiderDctcpRouter::on_transport_loss(const Path& path, Amount amount,
                                          TimePoint now) {
  controller_.on_loss(path, amount, now);
}

}  // namespace spider

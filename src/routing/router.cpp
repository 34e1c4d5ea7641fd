#include "routing/router.hpp"

#include <algorithm>
#include <limits>

namespace spider {

void Router::init(const Network&, const RouterInitContext&) {}

void Router::on_tick(const Network&, TimePoint) {}

void Router::bind_transport(const RouterQueueBank*) {}

void Router::on_transport_clock(TimePoint) {}

void Router::on_transport_send(const Path&, Amount, TimePoint) {}

void Router::on_transport_ack(const Path&, Amount, bool, Duration, TimePoint) {
}

void Router::on_transport_loss(const Path&, Amount, TimePoint) {}

void VirtualBalances::attach(const Network& network) {
  network_ = &network;
  const auto slots_needed =
      static_cast<std::size_t>(network.graph().num_edges()) * 2;
  if (slots_.size() < slots_needed) slots_.resize(slots_needed);
  reset();
}

void VirtualBalances::reset() {
  ++epoch_;
  if (epoch_ == 0) {
    // Epoch counter wrapped (needs 2^64 resets): wipe slots so stale entries
    // from the previous epoch-0 era cannot resurface.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
}

Amount VirtualBalances::available(NodeId from, EdgeId e) const {
  const int side = network_->hot_side(e, from);
  return std::max<Amount>(0,
                          network_->hot_balance(e, side) - used(e, side));
}

Amount VirtualBalances::path_bottleneck(const Path& path) const {
  if (path.edges.empty()) return 0;
  Amount bottleneck = std::numeric_limits<Amount>::max();
  for (std::size_t h = 0; h < path.edges.size(); ++h)
    bottleneck =
        std::min(bottleneck, available(path.nodes[h], path.edges[h]));
  return bottleneck;
}

void VirtualBalances::use(const Path& path, Amount amount) {
  SPIDER_ASSERT(amount >= 0);
  SPIDER_ASSERT_MSG(amount <= path_bottleneck(path),
                    "virtual lock exceeds bottleneck");
  for (std::size_t h = 0; h < path.edges.size(); ++h) {
    const EdgeId e = path.edges[h];
    const auto side =
        static_cast<std::size_t>(network_->hot_side(e, path.nodes[h]));
    Slot& slot = slots_[static_cast<std::size_t>(e) * 2 + side];
    if (slot.epoch != epoch_) {
      slot.epoch = epoch_;
      slot.used = 0;
    }
    slot.used += amount;
  }
}

}  // namespace spider

#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "util/stats.hpp"

namespace spider {

Simulator::Simulator(Network& network, Router& router, SimConfig config)
    : network_(&network), router_(&router), config_(config), rng_(config.seed) {
  SPIDER_ASSERT(config.delta > 0);
  SPIDER_ASSERT(config.poll_interval > 0);
  SPIDER_ASSERT(config.mtu >= 0);
  SPIDER_ASSERT(config.hop_delay > 0);
  SPIDER_ASSERT(config.queue_timeout > 0);
  SPIDER_ASSERT(config.rebalance_interval >= 0);
  SPIDER_ASSERT(config.rebalance_rate_xrp_per_s >= 0);
  SPIDER_ASSERT(config.admission_cap >= 0);
  SPIDER_ASSERT(config.retry_limit >= 0);
  SPIDER_ASSERT(config.retry_backoff >= 0);
  SPIDER_ASSERT(config.payment_deadline >= 0);
  SPIDER_ASSERT(config.transport.mark_threshold > 0);
  SPIDER_ASSERT(config.transport.pace_interval >= 0);
  SPIDER_ASSERT(config.transport.initial_window > 0);
  SPIDER_ASSERT(config.transport.min_window > 0 &&
                config.transport.min_window <= config.transport.initial_window);
  SPIDER_ASSERT(config.transport.additive_step >= 0);
  SPIDER_ASSERT(config.transport.beta_ppm >= 0 &&
                config.transport.beta_ppm <= 1'000'000);
  SPIDER_ASSERT(config.transport.initial_rtt > 0);
  if (config.queueing == QueueingMode::kRouterQueue)
    SPIDER_ASSERT_MSG(!router.is_atomic(),
                      "router-queue mode requires a non-atomic scheme "
                      "(queued units cannot honour all-or-nothing)");
}

void Simulator::push_event(TimePoint time, EventKind kind, std::size_t index,
                           std::uint64_t stamp) {
  events_.schedule(time, static_cast<int>(kind), index, stamp);
}

SimMetrics Simulator::run(const std::vector<PaymentSpec>& trace) {
  begin(trace);
  drain();
  return metrics();
}

void Simulator::begin(const std::vector<PaymentSpec>& trace) {
  trace_ = &trace;
  payments_.clear();
  payments_.reserve(trace.size());
  pending_.clear();
  in_pending_.clear();
  inflight_.clear();
  free_chunks_.clear();
  metrics_ = SimMetrics{};
  next_arrival_ = 0;
  trace_base_ = 0;
  topo_trace_ = nullptr;
  next_topo_ = 0;
  topo_scheduled_ = false;
  fault_trace_ = nullptr;
  next_fault_ = 0;
  fault_scheduled_ = false;
  blacklists_.clear();
  faults_.begin(network_->graph().num_nodes(), network_->graph().num_edges(),
                config_.fault_seed != 0
                    ? config_.fault_seed
                    : config_.seed ^ 0xFA017FA017FA017FULL);
  events_.reset();
  poll_scheduled_ = false;
  arrival_scheduled_ = false;
  rebalance_scheduled_ = false;
  pace_scheduled_ = false;
  queue_wait_samples_.clear();
  next_stamp_ = 1;
  advanced_horizon_ = 0;
  window_start_ = 0;
  window_index_ = 0;
  events_since_roll_ = false;
  tail_emitted_ = false;

  const auto num_edges =
      static_cast<std::size_t>(network_->graph().num_edges());
  channel_queues_.assign(num_edges, {ChannelQueue{}, ChannelQueue{}});
  initial_side_funds_.assign(num_edges, {0, 0});
  for (std::size_t e = 0; e < num_edges; ++e) {
    const Channel& ch = network_->channel(static_cast<EdgeId>(e));
    initial_side_funds_[e] = {ch.balance(0), ch.balance(1)};
  }
  transport_queues_.begin(num_edges, config_.transport.mark_threshold);
  // The bank only accumulates state in router-queue mode; a null bind tells
  // backlog-reading schemes (backpressure) to fall back to whole-path plans.
  router_->bind_transport(queue_bank_active() ? &transport_queues_ : nullptr);

  sync_arrival_chain();
}

void Simulator::trace_extended() { sync_arrival_chain(); }

void Simulator::trace_released(std::size_t count) {
  SPIDER_ASSERT_MSG(count <= trace_releasable(),
                    "trace_released: prefix still referenced by the "
                    "arrival chain");
  trace_base_ += count;
}

void Simulator::begin_topology(const std::vector<TopologyChange>& churn) {
  topo_trace_ = &churn;
  next_topo_ = 0;
  topo_scheduled_ = false;
  sync_topology_chain();
}

void Simulator::topology_extended() { sync_topology_chain(); }

void Simulator::sync_topology_chain() {
  if (topo_scheduled_ || topo_trace_ == nullptr) return;
  if (next_topo_ >= topo_trace_->size()) return;
  const TimePoint at = (*topo_trace_)[next_topo_].at;
  SPIDER_ASSERT_MSG(at >= now(),
                    "submitted topology change occurs in the past");
  push_event(at, EventKind::kTopology, next_topo_);
  topo_scheduled_ = true;
}

void Simulator::begin_faults(const std::vector<FaultEvent>& faults) {
  fault_trace_ = &faults;
  next_fault_ = 0;
  fault_scheduled_ = false;
  sync_fault_chain();
}

void Simulator::faults_extended() { sync_fault_chain(); }

void Simulator::sync_fault_chain() {
  if (fault_scheduled_ || fault_trace_ == nullptr) return;
  if (next_fault_ >= fault_trace_->size()) return;
  const TimePoint at = (*fault_trace_)[next_fault_].at;
  SPIDER_ASSERT_MSG(at >= now(), "submitted fault occurs in the past");
  push_event(at, EventKind::kFault, next_fault_);
  fault_scheduled_ = true;
}

void Simulator::sync_arrival_chain() {
  if (arrival_scheduled_ || trace_ == nullptr) return;
  if (next_arrival_ >= trace_base_ + trace_->size()) return;
  const TimePoint at = (*trace_)[next_arrival_ - trace_base_].arrival;
  SPIDER_ASSERT_MSG(at >= now(), "submitted payment arrives in the past");
  push_event(at, EventKind::kArrival, next_arrival_);
  arrival_scheduled_ = true;
  // The rebalance tick starts (or restarts, for a streaming session whose
  // chain ran dry) alongside the arrival chain; handle_rebalance keeps it
  // alive while there is work the deposits could help.
  if (config_.rebalance_interval > 0 && config_.rebalance_rate_xrp_per_s > 0 &&
      !rebalance_scheduled_) {
    push_event(at + config_.rebalance_interval, EventKind::kRebalance, 0);
    rebalance_scheduled_ = true;
  }
}

void Simulator::process_next() {
  const SimEvent ev = events_.pop();
  // Roll the windows the clock just crossed before dispatching, so
  // on_window_roll observes the network exactly as the window left it.
  if (window_ > 0) {
    roll_windows_until(ev.time);
    events_since_roll_ = true;
    tail_emitted_ = false;  // the open window's snapshot is stale again
  }
  switch (static_cast<EventKind>(ev.kind)) {
    case EventKind::kArrival: handle_arrival(ev.index); break;
    case EventKind::kSettle: handle_settle(ev.index, ev.stamp); break;
    case EventKind::kPoll:
      poll_scheduled_ = false;
      handle_poll();
      break;
    case EventKind::kHopArrive: handle_hop_arrive(ev.index, ev.stamp); break;
    case EventKind::kQueueTimeout:
      handle_queue_timeout(ev.index, ev.stamp);
      break;
    case EventKind::kRebalance:
      rebalance_scheduled_ = false;
      handle_rebalance();
      break;
    case EventKind::kTopology: handle_topology(ev.index); break;
    case EventKind::kFault: handle_fault(ev.index); break;
    case EventKind::kChunkFault:
      handle_chunk_fault(ev.index, ev.stamp);
      break;
    case EventKind::kFaultRecover:
      handle_fault_recover(ev.index, ev.stamp);
      break;
    case EventKind::kTransportPace: handle_transport_pace(); break;
  }
}

std::size_t Simulator::run_events_until(TimePoint horizon) {
  std::size_t processed = 0;
  while (!events_.empty() && events_.next_time() <= horizon) {
    process_next();
    ++processed;
  }
  return processed;
}

std::size_t Simulator::advance_until(TimePoint horizon) {
  const std::size_t processed = run_events_until(horizon);
  if (horizon > advanced_horizon_) advanced_horizon_ = horizon;
  if (window_ > 0) roll_windows_until(horizon);
  return processed;
}

std::size_t Simulator::drain() {
  const std::size_t processed =
      run_events_until(std::numeric_limits<TimePoint>::max());
  finish_windows();
  network_->check_invariants();
  return processed;
}

SimMetrics Simulator::metrics() const {
  SimMetrics m = metrics_;
  m.events_processed = events_.processed();
  m.sim_duration_s = to_seconds(now());
  m.final_mean_imbalance_xrp = network_->mean_imbalance_xrp();
  if (!queue_wait_samples_.empty()) {
    // quantile() partially reorders its input, so it works on a copy; the
    // sample log itself keeps accumulating across snapshots.
    std::vector<double> waits = queue_wait_samples_;
    m.queue_delay_p99_s = quantile(std::span<double>(waits), 0.99);
  }
  return m;
}

void Simulator::attach(SimObserver& observer) {
  observers_.push_back(&observer);
}

void Simulator::set_metrics_window(Duration window) {
  SPIDER_ASSERT(window >= 0);
  window_ = window;
}

void Simulator::roll_windows_until(TimePoint t) {
  while (window_start_ + window_ <= t) {
    const WindowInfo window{window_index_, window_start_,
                            window_start_ + window_, /*partial=*/false};
    for (SimObserver* observer : observers_)
      observer->on_window_roll(window, *network_);
    window_start_ += window_;
    ++window_index_;
    events_since_roll_ = false;
    tail_emitted_ = false;  // a fresh window opened
  }
}

void Simulator::finish_windows() {
  if (window_ <= 0) return;
  roll_windows_until(now());
  // Emit the open trailing window if it spans any time or absorbed any
  // event (an event landing exactly on a boundary belongs to the window
  // STARTING there, which can make a content-bearing zero-span tail) —
  // but only once per snapshot: a second drain() with nothing new must not
  // re-emit an identical tail to the observers.
  if (tail_emitted_) return;
  if (now() <= window_start_ && !events_since_roll_) return;
  const WindowInfo window{window_index_, window_start_, now(),
                          /*partial=*/true};
  for (SimObserver* observer : observers_)
    observer->on_window_roll(window, *network_);
  tail_emitted_ = true;
}

void Simulator::ensure_pending(std::size_t payment_index) {
  if (payments_[payment_index].status != PaymentStatus::kPending) return;
  if (in_pending_[payment_index]) return;
  in_pending_[payment_index] = 1;
  pending_.push_back(payment_index);
  if (!poll_scheduled_) {
    push_event(now() + config_.poll_interval, EventKind::kPoll, 0);
    poll_scheduled_ = true;
  }
  // With pacing on, pending payments are also re-offered between polls so
  // window/rate credit that frees up mid-interval is used promptly.
  if (transport_on() && config_.transport.pace_interval > 0 &&
      !pace_scheduled_) {
    push_event(now() + config_.transport.pace_interval,
               EventKind::kTransportPace, 0);
    pace_scheduled_ = true;
  }
}

void Simulator::handle_arrival(std::size_t trace_index) {
  // By value: once next_arrival_ moves past this entry (just below), the
  // caller may legally release it from the trace vector — e.g. an
  // observer hook driving SimSession::release_replayed — and a reference
  // would dangle across the observer loop.
  const PaymentSpec spec = (*trace_)[trace_index - trace_base_];
  // Chain the next arrival so the heap stays small. In a streaming session
  // the chain simply runs dry when the submitter falls behind the clock;
  // trace_extended() restarts it.
  arrival_scheduled_ = false;
  ++next_arrival_;
  sync_arrival_chain();

  Payment p;
  p.id = static_cast<PaymentId>(trace_index);
  p.src = spec.src;
  p.dst = spec.dst;
  p.total = spec.amount;
  p.arrival = spec.arrival;
  const Duration rel =
      spec.deadline > 0 ? spec.deadline
      : config_.payment_deadline > 0
          ? config_.payment_deadline
          : config_.default_deadline;
  p.deadline = spec.arrival + rel;
  p.atomic = router_->is_atomic();
  payments_.push_back(p);
  in_pending_.push_back(0);
  const std::size_t index = payments_.size() - 1;

  metrics_.attempted_count += 1;
  metrics_.attempted_volume += spec.amount;
  for (SimObserver* observer : observers_)
    observer->on_payment_arrival(payments_[index], now());

  if (config_.admission_cap > 0 && spec.amount > config_.admission_cap) {
    metrics_.admission_refused += 1;
    payments_[index].refused = true;  // keep it out of the per-cause split
    finish_payment(index, PaymentStatus::kRejected);
    return;
  }

  attempt(index);
  Payment& stored = payments_[index];
  if (stored.status != PaymentStatus::kPending) return;
  if (stored.atomic) {
    // Atomic schemes get exactly one shot; if nothing was locked the
    // payment failed, and if everything was locked it completes at settle.
    if (stored.inflight == 0 && stored.delivered == 0)
      finish_payment(index, PaymentStatus::kRejected);
    return;
  }
  if (stored.remaining() > 0) ensure_pending(index);
}

std::size_t Simulator::new_chunk(const Path& path, Amount amount,
                                 std::size_t payment_index) {
  std::size_t ci;
  if (!free_chunks_.empty()) {
    ci = free_chunks_.back();
    free_chunks_.pop_back();
  } else {
    ci = inflight_.size();
    inflight_.emplace_back();
  }
  // assign() reuses the recycled slot's buffer capacity: once the pool has
  // seen a path of this length, acquiring a chunk allocates nothing.
  InflightChunk& chunk = inflight_[ci];
  chunk.path.nodes.assign(path.nodes.begin(), path.nodes.end());
  chunk.path.edges.assign(path.edges.begin(), path.edges.end());
  chunk.amount = amount;
  chunk.payment = payment_index;
  chunk.hops_locked = 0;
  chunk.queued = false;
  chunk.marked = false;
  chunk.queued_at = 0;
  chunk.sent_at = now();
  chunk.stamp = next_stamp_++;
  chunk.queue_prev = -1;
  chunk.queue_next = -1;
  return ci;
}

void Simulator::release_chunk_slot(std::size_t chunk_index) {
  InflightChunk& chunk = inflight_[chunk_index];
  SPIDER_ASSERT(!chunk.queued);
  chunk.path.nodes.clear();  // keeps capacity: the buffers are pooled
  chunk.path.edges.clear();
  chunk.amount = 0;
  chunk.hops_locked = 0;
  chunk.stamp = 0;  // stamps start at 1: stale events can never match
  free_chunks_.push_back(chunk_index);
}

void Simulator::queue_push_back(EdgeId edge, int side,
                                std::size_t chunk_index) {
  ChannelQueue& queue = channel_queues_[static_cast<std::size_t>(edge)]
                                       [static_cast<std::size_t>(side)];
  InflightChunk& chunk = inflight_[chunk_index];
  const auto ci = static_cast<std::int32_t>(chunk_index);
  chunk.queue_prev = queue.tail;
  chunk.queue_next = -1;
  if (queue.tail >= 0)
    inflight_[static_cast<std::size_t>(queue.tail)].queue_next = ci;
  else
    queue.head = ci;
  queue.tail = ci;
}

void Simulator::queue_remove(EdgeId edge, int side, std::size_t chunk_index) {
  ChannelQueue& queue = channel_queues_[static_cast<std::size_t>(edge)]
                                       [static_cast<std::size_t>(side)];
  InflightChunk& chunk = inflight_[chunk_index];
  if (chunk.queue_prev >= 0)
    inflight_[static_cast<std::size_t>(chunk.queue_prev)].queue_next =
        chunk.queue_next;
  else
    queue.head = chunk.queue_next;
  if (chunk.queue_next >= 0)
    inflight_[static_cast<std::size_t>(chunk.queue_next)].queue_prev =
        chunk.queue_prev;
  else
    queue.tail = chunk.queue_prev;
  chunk.queue_prev = -1;
  chunk.queue_next = -1;
}

Amount Simulator::attempt(std::size_t payment_index, bool paced) {
  Payment& p = payments_[payment_index];
  Amount want = p.remaining();
  if (want <= 0) return 0;
  if (!paced) {
    if (p.attempts > 0) metrics_.retries += 1;
    ++p.attempts;
  }
  if (transport_on()) router_->on_transport_clock(now());
  // Routers are fault-oblivious (their plans stay byte-identical); plans
  // crossing a down node or a path this sender blacklisted are filtered
  // HERE, at commit time.
  const bool fault_filter = faults_.any_node_down() || !blacklists_.empty();

  const std::vector<ChunkPlan> plan = router_->plan(p, want, *network_, rng_);
  metrics_.plans_requested += 1;

  if (config_.queueing == QueueingMode::kRouterQueue) {
    // §4.2 mode: lock only the FIRST hop; the unit then travels hop by hop
    // and waits inside channel queues when a downstream hop is dry.
    Amount locked_total = 0;
    for (const ChunkPlan& chunk : plan) {
      Amount amount = std::min(chunk.amount, want - locked_total);
      if (config_.mtu > 0) amount = std::min(amount, config_.mtu);
      if (amount <= 0 || chunk.path == nullptr ||
          chunk.path->edges.empty())
        continue;
      const Path& path = *chunk.path;
      SPIDER_ASSERT_MSG(path.source() == p.src &&
                            path.destination() == p.dst,
                        "router produced a foreign path");
      if (fault_filter && path_fault_blocked(payment_index, path)) {
        p.fault_hit = true;
        continue;
      }
      Channel& first = network_->channel(path.edges[0]);
      const int side = first.side_of(path.nodes[0]);
      amount = std::min(amount, first.balance(side));
      if (amount <= 0) continue;
      network_->lock_one(path.edges[0], side, amount);
      const std::size_t ci = new_chunk(path, amount, payment_index);
      inflight_[ci].hops_locked = 1;
      p.inflight += amount;
      p.ever_locked = true;
      locked_total += amount;
      metrics_.chunks_sent += 1;
      metrics_.chunk_hops.add(
          static_cast<double>(inflight_[ci].path.length()));
      if (transport_on())
        router_->on_transport_send(inflight_[ci].path, amount, now());
      for (SimObserver* observer : observers_)
        observer->on_chunk_locked(inflight_[ci].path, amount, now());
      schedule_hop_travel(ci);
      if (locked_total >= want) break;
    }
    if (!paced && config_.retry_backoff > 0) arm_retry_backoff(p);
    return locked_total;
  }

  // Source-queue mode (§6.1): validate and lock whole paths sequentially.
  // Atomic payments must lock the full amount or nothing.
  std::vector<std::size_t> locked_chunks;
  Amount locked_total = 0;
  for (const ChunkPlan& chunk : plan) {
    Amount amount = std::min(chunk.amount, want - locked_total);
    if (config_.mtu > 0 && !p.atomic) amount = std::min(amount, config_.mtu);
    if (amount <= 0) continue;
    SPIDER_ASSERT_MSG(chunk.path != nullptr && !chunk.path->empty() &&
                          chunk.path->source() == p.src &&
                          chunk.path->destination() == p.dst,
                      "router produced a foreign path");
    const Path& path = *chunk.path;
    if (fault_filter && path_fault_blocked(payment_index, path)) {
      // For an atomic payment a blocked path leaves locked_total < want,
      // so the all-or-nothing rollback below fires as it should.
      p.fault_hit = true;
      continue;
    }
    if (!network_->can_send(path, amount)) {
      if (!p.atomic) {
        // Take whatever the path still supports.
        amount = std::min(amount, network_->path_bottleneck(path));
        if (amount <= 0) continue;
      } else {
        // Jointly infeasible atomic plan: roll back everything.
        for (std::size_t ci : locked_chunks) {
          network_->refund_path(inflight_[ci].path, inflight_[ci].amount);
          release_chunk_slot(ci);
        }
        p.inflight = 0;
        return 0;
      }
    }
    network_->lock_path(path, amount);
    const std::size_t ci = new_chunk(path, amount, payment_index);
    locked_chunks.push_back(ci);
    locked_total += amount;
    p.inflight += amount;
    p.ever_locked = true;
    if (locked_total >= want) break;
  }

  if (p.atomic && locked_total < want) {
    // Plan covered less than the full amount: atomic failure.
    for (std::size_t ci : locked_chunks) {
      network_->refund_path(inflight_[ci].path, inflight_[ci].amount);
      release_chunk_slot(ci);
    }
    p.inflight = 0;
    return 0;
  }

  // Schedule settlement Δ after the send (or, under faults, the chunk's
  // loss/grief refund — see schedule_chunk_outcome).
  for (std::size_t ci : locked_chunks) {
    metrics_.chunks_sent += 1;
    metrics_.chunk_hops.add(static_cast<double>(inflight_[ci].path.length()));
    if (transport_on())
      router_->on_transport_send(inflight_[ci].path, inflight_[ci].amount,
                                 now());
    for (SimObserver* observer : observers_)
      observer->on_chunk_locked(inflight_[ci].path, inflight_[ci].amount,
                                now());
    schedule_chunk_outcome(ci);
  }
  if (!paced && !p.atomic && config_.retry_backoff > 0) arm_retry_backoff(p);
  return locked_total;
}

void Simulator::arm_retry_backoff(Payment& p) {
  // After attempt k, wait retry_backoff * 2^(k-1); the shift cap keeps the
  // doubling from overflowing while staying far past any real deadline.
  const int shift = std::min(p.attempts - 1, 20);
  p.next_retry_at = now() + (config_.retry_backoff << shift);
}

void Simulator::schedule_chunk_outcome(std::size_t chunk_index) {
  const InflightChunk& chunk = inflight_[chunk_index];
  Duration hold = config_.delta;
  if (faults_.any_delay()) hold += faults_.max_extra_delay(chunk.path);
  bool doomed = false;
  if (faults_.any_loss()) {
    // One Bernoulli draw per lossy channel the chunk crosses, in hop
    // order: each channel's stream advances exactly once per message that
    // crosses it, on the commit thread — the determinism contract.
    for (const EdgeId e : chunk.path.edges) {
      if (faults_.drop_prob(e) <= 0.0) continue;
      if (faults_.draw_drop(e)) {
        metrics_.messages_dropped += 1;
        doomed = true;
      }
    }
  }
  const Duration grief =
      faults_.any_grief() ? faults_.grief_hold(chunk.path.destination()) : 0;
  if (grief > 0) {
    // A griefing receiver sits on the HTLC for the hold on top of the
    // normal confirmation delay before the sender's timeout claws it back.
    doomed = true;
    hold += grief;
  }
  push_event(now() + hold,
             doomed ? EventKind::kChunkFault : EventKind::kSettle,
             chunk_index, chunk.stamp);
}

void Simulator::schedule_hop_travel(std::size_t chunk_index) {
  const InflightChunk& chunk = inflight_[chunk_index];
  SPIDER_ASSERT(chunk.hops_locked >= 1);
  const EdgeId edge = chunk.path.edges[chunk.hops_locked - 1];
  if (faults_.any_loss() && faults_.drop_prob(edge) > 0.0 &&
      faults_.draw_drop(edge)) {
    // The message vanished crossing `edge`: its locked prefix sits stale
    // until the queueing timeout detects the loss and rolls it back.
    metrics_.messages_dropped += 1;
    push_event(now() + config_.queue_timeout, EventKind::kChunkFault,
               chunk_index, chunk.stamp);
    return;
  }
  Duration travel = config_.hop_delay;
  if (faults_.any_delay()) travel += faults_.extra_delay(edge);
  push_event(now() + travel, EventKind::kHopArrive, chunk_index, chunk.stamp);
}

void Simulator::accrue_fees(const Path& path, Amount amount) {
  if (path.length() < 2) return;  // direct channel: no intermediaries
  if (config_.fee_base == 0 && config_.fee_rate == 0.0) return;
  const auto intermediaries = static_cast<Amount>(path.length() - 1);
  const Amount per_hop =
      config_.fee_base +
      xrp_from_double(config_.fee_rate * to_xrp(amount));
  metrics_.fees_accrued += intermediaries * per_hop;
}

void Simulator::handle_settle(std::size_t chunk_index, std::uint64_t stamp) {
  SPIDER_ASSERT(config_.queueing == QueueingMode::kSourceQueue);
  // Work on the slot in place (nothing below touches the chunk table) and
  // recycle it at the end, so the path buffers stay pooled.
  const InflightChunk& chunk = inflight_[chunk_index];
  // A mismatched stamp means a channel close churned this chunk after its
  // settle was scheduled (release zeroed the stamp, or the slot carries a
  // fresh acquisition): the funds were already refunded, nothing to do.
  // In a zero-churn run stamps always match.
  if (chunk.stamp != stamp) return;
  // Settle events are only scheduled for committed chunks, and a committed
  // chunk's slot is released nowhere but here or a churn abort (stamp
  // checked above) — so the slot must be live. (Atomic rollbacks in
  // attempt() release their slots before any settle is scheduled.) A zero
  // amount would mean a stale event hit a recycled slot: corruption, not a
  // condition to skip quietly.
  SPIDER_ASSERT(chunk.amount > 0);

  network_->settle_path(chunk.path, chunk.amount);
  accrue_fees(chunk.path, chunk.amount);
  Payment& p = payments_[chunk.payment];
  SPIDER_ASSERT(p.inflight >= chunk.amount);
  p.inflight -= chunk.amount;
  p.delivered += chunk.amount;
  metrics_.delivered_volume += chunk.amount;
  // Source-queue mode has no router queues, so the ack never carries a mark.
  if (transport_on())
    router_->on_transport_ack(chunk.path, chunk.amount, /*marked=*/false,
                              now() - chunk.sent_at, now());
  for (SimObserver* observer : observers_)
    observer->on_chunk_settled(chunk.path, chunk.amount, now());

  if (p.status == PaymentStatus::kPending && p.delivered == p.total)
    finish_payment(chunk.payment, PaymentStatus::kCompleted);
  release_chunk_slot(chunk_index);
}

void Simulator::handle_hop_arrive(std::size_t chunk_index,
                                  std::uint64_t stamp) {
  InflightChunk& chunk = inflight_[chunk_index];
  if (chunk.stamp != stamp) return;  // churned after scheduling: stale
  SPIDER_ASSERT(chunk.amount > 0);
  SPIDER_ASSERT(!chunk.queued);
  if (chunk.hops_locked == chunk.path.length()) {
    const Duration grief =
        faults_.any_grief() ? faults_.grief_hold(chunk.path.destination())
                            : 0;
    if (grief > 0) {
      // The receiver black-holes the unit: every upstream lock is held for
      // the grief hold, then the sender's timeout refunds the chain.
      push_event(now() + grief, EventKind::kChunkFault, chunk_index,
                 chunk.stamp);
      return;
    }
    complete_chunk(chunk_index);
    return;
  }
  // The "fail at the next hop" arm of a channel close: a unit whose next
  // hop closed under it rolls back instead of queueing on a dead channel.
  if (network_->graph().edge_closed(chunk.path.edges[chunk.hops_locked])) {
    metrics_.chunks_churned += 1;
    payments_[chunk.payment].churn_hit = true;
    abort_chunk(chunk_index);
    return;
  }
  if (try_lock_next_hop(chunk_index)) {
    schedule_hop_travel(chunk_index);
    return;
  }
  // Dry channel: wait inside its queue (Fig. 3), upstream locks held.
  const EdgeId edge = chunk.path.edges[chunk.hops_locked];
  const Channel& ch = network_->channel(edge);
  const int side = ch.side_of(chunk.path.nodes[chunk.hops_locked]);
  chunk.queued = true;
  chunk.queued_at = now();
  chunk.stamp = next_stamp_++;
  queue_push_back(edge, side, chunk_index);
  transport_queues_.on_enqueue(static_cast<std::size_t>(edge), side,
                               chunk.amount);
  metrics_.chunks_queued += 1;
  push_event(now() + config_.queue_timeout, EventKind::kQueueTimeout,
             chunk_index, chunk.stamp);
}

bool Simulator::try_lock_next_hop(std::size_t chunk_index) {
  InflightChunk& chunk = inflight_[chunk_index];
  const EdgeId edge = chunk.path.edges[chunk.hops_locked];
  Channel& ch = network_->channel(edge);
  const int side = ch.side_of(chunk.path.nodes[chunk.hops_locked]);
  if (!ch.can_lock(side, chunk.amount)) return false;
  network_->lock_one(edge, side, chunk.amount);
  ++chunk.hops_locked;
  return true;
}

void Simulator::complete_chunk(std::size_t chunk_index) {
  // Work on the slot in place: serve_channel_queue only mutates OTHER
  // chunks' state (it never grows the chunk table), so the reference stays
  // valid; the slot is recycled at the very end.
  const InflightChunk& chunk = inflight_[chunk_index];
  SPIDER_ASSERT(chunk.hops_locked == chunk.path.length());

  for (std::size_t h = 0; h < chunk.path.edges.size(); ++h) {
    const Channel& ch = network_->channel(chunk.path.edges[h]);
    network_->settle_one(chunk.path.edges[h],
                         ch.side_of(chunk.path.nodes[h]), chunk.amount);
  }
  accrue_fees(chunk.path, chunk.amount);
  Payment& p = payments_[chunk.payment];
  SPIDER_ASSERT(p.inflight >= chunk.amount);
  p.inflight -= chunk.amount;
  p.delivered += chunk.amount;
  metrics_.delivered_volume += chunk.amount;
  // The ack carries the one-bit mark home: set iff the unit outwaited the
  // marking threshold inside any channel queue on the way (§5.2).
  if (transport_on())
    router_->on_transport_ack(chunk.path, chunk.amount, chunk.marked,
                              now() - chunk.sent_at, now());
  for (SimObserver* observer : observers_)
    observer->on_chunk_settled(chunk.path, chunk.amount, now());
  if (p.status == PaymentStatus::kPending && p.delivered == p.total)
    finish_payment(chunk.payment, PaymentStatus::kCompleted);

  // Settling credited the downstream side of every hop: serve the waiters.
  for (std::size_t h = 0; h < chunk.path.edges.size(); ++h) {
    const Channel& ch = network_->channel(chunk.path.edges[h]);
    serve_channel_queue(chunk.path.edges[h],
                        1 - ch.side_of(chunk.path.nodes[h]));
  }
  release_chunk_slot(chunk_index);
}

void Simulator::abort_chunk(std::size_t chunk_index) {
  const InflightChunk& chunk = inflight_[chunk_index];
  SPIDER_ASSERT(!chunk.queued);
  for (std::size_t h = 0; h < chunk.hops_locked; ++h) {
    const Channel& ch = network_->channel(chunk.path.edges[h]);
    network_->refund_one(chunk.path.edges[h],
                         ch.side_of(chunk.path.nodes[h]), chunk.amount);
  }
  Payment& p = payments_[chunk.payment];
  SPIDER_ASSERT(p.inflight >= chunk.amount);
  p.inflight -= chunk.amount;
  if (transport_on())
    router_->on_transport_loss(chunk.path, chunk.amount, now());
  // The refunded remainder becomes sendable again — unless the deadline
  // already passed, in which case the payment must be expired HERE: it may
  // have left the pending set (everything inflight), so no poll round will
  // ever see it again, and skipping it would leak a forever-kPending
  // payment that no terminal counter records.
  if (p.status == PaymentStatus::kPending && p.remaining() > 0) {
    if (now() < p.deadline)
      ensure_pending(chunk.payment);
    else
      expire(chunk.payment);
  }
  // Refunds credited the upstream side of the locked hops.
  for (std::size_t h = 0; h < chunk.hops_locked; ++h) {
    const Channel& ch = network_->channel(chunk.path.edges[h]);
    serve_channel_queue(chunk.path.edges[h],
                        ch.side_of(chunk.path.nodes[h]));
  }
  release_chunk_slot(chunk_index);
}

void Simulator::handle_queue_timeout(std::size_t chunk_index,
                                     std::uint64_t stamp) {
  InflightChunk& chunk = inflight_[chunk_index];
  if (!chunk.queued || chunk.stamp != stamp) return;  // served meanwhile
  const EdgeId edge = chunk.path.edges[chunk.hops_locked];
  const Channel& ch = network_->channel(edge);
  const int side = ch.side_of(chunk.path.nodes[chunk.hops_locked]);
  queue_remove(edge, side, chunk_index);  // O(1) via the intrusive links
  chunk.queued = false;
  // Bank accounting only — a timed-out unit aborts below, and the loss
  // feedback already triggers the controller's decrease; no mark counted.
  (void)transport_queues_.on_dequeue(static_cast<std::size_t>(edge), side,
                                     chunk.amount, now() - chunk.queued_at);
  metrics_.queue_timeouts += 1;
  metrics_.queue_wait_s.add(to_seconds(now() - chunk.queued_at));
  queue_wait_samples_.push_back(to_seconds(now() - chunk.queued_at));
  abort_chunk(chunk_index);
  // The departed unit may have been the head-of-line blocker: smaller units
  // behind it can possibly be served from the funds already there.
  serve_channel_queue(edge, side);
}

void Simulator::serve_channel_queue(EdgeId edge, int side) {
  if (config_.queueing != QueueingMode::kRouterQueue) return;
  ChannelQueue& queue = channel_queues_[static_cast<std::size_t>(edge)]
                                       [static_cast<std::size_t>(side)];
  while (queue.head >= 0) {
    const auto ci = static_cast<std::size_t>(queue.head);
    InflightChunk& chunk = inflight_[ci];
    SPIDER_ASSERT(chunk.queued);
    Channel& ch = network_->channel(edge);
    if (!ch.can_lock(side, chunk.amount)) break;  // head-of-line blocking
    queue_remove(edge, side, ci);
    network_->lock_one(edge, side, chunk.amount);
    ++chunk.hops_locked;
    chunk.queued = false;
    note_dequeue(ci, edge, side, now() - chunk.queued_at);
    metrics_.queue_wait_s.add(to_seconds(now() - chunk.queued_at));
    queue_wait_samples_.push_back(to_seconds(now() - chunk.queued_at));
    chunk.stamp = next_stamp_++;  // invalidate the pending timeout
    schedule_hop_travel(ci);
  }
}

void Simulator::note_dequeue(std::size_t chunk_index, EdgeId edge, int side,
                             Duration wait) {
  InflightChunk& chunk = inflight_[chunk_index];
  const bool over_threshold = transport_queues_.on_dequeue(
      static_cast<std::size_t>(edge), side, chunk.amount, wait);
  if (transport_on() && over_threshold && !chunk.marked) {
    chunk.marked = true;  // one bit: further marks on the unit are no-ops
    transport_queues_.count_mark();
    metrics_.chunks_marked += 1;
  }
}

void Simulator::handle_transport_pace() {
  pace_scheduled_ = false;
  if (pending_.empty()) return;  // chain runs dry; ensure_pending re-arms
  metrics_.pace_rounds += 1;
  // Re-offer pending payments in place, compacting finished ones. Unlike a
  // poll round there is no scheduler reordering and no deadline expiry —
  // both stay the poll's job, so pacing changes WHEN value releases, never
  // which payment wins contention at a poll.
  std::size_t write = 0;
  for (std::size_t read = 0; read < pending_.size(); ++read) {
    const std::size_t pi = pending_[read];
    Payment& p = payments_[pi];
    if (p.status != PaymentStatus::kPending) {
      in_pending_[pi] = 0;
      continue;
    }
    if (p.remaining() > 0 && now() < p.deadline && p.next_retry_at <= now())
      attempt(pi, /*paced=*/true);
    const bool unfinished_business =
        p.status == PaymentStatus::kPending &&
        (p.remaining() > 0 || p.inflight > 0);
    if (unfinished_business) {
      pending_[write++] = pi;
    } else {
      in_pending_[pi] = 0;
    }
  }
  pending_.resize(write);
  if (!pending_.empty() && !pace_scheduled_) {
    push_event(now() + config_.transport.pace_interval,
               EventKind::kTransportPace, 0);
    pace_scheduled_ = true;
  }
}

void Simulator::handle_rebalance() {
  // Allocate this tick's deposit budget across channel sides in proportion
  // to how far each has fallen below its initial share (§5.2.3's b_(u,v),
  // discretized).
  const double interval_s = to_seconds(config_.rebalance_interval);
  const Amount budget =
      xrp_from_double(config_.rebalance_rate_xrp_per_s * interval_s);
  Amount total_deficit = 0;
  const auto num_edges =
      static_cast<std::size_t>(network_->graph().num_edges());
  std::vector<std::array<Amount, 2>> deficits(num_edges, {0, 0});
  for (std::size_t e = 0; e < num_edges; ++e) {
    const Channel& ch = network_->channel(static_cast<EdgeId>(e));
    // A closed channel reads as fully depleted against its initial share,
    // but its escrow went back on-chain — depositing onto it is a
    // financial error (Channel::deposit asserts), so it neither counts
    // toward the deficit nor receives a share.
    if (ch.closed()) continue;
    for (int side = 0; side < 2; ++side) {
      const Amount deficit = std::max<Amount>(
          0, initial_side_funds_[e][static_cast<std::size_t>(side)] -
                 ch.balance(side));
      deficits[e][static_cast<std::size_t>(side)] = deficit;
      total_deficit += deficit;
    }
  }
  if (total_deficit > 0 && budget > 0) {
    for (std::size_t e = 0; e < num_edges; ++e) {
      for (int side = 0; side < 2; ++side) {
        const Amount deficit = deficits[e][static_cast<std::size_t>(side)];
        if (deficit == 0) continue;
        // 128-bit-safe proportional share (budget, deficit fit in 63 bits
        // but their product may not).
        const Amount share = static_cast<Amount>(
            static_cast<__int128>(budget) * deficit / total_deficit);
        if (share <= 0) continue;
        network_->deposit_one(static_cast<EdgeId>(e), side, share);
        metrics_.onchain_deposited += share;
        serve_channel_queue(static_cast<EdgeId>(e), side);
      }
    }
  }
  // Keep ticking while there is still work the deposits could help.
  if (next_arrival_ < trace_base_ + trace_->size() || !pending_.empty()) {
    push_event(now() + config_.rebalance_interval, EventKind::kRebalance, 0);
    rebalance_scheduled_ = true;
  }
}

void Simulator::handle_topology(std::size_t change_index) {
  const TopologyChange& change = (*topo_trace_)[change_index];
  // Chain the next change first (like arrivals) so the event order does not
  // depend on what this change does to the network.
  topo_scheduled_ = false;
  ++next_topo_;
  sync_topology_chain();

  switch (change.kind) {
    case TopologyChange::Kind::kClose:
      // Order matters for conservation: chunks refund their locks back
      // into the channel, THEN the close sweeps the whole spendable
      // balance on-chain — so the closing channel's full capacity is
      // accounted (escrow_returned) and no in-flight funds are stranded.
      churn_fail_channel(change.edge);
      metrics_.escrow_returned += network_->close_channel(change.edge);
      metrics_.channels_closed += 1;
      break;
    case TopologyChange::Kind::kOpen: {
      const EdgeId e = network_->apply(change);
      // Grow the per-edge side tables the engine keeps flat.
      channel_queues_.push_back({ChannelQueue{}, ChannelQueue{}});
      transport_queues_.grow(
          static_cast<std::size_t>(network_->graph().num_edges()));
      faults_.grow_edges(network_->graph().num_edges());
      const Channel& ch = network_->channel(e);
      initial_side_funds_.push_back({ch.balance(0), ch.balance(1)});
      metrics_.channels_opened += 1;
      break;
    }
    case TopologyChange::Kind::kDeposit:
      (void)network_->apply(change);
      metrics_.onchain_deposited += change.amount;
      // Fresh funds on (edge, side) may admit queued units (router-queue).
      serve_channel_queue(change.edge, change.side);
      break;
  }
  metrics_.topology_changes += 1;
  for (SimObserver* observer : observers_)
    observer->on_topology_change(change, *network_, now());
}

void Simulator::churn_fail_channel(EdgeId closing) {
  if (config_.queueing == QueueingMode::kRouterQueue) {
    // Units waiting inside the closing channel's queues go first: their
    // next hop is about to vanish, so they roll back like a timeout would.
    for (int side = 0; side < 2; ++side) {
      const ChannelQueue& queue =
          channel_queues_[static_cast<std::size_t>(closing)]
                         [static_cast<std::size_t>(side)];
      while (queue.head >= 0)
        forced_abort_chunk(static_cast<std::size_t>(queue.head), closing,
                           AbortCause::kChurn);
    }
  }
  // Then every chunk still holding locked funds on the channel: in
  // source-queue mode a committed chunk holds funds at every hop; in
  // router-queue mode on its locked prefix.
  for (std::size_t ci = 0; ci < inflight_.size(); ++ci) {
    const InflightChunk& chunk = inflight_[ci];
    if (chunk.amount <= 0) continue;
    const std::size_t holds =
        config_.queueing == QueueingMode::kRouterQueue
            ? chunk.hops_locked
            : chunk.path.edges.size();
    bool affected = false;
    for (std::size_t h = 0; h < holds && !affected; ++h)
      affected = chunk.path.edges[h] == closing;
    if (affected) forced_abort_chunk(ci, closing, AbortCause::kChurn);
  }
}

void Simulator::forced_abort_chunk(std::size_t chunk_index, EdgeId closing,
                                   AbortCause cause) {
  InflightChunk& chunk = inflight_[chunk_index];
  SPIDER_ASSERT(chunk.amount > 0);
  if (chunk.queued) {
    const EdgeId qe = chunk.path.edges[chunk.hops_locked];
    const Channel& qch = network_->channel(qe);
    const int qside = qch.side_of(chunk.path.nodes[chunk.hops_locked]);
    queue_remove(qe, qside, chunk_index);
    chunk.queued = false;
    // Bank accounting only — the unit is failing, so the loss feedback
    // below already drives the controller's decrease; no mark counted.
    (void)transport_queues_.on_dequeue(static_cast<std::size_t>(qe), qside,
                                       chunk.amount, now() - chunk.queued_at);
    metrics_.queue_wait_s.add(to_seconds(now() - chunk.queued_at));
    queue_wait_samples_.push_back(to_seconds(now() - chunk.queued_at));
  }
  const std::size_t locked_hops =
      config_.queueing == QueueingMode::kRouterQueue
          ? chunk.hops_locked
          : chunk.path.edges.size();
  for (std::size_t h = 0; h < locked_hops; ++h) {
    const Channel& ch = network_->channel(chunk.path.edges[h]);
    network_->refund_one(chunk.path.edges[h],
                         ch.side_of(chunk.path.nodes[h]), chunk.amount);
  }
  const std::size_t payment_index = chunk.payment;
  Payment& p = payments_[payment_index];
  SPIDER_ASSERT(p.inflight >= chunk.amount);
  p.inflight -= chunk.amount;
  if (cause == AbortCause::kChurn) {
    metrics_.chunks_churned += 1;
    p.churn_hit = true;
  } else {
    metrics_.chunks_faulted += 1;
    p.fault_hit = true;
  }
  if (transport_on())
    router_->on_transport_loss(chunk.path, chunk.amount, now());
  // Serve waiters on the released upstream hops — but never on the closing
  // channel itself: re-locking funds on it would strand them mid-sweep
  // (kInvalidEdge for fault aborts: every released hop may admit waiters).
  for (std::size_t h = 0; h < locked_hops; ++h) {
    if (chunk.path.edges[h] == closing) continue;
    const Channel& ch = network_->channel(chunk.path.edges[h]);
    serve_channel_queue(chunk.path.edges[h],
                        ch.side_of(chunk.path.nodes[h]));
  }
  release_chunk_slot(chunk_index);  // zeroes the stamp: pending events die

  if (p.atomic) {
    // All-or-nothing delivery is broken: the payment fails and its sibling
    // chunks (untouched by the closing channel) roll back too.
    if (p.status == PaymentStatus::kPending)
      finish_payment(payment_index, PaymentStatus::kRejected);
    for (std::size_t other = 0; other < inflight_.size(); ++other) {
      if (other == chunk_index) continue;
      const InflightChunk& sibling = inflight_[other];
      if (sibling.amount > 0 && sibling.payment == payment_index)
        forced_abort_chunk(other, closing, cause);
    }
  } else if (p.status == PaymentStatus::kPending && p.remaining() > 0) {
    // The refunded remainder becomes sendable again at the next poll; past
    // the deadline the payment expires here instead (it may no longer be in
    // the pending set, so no poll would ever expire it — see abort_chunk).
    if (now() < p.deadline)
      ensure_pending(payment_index);
    else
      expire(payment_index);
  }
}

namespace {

/// FNV-1a over the path's edge sequence — the blacklist key. Edge ids are
/// append-only, so a hash identifies one path for the run's whole lifetime.
std::uint64_t path_hash(const Path& path) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const EdgeId e : path.edges) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(e));
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

void Simulator::handle_fault(std::size_t fault_index) {
  // By value: an observer hook could legally append to the fault vector.
  const FaultEvent fault = (*fault_trace_)[fault_index];
  // Chain the next fault first (like arrivals/topology) so the event order
  // does not depend on what this fault does to the network.
  fault_scheduled_ = false;
  ++next_fault_;
  sync_fault_chain();

  const NodeId num_nodes = network_->graph().num_nodes();
  const EdgeId num_edges = network_->graph().num_edges();
  switch (fault.kind) {
    case FaultEvent::Kind::kNodeCrash:
      SPIDER_ASSERT(fault.node >= 0 && fault.node < num_nodes);
      (void)faults_.set_node_down(fault.node);
      fault_fail_node(fault.node);
      break;
    case FaultEvent::Kind::kNodeStall: {
      SPIDER_ASSERT(fault.node >= 0 && fault.node < num_nodes);
      const std::uint32_t epoch = faults_.set_node_down(fault.node);
      fault_fail_node(fault.node);
      // Auto-recovery carries the epoch as its stamp: a later crash,
      // stall, or explicit recover bumps the epoch and invalidates it, so
      // only the LATEST stall's end brings the node back.
      push_event(now() + fault.duration, EventKind::kFaultRecover,
                 static_cast<std::size_t>(fault.node), epoch);
      break;
    }
    case FaultEvent::Kind::kNodeRecover:
      SPIDER_ASSERT(fault.node >= 0 && fault.node < num_nodes);
      faults_.set_node_up(fault.node);
      break;
    case FaultEvent::Kind::kChannelLoss:
      SPIDER_ASSERT(fault.edge >= 0 && fault.edge < num_edges);
      faults_.set_loss(fault.edge, fault.probability);
      break;
    case FaultEvent::Kind::kSettleDelay:
      SPIDER_ASSERT(fault.edge >= 0 && fault.edge < num_edges);
      faults_.set_settle_delay(fault.edge, fault.duration);
      break;
    case FaultEvent::Kind::kGrief:
      SPIDER_ASSERT(fault.node >= 0 && fault.node < num_nodes);
      faults_.set_grief(fault.node, fault.duration);
      break;
  }
  metrics_.faults_injected += 1;
  for (SimObserver* observer : observers_)
    observer->on_fault(fault, *network_, now());
}

void Simulator::handle_fault_recover(std::size_t node_index,
                                     std::uint64_t stamp) {
  const auto node = static_cast<NodeId>(node_index);
  if (faults_.node_epoch(node) != stamp) return;  // superseded: stale
  faults_.set_node_up(node);
}

void Simulator::fault_fail_node(NodeId node) {
  // Every live chunk whose path crosses the node fails with a
  // conservation-checked refund: the down router stops forwarding and
  // settling, and the sender's HTLC timeout claws the locks back. Index
  // order keeps the sweep deterministic.
  for (std::size_t ci = 0; ci < inflight_.size(); ++ci) {
    const InflightChunk& chunk = inflight_[ci];
    if (chunk.amount <= 0) continue;
    bool crosses = false;
    for (const NodeId n : chunk.path.nodes) {
      if (n == node) {
        crosses = true;
        break;
      }
    }
    if (crosses) forced_abort_chunk(ci, kInvalidEdge, AbortCause::kFault);
  }
}

void Simulator::handle_chunk_fault(std::size_t chunk_index,
                                   std::uint64_t stamp) {
  const InflightChunk& chunk = inflight_[chunk_index];
  // A close or node fault may have refunded the chunk after its doom was
  // scheduled (release zeroed the stamp / the slot was reacquired).
  if (chunk.stamp != stamp) return;
  SPIDER_ASSERT(chunk.amount > 0);
  SPIDER_ASSERT(!chunk.queued);
  // The sender watched this path swallow a unit: skip it on retries.
  blacklist_path(chunk.payment, chunk.path);
  forced_abort_chunk(chunk_index, kInvalidEdge, AbortCause::kFault);
}

bool Simulator::path_fault_blocked(std::size_t payment_index,
                                   const Path& path) const {
  if (faults_.any_node_down() && faults_.path_blocked(path)) return true;
  if (!blacklists_.empty()) {
    const auto it = blacklists_.find(payment_index);
    if (it != blacklists_.end()) {
      const std::uint64_t h = path_hash(path);
      for (const std::uint64_t b : it->second)
        if (b == h) return true;
    }
  }
  return false;
}

void Simulator::blacklist_path(std::size_t payment_index, const Path& path) {
  std::vector<std::uint64_t>& list = blacklists_[payment_index];
  const std::uint64_t h = path_hash(path);
  for (const std::uint64_t b : list)
    if (b == h) return;
  list.push_back(h);
}

void Simulator::handle_poll() {
  if (pending_.empty()) return;
  metrics_.retry_rounds += 1;
  for (SimObserver* observer : observers_)
    observer->on_poll_round(pending_.size(), now());
  if (queue_bank_active()) {
    for (SimObserver* observer : observers_)
      observer->on_queue_depths(transport_queues_, now());
  }
  router_->on_tick(*network_, now());

  // Expire overdue payments first (compacting the survivors in place), then
  // serve the rest in policy order. The pending array is compacted and
  // sorted in place and moved through schedule_order, so steady-state
  // polling never reallocates.
  std::size_t write = 0;
  for (std::size_t pi : pending_) {
    Payment& p = payments_[pi];
    in_pending_[pi] = 0;
    if (p.status != PaymentStatus::kPending) continue;  // completed meanwhile
    if (now() >= p.deadline) {
      expire(pi);
      continue;
    }
    pending_[write++] = pi;
  }
  pending_.resize(write);
  pending_ = schedule_order(config_.scheduler, payments_,
                            std::move(pending_));

  write = 0;
  for (std::size_t read = 0; read < pending_.size(); ++read) {
    const std::size_t pi = pending_[read];
    Payment& p = payments_[pi];
    if (p.status != PaymentStatus::kPending) continue;
    if (p.remaining() > 0) {
      if (config_.retry_limit > 0 && p.attempts >= config_.retry_limit) {
        // Retries exhausted with value still unrouted: the sender gives up
        // now instead of waiting out the deadline. In-flight chunks still
        // settle (their keys are released); only the remainder is dropped.
        finish_payment(pi, PaymentStatus::kExpired);
        continue;
      }
      // Backoff gate: the payment stays pending but is not re-attempted
      // until its exponential-backoff window elapses.
      if (p.next_retry_at <= now()) attempt(pi);
    }
    const bool unfinished_business =
        p.status == PaymentStatus::kPending &&
        (p.remaining() > 0 || p.inflight > 0);
    if (unfinished_business) {
      pending_[write++] = pi;
      in_pending_[pi] = 1;
    }
  }
  pending_.resize(write);

  if (!pending_.empty() && !poll_scheduled_) {
    push_event(now() + config_.poll_interval, EventKind::kPoll, 0);
    poll_scheduled_ = true;
  }
}

void Simulator::expire(std::size_t payment_index) {
  Payment& p = payments_[payment_index];
  // Inflight chunks still settle (their keys are in flight); only the
  // never-sent remainder is abandoned.
  if (p.delivered != p.total) metrics_.deadline_misses += 1;
  finish_payment(payment_index,
                 p.delivered == p.total ? PaymentStatus::kCompleted
                                        : PaymentStatus::kExpired);
}

void Simulator::finish_payment(std::size_t payment_index,
                               PaymentStatus status) {
  Payment& p = payments_[payment_index];
  SPIDER_ASSERT(p.status == PaymentStatus::kPending);
  p.status = status;
  // Split failures by cause (admission refusals keep their own counter).
  // Precedence: a fault killed one of its chunks/paths beats churn beats
  // never-routed beats plain timeout — see metrics.hpp for the invariant.
  if ((status == PaymentStatus::kExpired ||
       status == PaymentStatus::kRejected) &&
      !p.refused) {
    if (p.fault_hit)
      metrics_.failed_fault += 1;
    else if (p.churn_hit)
      metrics_.failed_churn += 1;
    else if (!p.ever_locked)
      metrics_.failed_no_path += 1;
    else
      metrics_.failed_timeout += 1;
  }
  switch (status) {
    case PaymentStatus::kCompleted:
      p.completed_at = now();
      metrics_.completed_count += 1;
      metrics_.completed_volume += p.total;
      if (p.attempts > 1) metrics_.completion_after_retry += 1;
      metrics_.completion_latency_s.add(to_seconds(now() - p.arrival));
      for (SimObserver* observer : observers_)
        observer->on_payment_complete(p, now());
      break;
    case PaymentStatus::kExpired:
      metrics_.expired_count += 1;
      for (SimObserver* observer : observers_)
        observer->on_payment_failed(p, now());
      break;
    case PaymentStatus::kRejected:
      metrics_.rejected_count += 1;
      for (SimObserver* observer : observers_)
        observer->on_payment_failed(p, now());
      break;
    case PaymentStatus::kPending: break;
  }
  // The payment is settled history; its fault blacklist (if any) is dead
  // weight now. Hot path pays one emptiness check.
  if (!blacklists_.empty()) blacklists_.erase(payment_index);
}

void init_router_for_run(Router& router, const Network& network,
                         const SimConfig& config,
                         const std::vector<PaymentSpec>* demand_trace,
                         const PathCache* shared_paths) {
  // Routers copy what they need from the context, so the estimated demand
  // matrix can be a local.
  const NodeId num_nodes = network.graph().num_nodes();
  const PaymentGraph demands =
      demand_trace != nullptr
          ? estimate_demand_matrix(num_nodes, *demand_trace)
          : PaymentGraph(num_nodes);
  RouterInitContext context;
  context.demand_hint = &demands;
  context.delta_seconds = to_seconds(config.delta);
  context.shared_paths = shared_paths;
  router.init(network, context);
}

SimMetrics run_simulation(const Graph& graph, Router& router,
                          const std::vector<PaymentSpec>& trace,
                          const SimConfig& config,
                          const PathCache* shared_paths) {
  Network network(graph);
  init_router_for_run(router, network, config, &trace, shared_paths);
  Simulator sim(network, router, config);
  return sim.run(trace);
}

}  // namespace spider

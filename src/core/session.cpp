#include "core/session.hpp"

namespace spider {

namespace {

/// Transport-dependent schemes (scheme_requires_transport) only function
/// with router queues live and the AIMD feedback flowing; when the caller
/// left the transport off, turn it on (paper-default knobs) and switch to
/// router-queue mode. A caller that explicitly enabled the transport keeps
/// every knob as set, including its chosen queueing mode.
SpiderConfig apply_transport_defaults(SpiderConfig config, Scheme scheme) {
  if (scheme_requires_transport(scheme) && !config.sim.transport.enabled) {
    config.sim.transport.enabled = true;
    config.sim.queueing = QueueingMode::kRouterQueue;
  }
  return config;
}

}  // namespace

struct SimSession::State {
  SpiderConfig config;
  Scheme scheme;
  Network network;
  std::unique_ptr<Router> router;
  Simulator sim;
  // The trace buffer the simulator's arrival chain reads. Appended to by
  // submit(); release_replayed() may erase a fully-consumed prefix (the
  // simulator rebases via trace_released). The vector object itself stays
  // put (the simulator holds a pointer to it, not into it).
  std::vector<PaymentSpec> trace;
  // Lifetime submission count — trace.size() no longer is one once a
  // replay starts releasing consumed entries.
  std::size_t submitted_total = 0;
  // The growing topology-change stream, same contract as `trace`.
  std::vector<TopologyChange> churn;
  // The growing fault-event stream, same contract as `churn`.
  std::vector<FaultEvent> faults;

  State(const Graph& topology, const SpiderConfig& cfg, Scheme s,
        const SessionOptions& options, const PathCache* shared_paths)
      : config(apply_transport_defaults(cfg, s)),
        scheme(s),
        network(topology),
        router(make_router(s, config)),
        sim(network, *router, config.sim) {
    init_router_for_run(*router, network, config.sim, options.demand_hint,
                        shared_paths);
    sim.set_metrics_window(options.metrics_window);
    sim.begin(trace);
    sim.begin_topology(churn);
    sim.begin_faults(faults);
  }
};

SimSession::SimSession(const Graph& topology, const SpiderConfig& config,
                       Scheme scheme, const SessionOptions& options,
                       const PathCache* shared_paths)
    : state_(std::make_unique<State>(topology, config, scheme, options,
                                     shared_paths)) {}

SimSession::~SimSession() = default;
SimSession::SimSession(SimSession&&) noexcept = default;
SimSession& SimSession::operator=(SimSession&&) noexcept = default;

void SimSession::submit(const PaymentSpec& spec) { submit(&spec, 1); }

void SimSession::submit(const PaymentSpec* specs, std::size_t count) {
  if (count == 0) return;
  State& s = *state_;
  // Validate the whole span before mutating anything, so a rejected span
  // leaves the session exactly as it was (no half-committed prefix whose
  // arrivals were never scheduled).
  TimePoint last =
      s.trace.empty() ? s.sim.horizon() : s.trace.back().arrival;
  for (std::size_t i = 0; i < count; ++i) {
    // horizon(), not now(): advance_until declares time passed (and rolls
    // metric windows) up to its horizon, so arrivals before it would land
    // in windows already emitted.
    SPIDER_ASSERT_MSG(specs[i].arrival >= s.sim.horizon(),
                      "submitted payment arrives in the clock's past");
    SPIDER_ASSERT_MSG(specs[i].arrival >= last,
                      "submissions must be in nondecreasing arrival order");
    last = specs[i].arrival;
  }
  s.trace.insert(s.trace.end(), specs, specs + count);
  s.submitted_total += count;
  s.sim.trace_extended();
}

void SimSession::submit(const std::vector<PaymentSpec>& specs) {
  submit(specs.data(), specs.size());
}

void SimSession::submit_topology(const TopologyChange& change) {
  submit_topology(&change, 1);
}

void SimSession::submit_topology(const TopologyChange* changes,
                                 std::size_t count) {
  if (count == 0) return;
  State& s = *state_;
  // Same validate-then-commit discipline as submit(): a rejected span
  // leaves the churn stream exactly as it was.
  TimePoint last = s.churn.empty() ? s.sim.horizon() : s.churn.back().at;
  for (std::size_t i = 0; i < count; ++i) {
    SPIDER_ASSERT_MSG(changes[i].at >= s.sim.horizon(),
                      "submitted topology change occurs in the clock's past");
    SPIDER_ASSERT_MSG(changes[i].at >= last,
                      "topology changes must be in nondecreasing time order");
    last = changes[i].at;
  }
  s.churn.insert(s.churn.end(), changes, changes + count);
  s.sim.topology_extended();
}

void SimSession::submit_topology(const std::vector<TopologyChange>& changes) {
  submit_topology(changes.data(), changes.size());
}

void SimSession::submit_faults(const FaultEvent& fault) {
  submit_faults(&fault, 1);
}

void SimSession::submit_faults(const FaultEvent* faults, std::size_t count) {
  if (count == 0) return;
  State& s = *state_;
  // Same validate-then-commit discipline as submit_topology(): a rejected
  // span leaves the fault stream exactly as it was.
  TimePoint last = s.faults.empty() ? s.sim.horizon() : s.faults.back().at;
  for (std::size_t i = 0; i < count; ++i) {
    SPIDER_ASSERT_MSG(faults[i].at >= s.sim.horizon(),
                      "submitted fault occurs in the clock's past");
    SPIDER_ASSERT_MSG(faults[i].at >= last,
                      "faults must be in nondecreasing time order");
    last = faults[i].at;
  }
  s.faults.insert(s.faults.end(), faults, faults + count);
  s.sim.faults_extended();
}

void SimSession::submit_faults(const std::vector<FaultEvent>& faults) {
  submit_faults(faults.data(), faults.size());
}

void SimSession::attach(SimObserver& observer) { state_->sim.attach(observer); }

std::size_t SimSession::advance_until(TimePoint horizon) {
  return state_->sim.advance_until(horizon);
}

std::size_t SimSession::release_replayed() {
  State& s = *state_;
  const std::size_t count = s.sim.trace_releasable();
  if (count == 0) return 0;
  s.trace.erase(s.trace.begin(),
                s.trace.begin() + static_cast<std::ptrdiff_t>(count));
  s.sim.trace_released(count);
  return count;
}

SimMetrics SimSession::drain() {
  state_->sim.drain();
  return state_->sim.metrics();
}

SimMetrics SimSession::metrics() const { return state_->sim.metrics(); }

TimePoint SimSession::now() const { return state_->sim.now(); }

bool SimSession::idle() const { return state_->sim.idle(); }

std::size_t SimSession::submitted() const {
  return state_->submitted_total;
}

std::size_t SimSession::buffered() const { return state_->trace.size(); }

Scheme SimSession::scheme() const { return state_->scheme; }

const Router& SimSession::router() const { return *state_->router; }

const std::vector<Payment>& SimSession::payments() const {
  return state_->sim.payments();
}

std::size_t SimSession::submitted_topology() const {
  return state_->churn.size();
}

std::size_t SimSession::submitted_faults() const {
  return state_->faults.size();
}

Network& SimSession::network() {
  // Handing out mutable network access IS a topology/capacity mutation as
  // far as routers can tell (they cannot observe what the caller does with
  // it), so raise the same generation bump the scheduled-churn path does.
  // Previously such mutations were silent and routers kept planning over
  // stale topology-derived state.
  state_->network.note_external_mutation();
  return state_->network;
}

const Network& SimSession::network() const { return state_->network; }

}  // namespace spider

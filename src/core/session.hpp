// SimSession — the streaming run surface of the experiment layer.
//
// A session is one live simulation: a fresh Network over the façade's
// topology, the scheme's router, and a resumable Simulator. Where
// SpiderNetwork::run() swallows a whole trace and returns one lifetime
// aggregate, a session is driven incrementally:
//
//   SimSession session = net.session(Scheme::kSpiderWaterfilling, seed);
//   WindowedMetrics windows(/*warmup=*/seconds(20));
//   session.attach(windows);                  // observer pipeline
//   session.submit(first_batch);              // online arrivals
//   session.advance_until(seconds(30));       // incremental execution
//   SimMetrics so_far = session.metrics();    // mid-run snapshot
//   session.submit(more);                     // rates may shift mid-run
//   SimMetrics final = session.drain();       // run to completion
//
// Equivalence guarantee: submitting a trace through a session — all at
// once or in arrival-ordered spans, with any advance_until stepping in
// between — processes the exact event sequence of a batch run() with the
// same seed, so the final SimMetrics is byte-identical (asserted in
// tests/test_session.cpp across every scheme and both queueing modes).
// The one requirement online submission adds is causality: a payment must
// be submitted before the clock passes its arrival time.
//
// Dynamic scenarios (mid-run rate shifts, flash crowds) are plain
// submission patterns. Topology churn — channels opening, closing, being
// re-funded — is submitted through submit_topology(), mirroring the
// payment-submission API: changes are scheduled through the same
// (time, seq) event queue, so churn interleaves with payments in one
// reproducible total order. Ad-hoc mutations through the mutable
// network() accessor remain possible between advances; every such access
// bumps the network's topology generation so routers refresh exactly as
// they do for scheduled churn (see the accessor's comment).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "sim/observer.hpp"
#include "sim/simulator.hpp"

namespace spider {

/// Knobs beyond (scheme, seed) a session can be created with.
struct SessionOptions {
  /// Metrics-window length for the observer pipeline's on_window_roll
  /// (WindowedMetrics et al.); 0 disables window rolls.
  Duration metrics_window = 0;
  /// Trace to estimate the router's demand-matrix hint from. Demand-driven
  /// schemes (Spider LP, the primal–dual extension) require it; for the
  /// other schemes a purely online session may leave it unset.
  const std::vector<PaymentSpec>* demand_hint = nullptr;
};

class SimSession {
 public:
  /// Built by SpiderNetwork::session(); `topology` must outlive the
  /// session (the façade's topology does). `shared_paths` may be null.
  SimSession(const Graph& topology, const SpiderConfig& config, Scheme scheme,
             const SessionOptions& options, const PathCache* shared_paths);
  ~SimSession();
  SimSession(SimSession&&) noexcept;
  SimSession& operator=(SimSession&&) noexcept;
  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  /// Submits payments for simulation. Arrivals must be nondecreasing
  /// across ALL submissions and must not lie in the clock's past — the
  /// ordering that makes online submission replay the batch event order.
  void submit(const PaymentSpec& spec);
  void submit(const PaymentSpec* specs, std::size_t count);
  void submit(const std::vector<PaymentSpec>& specs);

  /// Submits topology changes (channel open / close / deposit) for
  /// simulation — the churn mirror of submit(): change times must be
  /// nondecreasing across ALL topology submissions and must not lie in the
  /// clock's past. Each change dispatches at its timestamp through the
  /// shared event queue (SimObserver::on_topology_change fires as it
  /// applies); a session that never submits churn schedules no topology
  /// events and stays byte-identical to a static run.
  void submit_topology(const TopologyChange& change);
  void submit_topology(const TopologyChange* changes, std::size_t count);
  void submit_topology(const std::vector<TopologyChange>& changes);

  /// Submits fault events (node crash / stall / recover, channel loss /
  /// settle delay, griefing) for injection — the adversarial mirror of
  /// submit_topology(): times must be nondecreasing across ALL fault
  /// submissions and must not lie in the clock's past. Each fault applies
  /// at its timestamp through the shared event queue
  /// (SimObserver::on_fault fires as it does); a session that never
  /// submits faults schedules no fault events and stays byte-identical to
  /// a fault-free run.
  void submit_faults(const FaultEvent& fault);
  void submit_faults(const FaultEvent* faults, std::size_t count);
  void submit_faults(const std::vector<FaultEvent>& faults);

  /// Attaches an observer (sim/observer.hpp); hooks fire in attach order.
  /// The observer must outlive the session and must not mutate simulation
  /// state from a hook. Attach before the first advance.
  void attach(SimObserver& observer);

  /// Processes every event up to and including `horizon`, rolling metric
  /// windows across idle gaps. Returns the number of events processed.
  std::size_t advance_until(TimePoint horizon);

  /// Runs until no events remain (all settles drained, deadlines
  /// resolved), emits the trailing partial window, validates conservation,
  /// and returns the metrics. The session stays usable: more payments may
  /// be submitted afterwards and the run resumes where it stopped.
  SimMetrics drain();

  /// Consistent snapshot of the metrics so far. After drain() this is the
  /// final result, byte-identical to a batch run() of the same trace/seed.
  [[nodiscard]] SimMetrics metrics() const;

  /// Releases the prefix of the submitted-payment buffer the simulation
  /// has fully consumed (arrived payments whose specs will never be read
  /// again) and returns how many entries were freed. Streaming trace
  /// replay (core/replay.hpp) calls this between chunks, which is what
  /// bounds a million-payment replay's resident PaymentSpec buffer by the
  /// chunk size (plus one same-timestamp arrival run) instead of the trace
  /// length. Safe at any point of a run; metrics and event order are
  /// unaffected.
  std::size_t release_replayed();

  /// Simulation clock (timestamp of the last processed event).
  [[nodiscard]] TimePoint now() const;
  /// True when no events are pending.
  [[nodiscard]] bool idle() const;
  /// Total payments submitted so far (including released ones).
  [[nodiscard]] std::size_t submitted() const;
  /// Payments currently resident in the submission buffer — submitted()
  /// minus what release_replayed() has freed. Bounded-memory replay tests
  /// assert on this.
  [[nodiscard]] std::size_t buffered() const;

  [[nodiscard]] Scheme scheme() const;
  /// The live router instance (read-only) — the dashboard/bench surface
  /// for scheme-internal state, e.g. downcasting to SpiderDctcpRouter to
  /// read the per-path window/rate snapshot. With amp_atomic the returned
  /// reference is the AtomicAdapter wrapper, not the base router.
  [[nodiscard]] const Router& router() const;
  /// Per-payment outcomes (grows as arrivals are processed).
  [[nodiscard]] const std::vector<Payment>& payments() const;
  /// Total topology changes submitted so far.
  [[nodiscard]] std::size_t submitted_topology() const;
  /// Total fault events submitted so far.
  [[nodiscard]] std::size_t submitted_faults() const;
  /// Live network state. The mutable overload is the ad-hoc
  /// dynamic-scenario injection point (on-chain deposits, capacity
  /// changes) — mutate only between advances, never from an observer hook.
  /// Every mutable access bumps the network's topology generation, the
  /// same invalidation signal the scheduled-churn path raises, so routers
  /// with topology-derived state (path caches, tree embeddings, landmark
  /// routes) refresh instead of planning over a network that silently
  /// changed under them (the staleness hazard DESIGN.md's reentrancy
  /// section documents). The session cannot see what the caller does with
  /// the reference, so a mutable access is indistinguishable from a
  /// mutation and is treated as one — read through the const overload
  /// (std::as_const(session).network()), or the conservative bump makes
  /// generation-sensitive schemes (SpeedyMurmurs re-embeds per generation)
  /// take a different — still deterministic — routing trajectory than the
  /// access-free run. Prefer submit_topology() for anything that can be
  /// expressed as a scheduled change.
  [[nodiscard]] Network& network();
  [[nodiscard]] const Network& network() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace spider

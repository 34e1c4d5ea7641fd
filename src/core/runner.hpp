// ExperimentRunner: the experiment layer's parallel engine.
//
// The paper's evaluation (§6) is a grid of independent simulation runs —
// schemes × topologies × seeds × parameter sweeps. Each run mutates only its
// own fresh Network (SpiderNetwork::run is const and shares nothing
// mutable), so the grid is embarrassingly parallel. ExperimentRunner owns a
// persistent pool of worker threads and executes such grids with
// deterministic, ordering-independent aggregation: every grid cell has a
// fixed index in the result vector and workers write only their own slot, so
// the output is byte-identical to a serial sweep no matter how the pool
// interleaves.
//
// Thread count resolution: an explicit constructor argument wins; otherwise
// thread_budget() (core/experiment.hpp): SPIDER_THREADS, else the CPUs in
// the process's affinity mask. for_each() must not be re-entered from a
// worker (no nested parallelism).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "core/spider.hpp"
#include "sim/observers.hpp"

namespace spider {

/// One point of a (scenario × scheme × seed) grid.
struct GridCell {
  std::size_t scenario_index = 0;
  Scheme scheme = Scheme::kShortestPath;
  std::uint64_t seed = 0;
};

/// Per-grid knobs. A positive metrics_window makes every cell run through
/// a session with a WindowedMetrics observer attached, so the grid
/// collects a per-window time series (and a warmup-excluded steady-state
/// aggregate) per cell on top of the lifetime metrics — which stay
/// byte-identical to the unwindowed run.
struct GridOptions {
  Duration metrics_window = 0;
  Duration warmup = 0;
};

/// A finished cell. `scenario` repeats the scenario name so results are
/// self-describing after the instances go out of scope. `windows`/`steady`
/// are populated only by windowed grids (GridOptions::metrics_window > 0).
struct CellResult {
  GridCell cell;
  std::string scenario;
  SimMetrics metrics;
  std::vector<WindowStats> windows;
  WindowedMetrics::SteadyState steady;
};

class ExperimentRunner {
 public:
  /// threads == 0: thread_budget().
  explicit ExperimentRunner(unsigned threads = 0);
  ~ExperimentRunner();

  ExperimentRunner(const ExperimentRunner&) = delete;
  ExperimentRunner& operator=(const ExperimentRunner&) = delete;

  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(0), ..., fn(count - 1) on the pool and blocks until all
  /// complete. fn is invoked concurrently; it must only touch state owned by
  /// its index. The first exception thrown by any invocation is rethrown
  /// here after the batch drains.
  void for_each(std::size_t count,
                const std::function<void(std::size_t)>& fn);

  /// Executes the full scenarios × schemes × seeds grid (seed innermost,
  /// scheme next, scenario outermost — the same order a serial triple loop
  /// would produce). An empty `seeds` means "each scenario's configured
  /// seed". Results are in grid order regardless of scheduling. Each
  /// scenario's candidate-path store is warmed, one scenario at a time,
  /// before any cell starts.
  [[nodiscard]] std::vector<CellResult> run_grid(
      const std::vector<ScenarioInstance>& scenarios,
      const std::vector<Scheme>& schemes,
      const std::vector<std::uint64_t>& seeds = {},
      const GridOptions& options = {});

 private:
  void worker_loop();

  std::vector<std::thread> workers_;

  // Batch state, all guarded by mutex_. Workers claim indices under the
  // lock (a claim and the job pointer it belongs to are read atomically
  // together, so a stale worker can never apply an old job to a new
  // batch's index), execute unlocked, and report completion through
  // remaining_. for_each keeps the job pointer valid until remaining_
  // reaches zero, i.e. until every claimed index has finished. Per-claim
  // locking is noise here: one task is a whole simulation run.
  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for claimable indices
  std::condition_variable done_cv_;   // for_each waits for remaining_ == 0
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::size_t next_index_ = 0;   // first unclaimed index of the batch
  std::size_t remaining_ = 0;    // claimed-or-unclaimed indices not yet done
  std::exception_ptr first_error_;
  bool stopping_ = false;
};

}  // namespace spider

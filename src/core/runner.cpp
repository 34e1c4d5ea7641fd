#include "core/runner.hpp"

#include <algorithm>

#include "core/experiment.hpp"
#include "util/log.hpp"

namespace spider {

ExperimentRunner::ExperimentRunner(unsigned threads) {
  const unsigned count = threads > 0 ? threads : thread_budget();
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ExperimentRunner::~ExperimentRunner() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ExperimentRunner::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stopping_ || (job_ != nullptr && next_index_ < job_count_);
    });
    if (stopping_) return;
    // Claim an index and snapshot the job it belongs to in one critical
    // section: job_ cannot change until this index (counted in remaining_)
    // completes, so the pointer stays valid for the unlocked call below.
    const std::function<void(std::size_t)>* job = job_;
    const std::size_t index = next_index_++;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*job)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !first_error_) first_error_ = error;
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void ExperimentRunner::for_each(std::size_t count,
                                const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  SPIDER_ASSERT_MSG(job_ == nullptr,
                    "ExperimentRunner::for_each is not re-entrant");
  job_ = &fn;
  job_count_ = count;
  next_index_ = 0;
  remaining_ = count;
  first_error_ = nullptr;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

std::vector<CellResult> ExperimentRunner::run_grid(
    const std::vector<ScenarioInstance>& scenarios,
    const std::vector<Scheme>& schemes,
    const std::vector<std::uint64_t>& seeds, const GridOptions& options) {
  // Enumerate cells in serial triple-loop order; results keep this order no
  // matter which worker finishes first.
  std::vector<GridCell> cells;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const std::vector<std::uint64_t> scenario_seeds =
        seeds.empty() ? std::vector<std::uint64_t>{
                            scenarios[s].config.sim.seed}
                      : seeds;
    for (Scheme scheme : schemes)
      for (std::uint64_t seed : scenario_seeds)
        cells.push_back(GridCell{s, scheme, seed});
  }

  // One façade per scenario, shared by its cells: run() is const and
  // thread-safe, and this avoids copying each topology per cell.
  std::vector<SpiderNetwork> networks;
  networks.reserve(scenarios.size());
  for (const ScenarioInstance& scenario : scenarios)
    networks.emplace_back(scenario.graph, scenario.config);
  // Warm each scenario's candidate-path store here, one scenario at a time,
  // so every warm gets the whole core budget to itself instead of several
  // cells warming different networks at once, each with the full budget.
  // The cells then find their store warm.
  if (std::any_of(schemes.begin(), schemes.end(), scheme_uses_path_store))
    for (std::size_t s = 0; s < scenarios.size(); ++s)
      networks[s].warm_paths(scenarios[s].trace);

  SPIDER_INFO("experiment grid: " << scenarios.size() << " scenario(s) x "
                                  << schemes.size() << " scheme(s), "
                                  << cells.size() << " runs on "
                                  << thread_count() << " thread(s)");

  std::vector<CellResult> results(cells.size());
  const auto run_cell = [&](std::size_t i) {
    const GridCell& cell = cells[i];
    const ScenarioInstance& scenario = scenarios[cell.scenario_index];
    CellResult& result = results[i];
    result.cell = cell;
    result.scenario = scenario.name;
    // Scenarios that declare churn route every cell through the
    // churn-aware run surface (churn submitted before payments — the
    // canonical order), and adversarial scenarios likewise submit their
    // fault stream between churn and payments; static scenarios take the
    // exact pre-churn path.
    const std::vector<TopologyChange>* churn =
        scenario.churn.empty() ? nullptr : &scenario.churn;
    const std::vector<FaultEvent>* faults =
        scenario.faults.empty() ? nullptr : &scenario.faults;
    if (options.metrics_window > 0) {
      // Windowed cell: same run, driven through a session so a
      // WindowedMetrics observer can collect the time series. The final
      // metrics stay byte-identical to the unwindowed run().
      WindowedRun run =
          run_windowed(networks[cell.scenario_index], cell.scheme,
                       cell.seed, scenario.trace, options.metrics_window,
                       options.warmup, churn, faults);
      result.metrics = run.metrics;
      result.windows = std::move(run.windows);
      result.steady = run.steady;
    } else if (faults != nullptr) {
      result.metrics = networks[cell.scenario_index].run(
          cell.scheme, scenario.trace, cell.seed,
          churn != nullptr ? *churn : std::vector<TopologyChange>{},
          *faults);
    } else if (churn != nullptr) {
      result.metrics = networks[cell.scenario_index].run(
          cell.scheme, scenario.trace, cell.seed, *churn);
    } else {
      result.metrics =
          networks[cell.scenario_index].run(cell.scheme, scenario.trace,
                                            cell.seed);
    }
  };
  for_each(cells.size(), run_cell);
  return results;
}

}  // namespace spider

// Shared experiment driver for the bench harnesses (one per figure/table;
// see DESIGN.md experiment index). Handles scheme iteration, paper-style
// table rendering, optional CSV dumps, and env-var scaling so the default
// argument-free run finishes quickly while SPIDER_* variables reproduce
// paper-scale runs.
#pragma once

#include <string>
#include <vector>

#include "core/spider.hpp"
#include "sim/observers.hpp"
#include "util/table.hpp"

namespace spider {

struct SchemeResult {
  Scheme scheme = Scheme::kShortestPath;
  SimMetrics metrics;
  /// Per-window series + warmup-excluded aggregate; populated only by the
  /// windowed run_schemes overload (empty/zero otherwise).
  std::vector<WindowStats> windows;
  WindowedMetrics::SteadyState steady;
};

/// One windowed run: lifetime metrics plus the WindowedMetrics harvest.
struct WindowedRun {
  SimMetrics metrics;
  std::vector<WindowStats> windows;
  WindowedMetrics::SteadyState steady;
};

/// Runs `scheme` over `trace` through a session with a WindowedMetrics
/// observer attached (demand hint = the trace). The metrics are
/// byte-identical to SpiderNetwork::run(scheme, trace, seed); the windows
/// and steady-state aggregate ride along. The single implementation behind
/// every windowed surface (run_grid, run_schemes, bench_throughput), so
/// the session wiring cannot drift between them. A non-null `churn` is
/// submitted before the trace, and a non-null `faults` between churn and
/// trace (the canonical churn-then-faults-then-payments order of
/// SpiderNetwork::run's fault overload).
[[nodiscard]] WindowedRun run_windowed(const SpiderNetwork& network,
                                       Scheme scheme, std::uint64_t seed,
                                       const std::vector<PaymentSpec>& trace,
                                       Duration metrics_window,
                                       Duration warmup,
                                       const std::vector<TopologyChange>*
                                           churn = nullptr,
                                       const std::vector<FaultEvent>*
                                           faults = nullptr);

/// Runs every scheme in `schemes` over the same trace on fresh copies of the
/// network. Logs progress at info level.
[[nodiscard]] std::vector<SchemeResult> run_schemes(
    const SpiderNetwork& network, const std::vector<PaymentSpec>& trace,
    const std::vector<Scheme>& schemes);

/// Same runs, driven through sessions with a WindowedMetrics observer per
/// scheme: lifetime metrics stay byte-identical, and each result carries
/// the per-window series plus steady-state aggregates excluding `warmup`.
[[nodiscard]] std::vector<SchemeResult> run_schemes(
    const SpiderNetwork& network, const std::vector<PaymentSpec>& trace,
    const std::vector<Scheme>& schemes, Duration metrics_window,
    Duration warmup);

/// Paper-style summary table: scheme, success ratio, success volume, plus
/// completion-latency and overhead columns. A positive `paths_k` reports
/// the active candidate-path count in the scheme column header, e.g.
/// "scheme (k=4)" — benches pass their scenario's config.num_paths so
/// SPIDER_PATHS_K overrides are visible in every table.
[[nodiscard]] Table results_table(const std::vector<SchemeResult>& results,
                                  int paths_k = 0);

/// Steady-state companion to results_table (windowed results only): the
/// paper's actual measurement — success ratio/volume over the post-warmup
/// windows — next to the lifetime ratio, with the per-window dispersion.
[[nodiscard]] Table steady_state_table(
    const std::vector<SchemeResult>& results, Duration metrics_window,
    Duration warmup);

/// If SPIDER_BENCH_CSV_DIR is set, writes the per-window time series of
/// every windowed result (long format: one row per scheme × window) to
/// <dir>/<bench_name>_windows.csv; otherwise does nothing.
void maybe_write_windows_csv(const std::string& bench_name,
                             const std::vector<SchemeResult>& results);

/// Integer/double/string environment overrides for bench scaling, e.g.
/// env_int("SPIDER_TXNS", 20000). Malformed values fall back to the default.
[[nodiscard]] int env_int(const char* name, int fallback);
[[nodiscard]] double env_double(const char* name, double fallback);
[[nodiscard]] std::string env_string(const char* name,
                                     const std::string& fallback);

/// The process-wide core budget that the ExperimentRunner pool and the
/// candidate-path warm size their threads from:
/// SPIDER_THREADS when set, else the CPUs this process may run on (its
/// affinity mask, so taskset / cpuset limits are honoured), else the
/// hardware concurrency. Always >= 1.
[[nodiscard]] unsigned thread_budget();

/// If SPIDER_BENCH_CSV_DIR is set, writes `table` to
/// <dir>/<bench_name>.csv; otherwise does nothing.
void maybe_write_csv(const std::string& bench_name, const Table& table);

}  // namespace spider

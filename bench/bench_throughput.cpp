// E18 — engine-throughput harness: the repo's machine-readable perf
// trajectory.
//
// For each scenario (default "isp,ripple-like,ripple-like@1000,
// lightning-churn"; override with SPIDER_BENCH_SCENARIOS, a comma list
// where "name@N" pins SPIDER_NODES-style node counts per entry), warms the
// shared candidate-path store once (timed separately) and then runs each
// measured scheme, timing the simulation phase alone. Scenarios that
// declare churn (lightning-churn) run with their topology stream submitted,
// so the generation-aware invalidation hot path (PathCache deltas, closed-
// edge validation) is inside the timed region and under the CI floor gate.
// Reported rates:
//
//   events/sec   — EventQueue pops per wall second (raw engine rate)
//   payments/sec — trace payments per wall second (end-to-end rate)
//   plans/sec    — router plan() invocations per wall second
//
// Attack-resilience rows: SPIDER_BENCH_ATTACKS (comma list of adversarial
// registry scenarios, default "griefing,hub-drain,lossy-network"; empty
// disables) runs every measured-AND-paper scheme over each attack scenario
// with its fault schedule submitted, so the rows record the
// success-ratio-under-fault profile per scheme plus the per-cause failure
// split (failed_timeout / failed_churn / failed_fault / failed_no_path),
// retries, and deadline misses. These rows join the JSON and the floor
// gate like any others.
//
// Transport-ablation rows: SPIDER_BENCH_TRANSPORT (comma list of scenarios,
// default "isp"; empty disables) sweeps spider-dctcp over the shared
// bench_common transport grid (marking threshold × initial window —
// bench_queueing_ablation renders the same grid as its table), one row per
// point named "scenario~mt<ms>ms-w<xrp>". The checked-in JSON therefore
// carries the §5.2 parameter-sensitivity table next to the throughput
// trajectory.
//
// Trace-replay-throughput rows: SPIDER_BENCH_REPLAY_TXNS (default 50000;
// 0 disables) generates one isp workload, writes it both as CSV and as the
// packed binary .sptr format (workload/trace_binary.hpp), and streams each
// through replay_trace — rows "trace-replay-csv" / "trace-replay-bin".
// These rows fill the parse/sim wall-time split: parse_s is a separately
// timed pure parse pass over the file, wall_s is the full streamed replay
// (parse + sim interleaved), and sim_s = wall_s - parse_s attributes the
// remainder — so the perf trajectory shows whether a win came from the
// parser or the engine. All other rows report parse_s 0 / sim_s == wall_s.
//
// Output: a table on stdout, the optional CSV dump every bench supports,
// and a JSON report (default ./BENCH_throughput.json; SPIDER_BENCH_JSON
// overrides) whose checked-in copy at the repo root is the baseline future
// PRs are compared against. Schema (schema_version 7 — v7 drops the
// sharded-engine columns shards / scaling_x and the "#sK" rows; v6 added
// the parse_s / sim_s wall-time split; v5 the transport columns
// chunks_marked / pace_rounds / queue_delay_p99_s, zero for schemes that
// never enable the transport layer):
//
//   { "bench": "bench_throughput", "schema_version": 7, "paths_k": K,
//     "cores": C,
//     "results": [ { "scenario", "scheme", "nodes", "edges", "payments",
//                    "paths_k", "warm_s", "wall_s", "parse_s",
//                    "sim_s", "events", "events_per_s", "payments_per_s",
//                    "plans_per_s", "success_ratio",
//                    "steady_success_ratio", "windows", "sim_duration_s",
//                    "chunks_marked", "pace_rounds", "queue_delay_p99_s",
//                    "faults_injected", "messages_dropped",
//                    "failed_timeout", "failed_churn", "failed_fault",
//                    "failed_no_path", "retries", "deadline_misses" },
//                  ... ] }
//
// The simulation phase always goes through the session-backed run surface
// (SpiderNetwork::run is a session wrapper), so the floor gate asserts the
// streaming refactor costs nothing. SPIDER_BENCH_WINDOW_S > 0 (default 2,
// i.e. windowed steady-state measurement is ON) attaches a WindowedMetrics
// observer (warmup SPIDER_BENCH_WARMUP_S, default 2) and fills
// steady_success_ratio/windows — the observer pipeline measured under the
// same clock. SPIDER_BENCH_WINDOW_S=0 restores the bare batch run.
//
// Perf-smoke gate: SPIDER_BENCH_FLOOR=<file> reads a floor file ('#'
// comments allowed) with these line forms:
//
//   scenario scheme events_per_s        — absolute rate floor (30% grace)
//   success scenario scheme min_ratio   — success-ratio floor (no grace;
//                                         the attack-resilience gate)
//   payments scenario scheme min_per_s  — payments/sec floor (30% grace;
//                                         gates the trace-replay rows'
//                                         end-to-end rate)
//
// and exits non-zero on any violation. A floor line whose scenario the
// current invocation did not measure is skipped with a notice (CI steps
// gate different scenario subsets against one shared file); a line whose
// scenario WAS measured but whose scheme matches nothing fails closed — a
// renamed scheme must not silently lose its gate. CI keeps the floors
// checked in at bench/perf_floor.txt.
//
// Trace-replay byte-identity gate (runs by default; SPIDER_BENCH_REPLAY=0
// skips): writes a scenario's in-memory workload to disk in BOTH formats
// (write_trace_csv/write_topology_csv and their .sptr/.sptp binary
// counterparts), streams each back through replay_trace, and exits
// non-zero unless every metric field of both replayed runs is identical to
// the in-memory run that generated the files — streamed-binary ==
// streamed-CSV == in-memory batch, with the binary side rebuilt from the
// binary topology snapshot. When the checked-in reference pair under
// bench/data/ (override with SPIDER_BENCH_DATA=<dir>) is reachable, the
// same identity is additionally required between a streamed (chunk 64)
// and a load-all replay of those fixed external files, and the checked-in
// .sptr twin must replay identically to the CSV — the acceptance gate for
// imported workloads.
//
// The paper point: SPIDER_BENCH_SCENARIOS=ripple-full runs the pruned-Ripple
// scale (3774 nodes, 200k transactions by default — §6.1's headline setup).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/replay.hpp"
#include "workload/trace_binary.hpp"

namespace spider {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ThroughputRow {
  std::string scenario;
  std::string scheme;
  NodeId nodes = 0;
  EdgeId edges = 0;
  std::size_t payments = 0;
  int paths_k = 0;
  double warm_s = 0.0;
  double wall_s = 0.0;
  // Wall-time split (schema v6): replay rows attribute wall_s between a
  // separately timed pure parse pass (parse_s) and the remainder (sim_s);
  // non-replay rows report parse_s 0 and sim_s == wall_s.
  double parse_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t events = 0;
  double events_per_s = 0.0;
  double payments_per_s = 0.0;
  double plans_per_s = 0.0;
  double success_ratio = 0.0;
  double steady_success_ratio = 0.0;
  int windows = 0;
  double sim_duration_s = 0.0;
  // Transport-layer profile (all zero for schemes that never enable it).
  std::int64_t chunks_marked = 0;
  std::int64_t pace_rounds = 0;
  double queue_delay_p99_s = 0.0;
  // Fault-injection profile (all zero on fault-free scenarios).
  std::int64_t faults_injected = 0;
  std::int64_t messages_dropped = 0;
  std::int64_t failed_timeout = 0;
  std::int64_t failed_churn = 0;
  std::int64_t failed_fault = 0;
  std::int64_t failed_no_path = 0;
  std::int64_t retries = 0;
  std::int64_t deadline_misses = 0;
};

/// "name" or "name@nodes" -> (scenario name, node override). Exits with a
/// usable message on a malformed node suffix instead of an uncaught throw.
std::pair<std::string, NodeId> parse_spec(const std::string& spec) {
  const std::size_t at = spec.find('@');
  if (at == std::string::npos) return {spec, 0};
  const std::string suffix = spec.substr(at + 1);
  try {
    std::size_t consumed = 0;
    const int nodes = std::stoi(suffix, &consumed);
    if (consumed != suffix.size() || nodes <= 0)
      throw std::invalid_argument(suffix);
    return {spec.substr(0, at), static_cast<NodeId>(nodes)};
  } catch (const std::exception&) {
    std::cerr << "bench_throughput: bad scenario spec '" << spec
              << "' — expected \"name\" or \"name@<positive node count>\"\n";
    std::exit(2);
  }
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string json_num(double v, int precision = 3) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << v;
  return out.str();
}

void write_json(const std::string& path, int paths_k,
                const std::vector<ThroughputRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_throughput: cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"bench\": \"bench_throughput\",\n"
      << "  \"schema_version\": 7,\n"
      << "  \"paths_k\": " << paths_k << ",\n"
      << "  \"cores\": " << std::thread::hardware_concurrency()
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    out << "    {\"scenario\": \"" << json_escape(r.scenario)
        << "\", \"scheme\": \"" << json_escape(r.scheme)
        << "\", \"nodes\": " << r.nodes << ", \"edges\": " << r.edges
        << ", \"payments\": " << r.payments
        << ", \"paths_k\": " << r.paths_k
        << ", \"warm_s\": " << json_num(r.warm_s)
        << ", \"wall_s\": " << json_num(r.wall_s)
        << ", \"parse_s\": " << json_num(r.parse_s)
        << ", \"sim_s\": " << json_num(r.sim_s)
        << ", \"events\": " << r.events
        << ", \"events_per_s\": " << json_num(r.events_per_s, 0)
        << ", \"payments_per_s\": " << json_num(r.payments_per_s, 0)
        << ", \"plans_per_s\": " << json_num(r.plans_per_s, 0)
        << ", \"success_ratio\": " << json_num(r.success_ratio, 4)
        << ", \"steady_success_ratio\": " << json_num(r.steady_success_ratio, 4)
        << ", \"windows\": " << r.windows
        << ", \"sim_duration_s\": " << json_num(r.sim_duration_s)
        << ", \"chunks_marked\": " << r.chunks_marked
        << ", \"pace_rounds\": " << r.pace_rounds
        << ", \"queue_delay_p99_s\": " << json_num(r.queue_delay_p99_s, 4)
        << ", \"faults_injected\": " << r.faults_injected
        << ", \"messages_dropped\": " << r.messages_dropped
        << ", \"failed_timeout\": " << r.failed_timeout
        << ", \"failed_churn\": " << r.failed_churn
        << ", \"failed_fault\": " << r.failed_fault
        << ", \"failed_no_path\": " << r.failed_no_path
        << ", \"retries\": " << r.retries
        << ", \"deadline_misses\": " << r.deadline_misses << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

/// Returns the number of floor violations. Absolute lines gate
/// events_per_s and "payments" lines gate payments_per_s (both with 30%
/// grace — they are timings); "success" lines gate success_ratio with no
/// grace. Lines whose scenario the run did not measure are skipped with a notice;
/// a measured scenario whose scheme matches nothing fails closed.
int check_floor(const std::string& floor_path,
                const std::vector<ThroughputRow>& rows) {
  std::ifstream in(floor_path);
  if (!in) {
    std::cerr << "bench_throughput: cannot read floor file " << floor_path
              << "\n";
    return 1;
  }
  constexpr double kAllowedRegression = 0.30;
  // Floor schemes use the scheme name with spaces replaced by '-'.
  const auto flat_scheme = [](const ThroughputRow& r) {
    std::string flat = r.scheme;
    for (char& c : flat)
      if (c == ' ') c = '-';
    return flat;
  };
  const auto scenario_measured = [&](const std::string& scenario) {
    for (const ThroughputRow& r : rows)
      if (r.scenario == scenario) return true;
    return false;
  };
  int violations = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::stringstream fields(line);
    std::string scenario, scheme;
    double floor = 0.0;
    bool success = false;
    bool payments = false;
    if (!(fields >> scenario)) continue;
    if (scenario == "success") {
      success = true;
      if (!(fields >> scenario)) continue;
    } else if (scenario == "payments") {
      payments = true;
      if (!(fields >> scenario)) continue;
    }
    if (!(fields >> scheme >> floor)) continue;
    // Different CI steps gate different scenario subsets against this one
    // file; a scenario this invocation was not asked to run is not a
    // missing gate, just out of scope.
    if (!scenario_measured(scenario)) {
      std::cout << "floor line skipped (scenario not measured this run): "
                << line << "\n";
      continue;
    }
    bool matched = false;
    for (const ThroughputRow& r : rows) {
      if (r.scenario != scenario || flat_scheme(r) != scheme) continue;
      matched = true;
      if (success) {
        // Attack-resilience gate: a scheme's success ratio under the fault
        // schedule must stay above the floor. No regression grace — the
        // ratio is deterministic in (scenario, scheme, seed), not a timing.
        if (r.success_ratio < floor) {
          std::cerr << "RESILIENCE REGRESSION: " << scenario << " / "
                    << r.scheme << " success ratio "
                    << json_num(r.success_ratio, 4) << " below the "
                    << json_num(floor, 4) << " floor\n";
          ++violations;
        }
        continue;
      }
      const double minimum = floor * (1.0 - kAllowedRegression);
      const double rate = payments ? r.payments_per_s : r.events_per_s;
      const char* unit = payments ? "payments/s" : "events/s";
      if (rate < minimum) {
        std::cerr << "PERF REGRESSION: " << scenario << " / " << r.scheme
                  << " at " << json_num(rate, 0) << " " << unit
                  << ", below " << json_num(minimum, 0)
                  << " (floor " << json_num(floor, 0) << " - 30%)\n";
        ++violations;
      }
    }
    // Fail closed: the scenario ran but no row carries this scheme name
    // (renamed scheme, typo) — that pair is silently ungated otherwise.
    if (!matched) {
      std::cerr << "PERF FLOOR UNMATCHED: '" << scenario << " " << scheme
                << "' matched no measured scenario/scheme pair\n";
      ++violations;
    }
  }
  return violations;
}

/// Returns the number of identity violations (0 = gate passed). Identity
/// is SimMetrics' defaulted operator== — every counter and derived double,
/// with no hand-maintained field list to fall out of date.
int check_replay_identity() {
  const std::vector<Scheme> schemes = {Scheme::kSpiderWaterfilling,
                                       Scheme::kShortestPath};
  int violations = 0;
  std::cout << "\ntrace-replay byte-identity gate:\n";

  // 1. Round-trip gate: in-memory generation -> disk -> streamed replay,
  // in BOTH trace formats. Each replay side rebuilds its network from the
  // WRITTEN topology file (CSV or binary snapshot respectively), so a
  // corrupting topology reader regression breaks identity here rather than
  // only in the optional reference leg.
  ScenarioParams params;
  params.payments = 600;
  params.traffic_seed = 18;
  const ScenarioInstance scenario = build_scenario("isp", params);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string trace_path = (tmp / "spider_bench_replay_trace.csv")
                                     .string();
  const std::string topo_path = (tmp / "spider_bench_replay_topology.csv")
                                    .string();
  const std::string bin_trace_path =
      (tmp / "spider_bench_replay_trace.sptr").string();
  const std::string bin_topo_path =
      (tmp / "spider_bench_replay_topology.sptp").string();
  write_trace_csv(trace_path, scenario.trace);
  write_topology_csv(scenario.graph, topo_path);
  write_trace_binary(bin_trace_path, scenario.trace);
  write_topology_binary(scenario.graph, bin_topo_path);
  const SpiderNetwork net(scenario.graph, scenario.config);
  const SpiderNetwork imported_net(read_topology_any(topo_path),
                                   scenario.config);
  const SpiderNetwork bin_net(read_topology_any(bin_topo_path),
                              scenario.config);
  for (const Scheme scheme : schemes) {
    const SimMetrics in_memory =
        net.run(scheme, scenario.trace, net.config().sim.seed);
    ReplayOptions options;
    options.demand_hint = &scenario.trace;
    // Streamed CSV vs in-memory batch.
    const auto csv_reader =
        open_trace_source(trace_path, TraceReaderOptions{128});
    const ReplayResult replayed = replay_trace(
        imported_net, scheme, net.config().sim.seed, *csv_reader, options);
    const bool csv_ok = in_memory == replayed.metrics;
    std::cout << "  written-trace replay  / " << scheme_name(scheme) << ": "
              << (csv_ok ? "identical" : "MISMATCH") << " (peak buffer "
              << replayed.peak_buffered << " specs)\n";
    if (!csv_ok) ++violations;
    // Streamed binary vs the same batch: streamed-binary == streamed-CSV
    // == in-memory, across a different chunk size for good measure.
    const auto bin_reader =
        open_trace_source(bin_trace_path, TraceReaderOptions{96});
    const ReplayResult bin_replayed = replay_trace(
        bin_net, scheme, net.config().sim.seed, *bin_reader, options);
    const bool bin_ok = in_memory == bin_replayed.metrics;
    std::cout << "  binary-trace replay   / " << scheme_name(scheme) << ": "
              << (bin_ok ? "identical" : "MISMATCH") << " (peak buffer "
              << bin_replayed.peak_buffered << " specs)\n";
    if (!bin_ok) ++violations;
  }
  std::filesystem::remove(trace_path);
  std::filesystem::remove(topo_path);
  std::filesystem::remove(bin_trace_path);
  std::filesystem::remove(bin_topo_path);

  // 2. Reference-trace gate: the checked-in external workload must replay
  // the same streamed and load-all (skipped with a notice when the data
  // dir is not reachable from the cwd — CI runs from the repo root).
  const std::string data_dir = env_string("SPIDER_BENCH_DATA", "bench/data");
  const std::string ref_trace = data_dir + "/isp_ref_trace.csv";
  const std::string ref_topo = data_dir + "/isp_ref_topology.csv";
  if (!std::filesystem::exists(ref_trace) ||
      !std::filesystem::exists(ref_topo)) {
    std::cout << "  reference trace " << ref_trace
              << " not reachable — skipping the external-file leg\n";
    return violations;
  }
  ScenarioParams ref_params;
  ref_params.trace_file = ref_trace;
  ref_params.topology_file = ref_topo;
  const ScenarioInstance ref = build_scenario("trace-replay", ref_params);
  const SpiderNetwork ref_net(ref.graph, ref.config);
  // The checked-in .sptr twin of the reference trace, when present, must
  // replay identically to the CSV it was converted from.
  const std::string ref_bin = data_dir + "/isp_ref_trace.sptr";
  const bool have_bin = std::filesystem::exists(ref_bin);
  if (!have_bin)
    std::cout << "  binary reference " << ref_bin
              << " not reachable — skipping the .sptr leg\n";
  for (const Scheme scheme : schemes) {
    const SimMetrics loaded =
        ref_net.run(scheme, ref.trace, ref_net.config().sim.seed);
    TraceReader reader(ref_trace, TraceReaderOptions{64});
    ReplayOptions options;
    options.demand_hint = &ref.trace;
    const ReplayResult streamed = replay_trace(
        ref_net, scheme, ref_net.config().sim.seed, reader, options);
    const bool ok = loaded == streamed.metrics;
    std::cout << "  reference replay      / " << scheme_name(scheme) << ": "
              << (ok ? "identical" : "MISMATCH") << " (" << ref.trace.size()
              << " payments)\n";
    if (!ok) ++violations;
    if (!have_bin) continue;
    BinaryTraceReader bin_reader(ref_bin, TraceReaderOptions{64});
    const ReplayResult bin_streamed = replay_trace(
        ref_net, scheme, ref_net.config().sim.seed, bin_reader, options);
    const bool bin_ok = loaded == bin_streamed.metrics;
    std::cout << "  reference .sptr replay/ " << scheme_name(scheme) << ": "
              << (bin_ok ? "identical" : "MISMATCH") << "\n";
    if (!bin_ok) ++violations;
  }
  return violations;
}

/// Replay-throughput rows (schema v6's reason to exist): one generated isp
/// workload written in both trace formats, each streamed through
/// replay_trace with the parse share measured separately. The binary rows
/// are where the packed format's end-to-end win lands in the trajectory.
/// SPIDER_BENCH_REPLAY_TXNS sizes the trace (default 50000; 0 disables).
std::vector<ThroughputRow> measure_replay_rows() {
  std::vector<ThroughputRow> rows;
  const int txns = env_int("SPIDER_BENCH_REPLAY_TXNS", 50000);
  if (txns <= 0) return rows;
  ScenarioParams params;
  params.payments = txns;
  params.traffic_seed = 18;
  params.tx_per_second = 4000.0;  // the 1M-stress arrival rate, scaled down
  const ScenarioInstance scenario = build_scenario("isp", params);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string csv_path = (tmp / "spider_bench_replay_rate.csv")
                                   .string();
  const std::string bin_path = (tmp / "spider_bench_replay_rate.sptr")
                                   .string();
  write_trace_csv(csv_path, scenario.trace);
  write_trace_binary(bin_path, scenario.trace);
  const SpiderNetwork net(scenario.graph, scenario.config);
  const auto warm_start = Clock::now();
  net.warm_paths(scenario.trace);
  const double warm_s = seconds_since(warm_start);
  const Scheme scheme = Scheme::kShortestPath;
  std::cout << "\ntrace-replay throughput (" << scenario.trace.size()
            << " payments, " << scheme_name(scheme) << "):\n";
  for (const bool binary : {false, true}) {
    const std::string& path = binary ? bin_path : csv_path;
    // Parse phase alone: stream every chunk, simulate nothing.
    const auto parse_start = Clock::now();
    {
      const auto parse_reader = open_trace_source(path);
      while (!parse_reader->next().empty()) {
      }
    }
    const double parse_s = seconds_since(parse_start);
    const auto reader = open_trace_source(path);
    const auto start = Clock::now();
    const ReplayResult replayed =
        replay_trace(net, scheme, net.config().sim.seed, *reader);
    const double wall = seconds_since(start);
    ThroughputRow row;
    row.scenario = binary ? "trace-replay-bin" : "trace-replay-csv";
    row.scheme = scheme_name(scheme);
    row.nodes = scenario.graph.num_nodes();
    row.edges = scenario.graph.num_edges();
    row.payments = replayed.payments;
    row.paths_k = net.config().num_paths;
    row.warm_s = warm_s;
    row.wall_s = wall;
    row.parse_s = parse_s;
    row.sim_s = std::max(0.0, wall - parse_s);
    row.events = replayed.metrics.events_processed;
    row.events_per_s =
        static_cast<double>(replayed.metrics.events_processed) / wall;
    row.payments_per_s = static_cast<double>(replayed.payments) / wall;
    row.plans_per_s =
        static_cast<double>(replayed.metrics.plans_requested) / wall;
    row.success_ratio = replayed.metrics.success_ratio();
    row.sim_duration_s = replayed.metrics.sim_duration_s;
    rows.push_back(row);
  }
  std::filesystem::remove(csv_path);
  std::filesystem::remove(bin_path);
  Table table({"format", "payments", "parse_s", "wall_s", "sim_s",
               "payments/s", "parse speedup"});
  for (const ThroughputRow& r : rows)
    table.add_row({r.scenario, std::to_string(r.payments),
                   Table::num(r.parse_s, 3), Table::num(r.wall_s, 3),
                   Table::num(r.sim_s, 3), Table::num(r.payments_per_s, 0),
                   Table::num(rows.front().parse_s /
                                  std::max(r.parse_s, 1e-9),
                              1) +
                       "x"});
  std::cout << "\n" << table.render();
  maybe_write_csv("throughput_replay", table);
  return rows;
}

/// Times one scenario × scheme run through `net` and fills a row. The
/// windowed path is the default — SPIDER_BENCH_WINDOW_S=0 opts out.
ThroughputRow measure_row(const SpiderNetwork& net,
                          const ScenarioInstance& scenario,
                          const std::string& spec, Scheme scheme,
                          double warm_s) {
  const double window_s = env_double("SPIDER_BENCH_WINDOW_S", 2.0);
  const Duration warmup = seconds(env_double("SPIDER_BENCH_WARMUP_S", 2.0));
  const std::vector<TopologyChange>* churn =
      scenario.churn.empty() ? nullptr : &scenario.churn;
  const std::vector<FaultEvent>* faults =
      scenario.faults.empty() ? nullptr : &scenario.faults;
  WindowedRun windowed;
  const auto start = Clock::now();
  SimMetrics m;
  if (window_s > 0) {
    windowed = run_windowed(net, scheme, net.config().sim.seed,
                            scenario.trace, seconds(window_s), warmup, churn,
                            faults);
    m = windowed.metrics;
  } else if (faults != nullptr) {
    m = net.run(scheme, scenario.trace, net.config().sim.seed,
                churn != nullptr ? *churn : std::vector<TopologyChange>{},
                *faults);
  } else if (churn != nullptr) {
    m = net.run(scheme, scenario.trace, net.config().sim.seed, *churn);
  } else {
    m = net.run(scheme, scenario.trace);
  }
  const double wall = seconds_since(start);
  ThroughputRow row;
  row.scenario = spec;
  row.scheme = scheme_name(scheme);
  row.nodes = scenario.graph.num_nodes();
  row.edges = scenario.graph.num_edges();
  row.payments = scenario.trace.size();
  row.paths_k = net.config().num_paths;
  row.warm_s = warm_s;
  row.wall_s = wall;
  row.sim_s = wall;  // no parse phase: the whole wall is simulation
  row.events = m.events_processed;
  row.events_per_s = static_cast<double>(m.events_processed) / wall;
  row.payments_per_s = static_cast<double>(row.payments) / wall;
  row.plans_per_s = static_cast<double>(m.plans_requested) / wall;
  row.success_ratio = m.success_ratio();
  if (window_s > 0) {
    row.steady_success_ratio = windowed.steady.success_ratio;
    row.windows = windowed.steady.windows;
  }
  row.sim_duration_s = m.sim_duration_s;
  row.chunks_marked = m.chunks_marked;
  row.pace_rounds = m.pace_rounds;
  row.queue_delay_p99_s = m.queue_delay_p99_s;
  row.faults_injected = m.faults_injected;
  row.messages_dropped = m.messages_dropped;
  row.failed_timeout = m.failed_timeout;
  row.failed_churn = m.failed_churn;
  row.failed_fault = m.failed_fault;
  row.failed_no_path = m.failed_no_path;
  row.retries = m.retries;
  row.deadline_misses = m.deadline_misses;
  return row;
}

int run() {
  bench::banner("E18", "engine throughput (events/sec, payments/sec, "
                       "plans/sec per scenario)",
                "paper-scale runs (3774 nodes / 200k txns) complete "
                "routinely; trajectory tracked in BENCH_throughput.json");

  const std::string scenario_list =
      std::getenv("SPIDER_BENCH_SCENARIOS") != nullptr
          ? std::getenv("SPIDER_BENCH_SCENARIOS")
          : "isp,ripple-like,ripple-like@1000,lightning-churn";
  // spider-dctcp runs with the transport layer auto-enabled (router queues
  // + AIMD windows — scheme_requires_transport), so its rows keep the
  // windowed control loop under the CI floor gate.
  const std::vector<Scheme> schemes = {Scheme::kSpiderWaterfilling,
                                       Scheme::kShortestPath,
                                       Scheme::kSpiderDctcp};

  std::vector<ThroughputRow> rows;
  int paths_k = 4;
  for (const std::string& spec : split_list(scenario_list)) {
    const auto [name, node_override] = parse_spec(spec);
    ScenarioParams params = ScenarioParams::from_env();
    if (node_override > 0) params.nodes = node_override;
    if (params.traffic_seed == 0) params.traffic_seed = 18;  // E18 stream
    const ScenarioInstance scenario = build_scenario(name, params);
    const SpiderNetwork net(scenario.graph, scenario.config);
    paths_k = net.config().num_paths;

    // Warm the shared path store once per scenario — this is the precompute
    // a run grid amortizes, so it is timed apart from the simulation phase.
    const auto warm_start = Clock::now();
    net.warm_paths(scenario.trace);
    const double warm_s = seconds_since(warm_start);
    std::cout << spec << ": " << scenario.graph.num_nodes() << " nodes, "
              << scenario.graph.num_edges() << " channels, "
              << scenario.trace.size() << " payments; path warm "
              << Table::num(warm_s, 3) << " s ("
              << net.path_store()->pair_count() << " pairs, "
              << net.path_store()->path_count() << " paths)\n";

    // The batch run IS a session (submit + drain), so this times the
    // streaming surface; the default windowed mode measures the observer
    // pipeline under the same clock.
    for (const Scheme scheme : schemes)
      rows.push_back(measure_row(net, scenario, spec, scheme, warm_s));
  }

  Table table({"scenario", "scheme (k=" + std::to_string(paths_k) + ")",
               "payments", "warm_s", "wall_s", "events/s", "payments/s",
               "plans/s", "success_ratio"});
  for (const ThroughputRow& r : rows)
    table.add_row({r.scenario, r.scheme, std::to_string(r.payments),
                   Table::num(r.warm_s, 3), Table::num(r.wall_s, 3),
                   Table::num(r.events_per_s, 0),
                   Table::num(r.payments_per_s, 0),
                   Table::num(r.plans_per_s, 0),
                   Table::pct(r.success_ratio)});
  std::cout << "\n" << table.render();
  maybe_write_csv("throughput", table);

  // Attack-resilience section: every scheme over each adversarial scenario
  // with its fault schedule submitted. These rows join `rows` before the
  // JSON/floor stage so `success` floor lines gate them.
  const std::string attack_list = env_string(
      "SPIDER_BENCH_ATTACKS", "griefing,hub-drain,lossy-network");
  if (!split_list(attack_list).empty()) {
    std::cout << "\nattack resilience (success ratio under fault "
                 "injection):\n";
    std::vector<ThroughputRow> attack_rows;
    for (const std::string& spec : split_list(attack_list)) {
      const auto [name, node_override] = parse_spec(spec);
      ScenarioParams params = ScenarioParams::from_env();
      if (node_override > 0) params.nodes = node_override;
      if (params.traffic_seed == 0) params.traffic_seed = 18;  // E18 stream
      const ScenarioInstance scenario = build_scenario(name, params);
      const SpiderNetwork net(scenario.graph, scenario.config);
      net.warm_paths(scenario.trace);
      std::cout << "  " << spec << ": " << scenario.faults.size()
                << " scheduled faults over " << scenario.trace.size()
                << " payments\n";
      for (const Scheme scheme : all_schemes())
        attack_rows.push_back(measure_row(net, scenario, spec, scheme, 0.0));
    }
    Table attack_table({"scenario", "scheme", "success_ratio", "steady_sr",
                        "failed_timeout", "failed_churn", "failed_fault",
                        "failed_no_path", "retries", "deadline_misses"});
    for (const ThroughputRow& r : attack_rows)
      attack_table.add_row({r.scenario, r.scheme, Table::pct(r.success_ratio),
                            Table::pct(r.steady_success_ratio),
                            std::to_string(r.failed_timeout),
                            std::to_string(r.failed_churn),
                            std::to_string(r.failed_fault),
                            std::to_string(r.failed_no_path),
                            std::to_string(r.retries),
                            std::to_string(r.deadline_misses)});
    std::cout << "\n" << attack_table.render();
    maybe_write_csv("throughput_attacks", attack_table);
    rows.insert(rows.end(), attack_rows.begin(), attack_rows.end());
  }

  // Transport-ablation section: spider-dctcp over the shared sweep grid
  // (bench_common.hpp — bench_queueing_ablation renders the same grid).
  // Rows join `rows` before the JSON stage so the checked-in baseline
  // carries the parameter-sensitivity table.
  const std::string transport_list = env_string("SPIDER_BENCH_TRANSPORT",
                                                "isp");
  if (!split_list(transport_list).empty()) {
    std::cout << "\ntransport ablation (spider-dctcp, marking threshold x "
                 "initial window):\n";
    std::vector<ThroughputRow> sweep_rows;
    for (const std::string& spec : split_list(transport_list)) {
      const auto [name, node_override] = parse_spec(spec);
      ScenarioParams params = ScenarioParams::from_env();
      if (node_override > 0) params.nodes = node_override;
      if (params.traffic_seed == 0) params.traffic_seed = 18;  // E18 stream
      const ScenarioInstance scenario = build_scenario(name, params);
      for (const bench::TransportSweepPoint& point :
           bench::transport_sweep_grid()) {
        const SpiderNetwork net(scenario.graph,
                                bench::transport_point_config(scenario, point));
        net.warm_paths(scenario.trace);
        sweep_rows.push_back(
            measure_row(net, scenario,
                        spec + "~" + bench::transport_point_tag(point),
                        Scheme::kSpiderDctcp, 0.0));
      }
    }
    Table sweep_table({"scenario", "success_ratio", "steady_sr",
                       "chunks_marked", "pace_rounds", "queue_delay_p99_s",
                       "retries"});
    for (const ThroughputRow& r : sweep_rows)
      sweep_table.add_row({r.scenario, Table::pct(r.success_ratio),
                           Table::pct(r.steady_success_ratio),
                           std::to_string(r.chunks_marked),
                           std::to_string(r.pace_rounds),
                           Table::num(r.queue_delay_p99_s, 4),
                           std::to_string(r.retries)});
    std::cout << "\n" << sweep_table.render();
    maybe_write_csv("throughput_transport", sweep_table);
    rows.insert(rows.end(), sweep_rows.begin(), sweep_rows.end());
  }

  // Trace-replay-throughput section: the parse/sim split rows for both
  // trace formats, joined before the JSON/floor stage so `payments` floor
  // lines gate the end-to-end replay rate.
  {
    const std::vector<ThroughputRow> replay_rows = measure_replay_rows();
    rows.insert(rows.end(), replay_rows.begin(), replay_rows.end());
  }

  const std::string json_path = std::getenv("SPIDER_BENCH_JSON") != nullptr
                                    ? std::getenv("SPIDER_BENCH_JSON")
                                    : "BENCH_throughput.json";
  write_json(json_path, paths_k, rows);

  if (const char* floor = std::getenv("SPIDER_BENCH_FLOOR")) {
    const int violations = check_floor(floor, rows);
    if (violations > 0) return 1;
    std::cout << "perf floor check passed (" << floor << ")\n";
  }

  if (env_int("SPIDER_BENCH_REPLAY", 1) != 0) {
    const int violations = check_replay_identity();
    if (violations > 0) {
      std::cerr << "REPLAY IDENTITY FAILURE: " << violations
                << " scheme(s) diverged from the in-memory run\n";
      return 1;
    }
    std::cout << "trace-replay identity gate passed\n";
  }
  return 0;
}

}  // namespace
}  // namespace spider

int main() { return spider::run(); }

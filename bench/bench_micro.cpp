// E11 — Substrate microbenchmarks (google-benchmark).
//
// Quantifies the §3 overhead claim for max-flow routing (O(|V|·|E|^2) per
// transaction) against the cheap per-payment work of Spider's schemes, plus
// the cost of the offline machinery (K-shortest paths, simplex, circulation
// LP) and the simulator's raw event rate. All topologies/workloads come from
// the scenario registry.
//
// The custom main additionally runs the planner-throughput guardrail:
// plans/sec through the flat (edge, side)-indexed VirtualBalances overlay
// versus the std::map overlay it replaced, emitted via maybe_write_csv so
// future PRs can track the trajectory (SPIDER_BENCH_CSV_DIR=<dir> writes
// micro_planner_throughput.csv).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <queue>

#include "bench_common.hpp"
#include "workload/trace_binary.hpp"
#include "fluid/circulation.hpp"
#include "graph/ksp.hpp"
#include "graph/maxflow.hpp"
#include "graph/shortest_path.hpp"
#include "lp/simplex.hpp"
#include "routing/path_cache.hpp"
#include "routing/waterfilling_router.hpp"
#include "sim/simulator.hpp"
#include "transport/router_queue.hpp"

namespace spider {
namespace {

ScenarioInstance paper_scale_isp() {
  ScenarioParams params;
  params.payments = 1;  // fixtures below need the topology, not the trace
  params.capacity_xrp = 30000;
  return build_scenario("isp", params);
}

std::vector<Arc> balance_arcs(const Network& net) {
  std::vector<Arc> arcs;
  const Graph& g = net.graph();
  arcs.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Channel& ch = net.channel(e);
    arcs.push_back(Arc{ch.endpoint(0), ch.endpoint(1), ch.balance(0)});
    arcs.push_back(Arc{ch.endpoint(1), ch.endpoint(0), ch.balance(1)});
  }
  return arcs;
}

void BM_DinicIsp(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  const Network net(g);
  const auto arcs = balance_arcs(net);
  for (auto _ : state)
    benchmark::DoNotOptimize(dinic_max_flow(g.num_nodes(), arcs, 8, 30));
}
BENCHMARK(BM_DinicIsp);

void BM_EdmondsKarpIsp(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  const Network net(g);
  const auto arcs = balance_arcs(net);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        edmonds_karp_max_flow(g.num_nodes(), arcs, 8, 30));
}
BENCHMARK(BM_EdmondsKarpIsp);

void BM_DinicRippleLike(benchmark::State& state) {
  ScenarioParams params;
  params.payments = 1;
  params.capacity_xrp = 30000;
  params.nodes = static_cast<NodeId>(state.range(0));
  params.topology_seed = 3;
  const Graph g = build_scenario("ripple-like", params).graph;
  const Network net(g);
  const auto arcs = balance_arcs(net);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dinic_max_flow(g.num_nodes(), arcs, 0, g.num_nodes() - 1));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DinicRippleLike)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

void BM_EdgeDisjointK4(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  for (auto _ : state)
    benchmark::DoNotOptimize(edge_disjoint_paths(g, 9, 27, 4));
}
BENCHMARK(BM_EdgeDisjointK4);

void BM_YenK4(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  for (auto _ : state)
    benchmark::DoNotOptimize(yen_k_shortest_paths(g, 9, 27, 4));
}
BENCHMARK(BM_YenK4);

void BM_WaterfillAllocation(benchmark::State& state) {
  Rng rng(1);
  std::vector<Amount> caps(4);
  for (Amount& c : caps) c = rng.uniform_int(0, xrp(1000));
  for (auto _ : state)
    benchmark::DoNotOptimize(waterfill(xrp(170), caps));
}
BENCHMARK(BM_WaterfillAllocation);

void BM_SimplexRoutingLpIsp(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  // Demand matrix over the first 12 nodes (all pairs), rate 1 each.
  PaymentGraph demands(g.num_nodes());
  for (NodeId i = 0; i < 12; ++i)
    for (NodeId j = 0; j < 12; ++j)
      if (i != j) demands.add_demand(i, j, 1.0);
  for (auto _ : state) {
    const RoutingLp lp = RoutingLp::with_disjoint_paths(g, demands, 0.5, 4);
    benchmark::DoNotOptimize(lp.solve_balanced());
  }
}
BENCHMARK(BM_SimplexRoutingLpIsp)->Unit(benchmark::kMillisecond);

void BM_MaxCirculationLp(benchmark::State& state) {
  Rng rng(5);
  PaymentGraph demands(24);
  for (int i = 0; i < 80; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 23));
    const auto t = static_cast<NodeId>(rng.uniform_int(0, 23));
    if (s == t) continue;
    demands.add_demand(s, t, rng.uniform(0.5, 2.0));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(max_circulation_value(demands));
}
BENCHMARK(BM_MaxCirculationLp)->Unit(benchmark::kMillisecond);

ScenarioInstance simulator_fixture() {
  ScenarioParams params;
  params.payments = 1000;
  return build_scenario("isp", params);
}

void BM_SimulatorWaterfilling1k(benchmark::State& state) {
  const ScenarioInstance scenario = simulator_fixture();
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        net.run(Scheme::kSpiderWaterfilling, scenario.trace));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(scenario.trace.size()));
}
BENCHMARK(BM_SimulatorWaterfilling1k)->Unit(benchmark::kMillisecond);

void BM_SimulatorMaxFlow1k(benchmark::State& state) {
  const ScenarioInstance scenario = simulator_fixture();
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (auto _ : state)
    benchmark::DoNotOptimize(net.run(Scheme::kMaxFlow, scenario.trace));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(scenario.trace.size()));
}
BENCHMARK(BM_SimulatorMaxFlow1k)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Event-queue guardrail: the inlined 4-ary heap vs the replaced
// std::priority_queue, on the simulator's schedule/pop churn pattern.
// ---------------------------------------------------------------------------

/// Hold-model churn: keep `depth` events pending, pop one / push one — the
/// classic discrete-event-queue access pattern.
template <typename Queue>
void event_churn(Queue& q, benchmark::State& state) {
  Rng rng(42);
  constexpr std::size_t kDepth = 4096;
  for (std::size_t i = 0; i < kDepth; ++i)
    q.schedule(static_cast<TimePoint>(rng.uniform_int(0, 1 << 20)), 0, i);
  for (auto _ : state) {
    const auto ev = q.pop();
    benchmark::DoNotOptimize(ev.index);
    q.schedule(ev.time + static_cast<TimePoint>(rng.uniform_int(1, 1000)), 0,
               ev.index);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// The pre-overhaul event core, kept as the "before" baseline.
class BinaryHeapQueue {
 public:
  void schedule(TimePoint time, int kind, std::size_t index) {
    heap_.push(SimEvent{time, next_seq_++, kind, index, 0});
  }
  SimEvent pop() {
    const SimEvent ev = heap_.top();
    heap_.pop();
    now_ = ev.time;
    return ev;
  }

 private:
  struct Later {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<SimEvent, std::vector<SimEvent>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  TimePoint now_ = 0;
};

void BM_EventQueue4aryChurn(benchmark::State& state) {
  EventQueue q;
  event_churn(q, state);
}
BENCHMARK(BM_EventQueue4aryChurn);

void BM_EventQueueBinaryHeapChurn(benchmark::State& state) {
  BinaryHeapQueue q;
  event_churn(q, state);
}
BENCHMARK(BM_EventQueueBinaryHeapChurn);

// ---------------------------------------------------------------------------
// Quantile guardrail: nth_element selection vs the replaced copy-and-sort
// (stats consumers — tail-latency analysis over per-payment samples — pay
// one O(n) selection per quantile instead of an O(n log n) sort). Both
// sides restore random input each iteration (scratch.assign), so neither
// benefits from the partial ordering a previous call left behind.
// ---------------------------------------------------------------------------

std::vector<double> quantile_sample(std::size_t n) {
  Rng rng(7);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    values.push_back(rng.uniform(0.0, 1e6));
  return values;
}

void BM_QuantileNthElement(benchmark::State& state) {
  const std::vector<double> values =
      quantile_sample(static_cast<std::size_t>(state.range(0)));
  std::vector<double> scratch;
  for (auto _ : state) {
    scratch.assign(values.begin(), values.end());
    benchmark::DoNotOptimize(quantile(scratch, 0.99));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantileNthElement)->Arg(1 << 14)->Arg(1 << 20);

void BM_QuantileCopySort(benchmark::State& state) {
  const std::vector<double> values =
      quantile_sample(static_cast<std::size_t>(state.range(0)));
  std::vector<double> scratch;
  for (auto _ : state) {
    // The pre-overhaul implementation: copy, full sort, interpolate.
    scratch.assign(values.begin(), values.end());
    std::sort(scratch.begin(), scratch.end());
    benchmark::DoNotOptimize(quantile_sorted(scratch, 0.99));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantileCopySort)->Arg(1 << 14)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Path-store guardrail: flat dense-index lookup vs the replaced std::map.
// ---------------------------------------------------------------------------

void BM_FlatPathStoreLookup(benchmark::State& state) {
  const ScenarioInstance scenario = simulator_fixture();
  PathCache store(scenario.graph, 4, PathSelection::kEdgeDisjoint);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  store.warm(pairs);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(store.cached(pair.first, pair.second).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatPathStoreLookup);

void BM_MapPathCacheLookup(benchmark::State& state) {
  const ScenarioInstance scenario = simulator_fixture();
  // The pre-overhaul layout: map of heap-allocated path vectors.
  std::map<std::pair<NodeId, NodeId>, std::vector<Path>> cache;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  for (const auto& [src, dst] : pairs)
    cache.try_emplace({src, dst},
                      edge_disjoint_paths(scenario.graph, src, dst, 4));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(cache.find(pair)->second.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MapPathCacheLookup);

// ---------------------------------------------------------------------------
// Generation-delta guardrail: churn-aware CandidatePaths lookups vs the
// static warm store they wrap. The dynamic-topology acceptance bar is that
// a lookup against a churned topology (closed-edge validation + warm delta
// hit for stale pairs) stays within 2x of a static warm-store lookup.
// ---------------------------------------------------------------------------

/// Shared setup: a warmed store over the ISP trace plus the trace's pair
/// list (the same mix BM_FlatPathStoreLookup cycles through).
struct DeltaLookupFixture {
  ScenarioInstance scenario;
  PathCache store;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Network network;
  CandidatePaths candidates;

  DeltaLookupFixture()
      : scenario(simulator_fixture()),
        store(scenario.graph, 4, PathSelection::kEdgeDisjoint),
        network(scenario.graph) {
    for (const PaymentSpec& spec : scenario.trace)
      pairs.emplace_back(spec.src, spec.dst);
    store.warm(pairs);
    candidates.init(network.graph(), 4, PathSelection::kEdgeDisjoint,
                    &store);
    candidates.sync(network.topology_generation());
  }

  /// Closes every 8th channel (a heavy churn epoch) and pre-touches every
  /// pair so the per-generation delta is warm — the steady state the
  /// benchmark measures.
  void churn_and_warm_delta() {
    for (EdgeId e = 0; e < network.graph().num_edges(); e += 8)
      (void)network.close_channel(e);
    candidates.sync(network.topology_generation());
    for (const auto& [src, dst] : pairs)
      benchmark::DoNotOptimize(candidates.paths(src, dst).data());
  }
};

void BM_CandidatePathsStaticLookup(benchmark::State& state) {
  DeltaLookupFixture fx;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = fx.pairs[i++ % fx.pairs.size()];
    benchmark::DoNotOptimize(
        fx.candidates.paths(pair.first, pair.second).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CandidatePathsStaticLookup);

void BM_CandidatePathsGenerationDeltaLookup(benchmark::State& state) {
  DeltaLookupFixture fx;
  fx.churn_and_warm_delta();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = fx.pairs[i++ % fx.pairs.size()];
    benchmark::DoNotOptimize(
        fx.candidates.paths(pair.first, pair.second).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CandidatePathsGenerationDeltaLookup);

// ---------------------------------------------------------------------------
// Planner-throughput guardrail: flat overlay vs the replaced std::map one.
// ---------------------------------------------------------------------------

/// The pre-refactor std::map overlay, kept as the "before" baseline.
class MapVirtualBalances {
 public:
  explicit MapVirtualBalances(const Network& network) : network_(&network) {}

  [[nodiscard]] Amount available(NodeId from, EdgeId e) const {
    const Channel& ch = network_->channel(e);
    const int side = ch.side_of(from);
    Amount avail = ch.balance(side);
    const auto it = used_.find({e, side});
    if (it != used_.end()) avail -= it->second;
    return std::max<Amount>(0, avail);
  }

  [[nodiscard]] Amount path_bottleneck(const Path& path) const {
    Amount bottleneck = std::numeric_limits<Amount>::max();
    for (std::size_t h = 0; h < path.edges.size(); ++h)
      bottleneck =
          std::min(bottleneck, available(path.nodes[h], path.edges[h]));
    return bottleneck;
  }

  void use(const Path& path, Amount amount) {
    for (std::size_t h = 0; h < path.edges.size(); ++h) {
      const Channel& ch = network_->channel(path.edges[h]);
      used_[{path.edges[h], ch.side_of(path.nodes[h])}] += amount;
    }
  }

 private:
  const Network* network_;
  std::map<std::pair<EdgeId, int>, Amount> used_;
};

struct PlannerFixture {
  Graph graph;
  Network network;
  PathCache cache;
  std::vector<PaymentSpec> trace;

  explicit PlannerFixture(const ScenarioInstance& scenario)
      : graph(scenario.graph),
        network(graph),
        cache(graph, 4, PathSelection::kEdgeDisjoint),
        trace(scenario.trace) {}
};

/// One waterfilling-style planning pass (probe bottlenecks, waterfill,
/// commit virtual locks) over every payment, through the overlay
/// `make_overlay` yields. The factory may return by value (fresh overlay
/// per plan — the old std::map discipline) or by reference (reused flat
/// overlay with an epoch reset — the routers' discipline).
template <typename MakeOverlay>
double plans_per_second(PlannerFixture& fx, MakeOverlay make_overlay,
                        int min_millis) {
  using Clock = std::chrono::steady_clock;
  std::vector<Amount> capacities;
  std::int64_t plans = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  while (elapsed * 1000 < min_millis) {
    for (const PaymentSpec& spec : fx.trace) {
      decltype(auto) overlay = make_overlay(fx.network);
      const std::span<const Path> paths = fx.cache.paths(spec.src, spec.dst);
      if (paths.empty()) continue;
      capacities.clear();
      for (const Path& p : paths)
        capacities.push_back(overlay.path_bottleneck(p));
      const std::vector<Amount> alloc = waterfill(spec.amount, capacities);
      for (std::size_t i = 0; i < paths.size(); ++i) {
        const Amount sendable =
            std::min(alloc[i], overlay.path_bottleneck(paths[i]));
        if (sendable <= 0) continue;
        overlay.use(paths[i], sendable);
        benchmark::DoNotOptimize(sendable);
      }
      ++plans;
    }
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return static_cast<double>(plans) / elapsed;
}

void report_planner_throughput() {
  ScenarioParams params;
  params.payments = 2000;
  const ScenarioInstance scenario = build_scenario("isp", params);
  PlannerFixture fx(scenario);

  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  // Reuse one flat overlay across plans (epoch reset), exactly as the
  // routers do; the map baseline reconstructs per plan, exactly as the old
  // code did.
  VirtualBalances reused;
  const double flat = plans_per_second(
      fx,
      [&](const Network& net) -> VirtualBalances& {
        reused.attach(net);
        return reused;
      },
      min_millis);
  const double mapped = plans_per_second(
      fx, [](const Network& net) { return MapVirtualBalances(net); },
      min_millis);

  Table table({"planner", "overlay", "plans_per_sec", "speedup_vs_map"});
  table.add_row({"waterfilling-probe", "flat-epoch",
                 Table::num(flat, 0),
                 Table::num(mapped > 0 ? flat / mapped : 0.0, 2)});
  table.add_row({"waterfilling-probe", "std::map", Table::num(mapped, 0),
                 Table::num(1.0, 2)});
  std::cout << "\nPlanner throughput (plans/sec, higher is better):\n"
            << table.render();
  maybe_write_csv("micro_planner_throughput", table);
}

/// Timed lookups/sec over the trace's pair mix through `candidates`.
double lookups_per_second(DeltaLookupFixture& fx, int min_millis) {
  using Clock = std::chrono::steady_clock;
  std::int64_t lookups = 0;
  std::size_t i = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  while (elapsed * 1000 < min_millis) {
    for (int batch = 0; batch < 4096; ++batch) {
      const auto& pair = fx.pairs[i++ % fx.pairs.size()];
      benchmark::DoNotOptimize(
          fx.candidates.paths(pair.first, pair.second).data());
      ++lookups;
    }
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return static_cast<double>(lookups) / elapsed;
}

/// Dynamic-topology acceptance guardrail: steady-state generation-delta
/// lookups (memoized verdicts after a heavy churn epoch) must stay within
/// 2x of the static warm-store lookup through the same router surface.
void report_generation_delta_lookup() {
  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  DeltaLookupFixture static_fx;
  const double static_rate = lookups_per_second(static_fx, min_millis);
  DeltaLookupFixture churned_fx;
  churned_fx.churn_and_warm_delta();
  const double churned_rate = lookups_per_second(churned_fx, min_millis);
  const double slowdown =
      churned_rate > 0 ? static_rate / churned_rate : 0.0;

  Table table({"lookup", "topology", "lookups_per_sec", "slowdown"});
  table.add_row({"candidate-paths", "static", Table::num(static_rate, 0),
                 Table::num(1.0, 2)});
  table.add_row({"candidate-paths", "churned (1/8 closed)",
                 Table::num(churned_rate, 0), Table::num(slowdown, 2)});
  std::cout << "\nGeneration-delta path lookups (2x budget vs static):\n"
            << table.render();
  maybe_write_csv("micro_generation_delta_lookup", table);
  if (slowdown > 2.0)
    std::cout << "WARNING: generation-delta lookups exceed the 2x budget ("
              << Table::num(slowdown, 2) << "x)\n";
}

/// Transport enqueue/mark guardrail: the RouterQueueBank accounting runs on
/// the engine's per-chunk hot path in EVERY router-queue run (transport on
/// or off — that is what keeps QueueDepthProbe truthful and transport-off
/// runs byte-identical). The marking rule must therefore be nearly free: a
/// dequeue whose wait crosses the threshold (mark branch + count) may cost
/// at most 1.15x a dequeue that stays unmarked.
void report_transport_mark_overhead() {
  using Clock = std::chrono::steady_clock;
  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  constexpr std::size_t kEdges = 1024;
  constexpr std::size_t kOps = 1 << 14;
  const Duration threshold = milliseconds(40);

  // Pre-generated (edge, side, amount) op mix so the RNG is outside the
  // timed loop and both sides replay the identical access pattern.
  struct Op {
    std::size_t edge;
    int side;
    Amount amount;
  };
  Rng rng(11);
  std::vector<Op> ops;
  ops.reserve(kOps);
  for (std::size_t i = 0; i < kOps; ++i)
    ops.push_back({static_cast<std::size_t>(rng.uniform_int(0, kEdges - 1)),
                   static_cast<int>(rng.uniform_int(0, 1)),
                   rng.uniform_int(1, xrp(50))});

  // One enqueue + one dequeue per op at a fixed wait; marks (when due) are
  // counted exactly as Simulator::note_dequeue does.
  const auto rate = [&](Duration wait) {
    RouterQueueBank bank;
    bank.begin(kEdges, threshold);
    std::int64_t done = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    while (elapsed * 1000 < min_millis) {
      for (const Op& op : ops) {
        bank.on_enqueue(op.edge, op.side, op.amount);
        if (bank.on_dequeue(op.edge, op.side, op.amount, wait))
          bank.count_mark();
        ++done;
      }
      benchmark::DoNotOptimize(bank.total_value());
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    }
    benchmark::DoNotOptimize(bank.marks());
    return static_cast<double>(done) / elapsed;
  };

  const double unmarked = rate(threshold / 2);  // below threshold: no mark
  const double marked = rate(threshold * 2);    // above: mark branch fires
  const double overhead = marked > 0 ? unmarked / marked : 0.0;

  Table table({"enqueue+dequeue path", "ops_per_sec", "cost_vs_unmarked"});
  table.add_row({"marked (wait > threshold)", Table::num(marked, 0),
                 Table::num(overhead, 3)});
  table.add_row({"unmarked", Table::num(unmarked, 0), Table::num(1.0, 3)});
  std::cout << "\nTransport enqueue/mark overhead (1.15x budget):\n"
            << table.render();
  maybe_write_csv("micro_transport_mark", table);
  if (overhead > 1.15)
    std::cout << "WARNING: marked dequeues exceed the 1.15x budget ("
              << Table::num(overhead, 3) << "x the unmarked path)\n";
}

/// Quantile-selection guardrail: nth_element quantile() must not lose to
/// the copy-and-sort implementation it replaced (budget: >= 1x at 1M
/// samples; in practice selection wins several-fold). Both sides start
/// from freshly restored random input per call — no credit for operating
/// on a previously partitioned buffer.
void report_quantile_selection() {
  using Clock = std::chrono::steady_clock;
  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  constexpr std::size_t kSamples = 1 << 20;
  const std::vector<double> base = quantile_sample(kSamples);

  const auto rate = [&](auto&& one_quantile) {
    std::int64_t calls = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    while (elapsed * 1000 < min_millis) {
      benchmark::DoNotOptimize(one_quantile());
      ++calls;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    }
    return static_cast<double>(calls) / elapsed;
  };

  std::vector<double> scratch;
  const double selection = rate([&] {
    scratch.assign(base.begin(), base.end());
    return quantile(scratch, 0.99);
  });
  const double sorted = rate([&] {
    scratch.assign(base.begin(), base.end());
    std::sort(scratch.begin(), scratch.end());
    return quantile_sorted(scratch, 0.99);
  });

  Table table({"quantile(1M doubles)", "calls_per_sec", "speedup_vs_sort"});
  table.add_row({"nth_element (in place)", Table::num(selection, 1),
                 Table::num(sorted > 0 ? selection / sorted : 0.0, 2)});
  table.add_row({"copy + std::sort", Table::num(sorted, 1),
                 Table::num(1.0, 2)});
  std::cout << "\nQuantile selection (calls/sec, higher is better):\n"
            << table.render();
  maybe_write_csv("micro_quantile_selection", table);
  if (selection < sorted)
    std::cout << "WARNING: nth_element quantile slower than copy+sort\n";
}

/// The edge-disjoint selection as it ran before the PathSearch kernel:
/// bfs_path through a std::function filter, each BFS allocating three
/// n-sized vectors and a queue.
std::vector<Path> filtered_edge_disjoint(const Graph& g, NodeId src,
                                         NodeId dst, int k) {
  std::vector<Path> result;
  std::vector<char> used(static_cast<std::size_t>(g.num_edges()), 0);
  const auto filter = [&](EdgeId e) {
    return !used[static_cast<std::size_t>(e)];
  };
  for (int i = 0; i < k; ++i) {
    Path p = bfs_path(g, src, dst, filter);
    if (p.empty()) break;
    for (EdgeId e : p.edges) used[static_cast<std::size_t>(e)] = 1;
    result.push_back(std::move(p));
  }
  return result;
}

/// Path-search guardrail: 4 edge-disjoint paths per pair on the 3774-node
/// ripple-full graph through the PathSearch kernel (one reused scratch,
/// flat output) vs the filtered bfs_path search it replaced. Budget: >= 1x.
/// A change that brings per-search allocation back into the kernel shows
/// up here as a falling speedup.
void report_edge_disjoint_kernel() {
  using Clock = std::chrono::steady_clock;
  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  ScenarioParams params;
  params.payments = 1000;
  const ScenarioInstance scenario = build_scenario("ripple-full", params);
  const Graph& g = scenario.graph;
  const auto pairs_per_second = [&](auto&& one_pair) {
    std::int64_t pairs = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    while (elapsed * 1000 < min_millis) {
      const PaymentSpec& spec =
          scenario.trace[static_cast<std::size_t>(pairs) %
                         scenario.trace.size()];
      benchmark::DoNotOptimize(one_pair(spec.src, spec.dst));
      ++pairs;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    }
    return static_cast<double>(pairs) / elapsed;
  };
  PathSearch search;
  FlatPaths found;
  const double kernel = pairs_per_second([&](NodeId src, NodeId dst) {
    found.clear();
    return edge_disjoint_paths(g, src, dst, 4, search, found);
  });
  const double filtered = pairs_per_second([&](NodeId src, NodeId dst) {
    return filtered_edge_disjoint(g, src, dst, 4).size();
  });
  const double speedup = filtered > 0 ? kernel / filtered : 0.0;

  Table table({"edge-disjoint k=4 (ripple-full)", "pairs_per_sec",
               "speedup_vs_filtered"});
  table.add_row({"PathSearch kernel", Table::num(kernel, 0),
                 Table::num(speedup, 2)});
  table.add_row({"bfs_path + EdgeFilter", Table::num(filtered, 0),
                 Table::num(1.0, 2)});
  std::cout << "\nEdge-disjoint path search (pairs/sec, higher is better):\n"
            << table.render();
  maybe_write_csv("micro_edge_disjoint_kernel", table);
  if (speedup < 1.0)
    std::cout << "WARNING: PathSearch kernel slower than the filtered "
                 "bfs_path search\n";
}

/// Trace-parse guardrail for the packed binary format: streaming a .sptr
/// through the mmap'd BinaryTraceReader must beat the CSV parser by >= 5x
/// rows/sec. The format exists to delete parse cost from paper-scale
/// replays — on little-endian hosts next() returns spans straight into
/// the mapping, so "parsing" is header validation plus a monotonicity
/// sweep — and this report keeps that claim measured as both readers
/// evolve (SPIDER_MICRO_PARSE_TXNS scales the trace, default 200k rows).
void report_trace_parse_throughput() {
  using Clock = std::chrono::steady_clock;
  ScenarioParams params;
  params.payments = env_int("SPIDER_MICRO_PARSE_TXNS", 200000);
  const ScenarioInstance scenario = build_scenario("isp", params);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string csv_path = (tmp / "spider_micro_parse.csv").string();
  const std::string bin_path = (tmp / "spider_micro_parse.sptr").string();
  write_trace_csv(csv_path, scenario.trace);
  write_trace_binary(bin_path, scenario.trace);

  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  const auto rows_per_second = [&](const std::string& path) {
    std::int64_t rows = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    while (elapsed * 1000 < min_millis) {
      const std::unique_ptr<TraceSource> reader = open_trace_source(path);
      while (true) {
        const std::span<const PaymentSpec> chunk = reader->next();
        if (chunk.empty()) break;
        benchmark::DoNotOptimize(chunk.data());
        rows += static_cast<std::int64_t>(chunk.size());
      }
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    }
    return static_cast<double>(rows) / elapsed;
  };
  const double bin = rows_per_second(bin_path);
  const double csv = rows_per_second(csv_path);
  const double speedup = csv > 0 ? bin / csv : 0.0;

  Table table({"trace parse", "rows_per_sec", "speedup_vs_csv"});
  table.add_row({"binary (.sptr, mmap)", Table::num(bin, 0),
                 Table::num(speedup, 2)});
  table.add_row({"csv (from_chars)", Table::num(csv, 0),
                 Table::num(1.0, 2)});
  std::cout << "\nTrace parse throughput (rows/sec; 5x budget for binary):\n"
            << table.render();
  maybe_write_csv("micro_trace_parse", table);
  if (speedup < 5.0)
    std::cout << "WARNING: binary trace parse below the 5x budget ("
              << Table::num(speedup, 2) << "x CSV)\n";
  std::filesystem::remove(csv_path);
  std::filesystem::remove(bin_path);
}

}  // namespace
}  // namespace spider

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  spider::report_planner_throughput();
  spider::report_trace_parse_throughput();
  spider::report_generation_delta_lookup();
  spider::report_transport_mark_overhead();
  spider::report_quantile_selection();
  spider::report_edge_disjoint_kernel();
  return 0;
}

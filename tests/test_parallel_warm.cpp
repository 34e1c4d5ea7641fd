// Parallel candidate-path warm: PathCache::warm fans the missing pairs out
// over worker threads, yet the stored arena, index and pair count must be
// byte-identical to a serial warm for every worker count, and no worker may
// outlive the call. Part of the ThreadSanitizer filter in CI.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/scenario.hpp"
#include "routing/path_cache.hpp"

namespace spider {
namespace {

using PairList = std::vector<std::pair<NodeId, NodeId>>;

/// The scenario graph plus two extra nodes joined only to each other, so
/// pairs between them and the rest are unreachable.
Graph with_island(const Graph& base) {
  Graph g(base.num_nodes() + 2);
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const Graph::Edge& edge = base.edge(e);
    const EdgeId copy = g.add_edge(edge.a, edge.b, edge.capacity);
    if (edge.closed) g.close_edge(copy);
  }
  g.add_edge(base.num_nodes(), base.num_nodes() + 1, xrp(10));
  return g;
}

/// The trace's pairs, then repeats, self-pairs and unreachable pairs mixed
/// into the order a warm has to preserve.
PairList pair_list(const ScenarioInstance& scenario, const Graph& g) {
  PairList pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  const NodeId island = g.num_nodes() - 2;
  const std::size_t n = pairs.size();
  for (std::size_t i = 0; i < n; i += 7) {
    const std::pair<NodeId, NodeId> pair = pairs[i];
    pairs.push_back(pair);                       // duplicate
    pairs.emplace_back(pair.first, pair.first);  // self-pair
  }
  pairs.emplace_back(0, island);
  pairs.emplace_back(island + 1, 3);
  pairs.emplace_back(island, island + 1);
  pairs.emplace_back(island + 1, island);
  pairs.emplace_back(island, 0);
  return pairs;
}

/// A serial warm, spelled out: every listed pair through the lazy
/// lookup, which stores each distinct non-self pair on its first miss.
void serial_warm(PathCache& store, const PairList& pairs) {
  for (const auto& [src, dst] : pairs) (void)store.paths(src, dst);
}

/// Same pair count, path count, arena order and paths for every pair.
void expect_identical_stores(const PathCache& expected,
                             const PathCache& actual, const PairList& pairs,
                             const std::string& label) {
  ASSERT_EQ(actual.pair_count(), expected.pair_count()) << label;
  ASSERT_EQ(actual.path_count(), expected.path_count()) << label;
  // The first pair's range opens the arena in both stores, so offsets from
  // it pin down every other pair's position.
  const Path* expected_base = expected.cached(pairs[0].first,
                                              pairs[0].second).data();
  const Path* actual_base = actual.cached(pairs[0].first,
                                          pairs[0].second).data();
  for (const auto& [src, dst] : pairs) {
    EXPECT_EQ(actual.contains(src, dst), expected.contains(src, dst));
    const std::span<const Path> want = expected.cached(src, dst);
    const std::span<const Path> got = actual.cached(src, dst);
    ASSERT_EQ(got.size(), want.size())
        << label << " (" << src << " -> " << dst << ")";
    if (src == dst) continue;
    EXPECT_EQ(got.data() - actual_base, want.data() - expected_base)
        << label << " (" << src << " -> " << dst << ")";
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i], want[i])
          << label << " (" << src << " -> " << dst << ") path " << i;
  }
}

TEST(ParallelWarm, StoreMatchesSerialWarmForEveryWorkerCount) {
  for (const char* trace : {"ripple-like", "lightning-churn"}) {
    ScenarioParams params;
    params.payments = 400;
    params.nodes = 80;
    const ScenarioInstance scenario = build_scenario(trace, params);
    const Graph g = with_island(scenario.graph);
    const PairList pairs = pair_list(scenario, g);
    ASSERT_NE(pairs[0].first, pairs[0].second);
    for (const PathSelection selection :
         {PathSelection::kEdgeDisjoint, PathSelection::kYen}) {
      PathCache serial(g, 4, selection);
      serial_warm(serial, pairs);
      for (const unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
        PathCache parallel(g, 4, selection);
        parallel.warm_for_testing(pairs, workers, 1);
        const std::string label = std::string(trace) + " " +
                                  path_selection_name(selection) + " x" +
                                  std::to_string(workers);
        expect_identical_stores(serial, parallel, pairs, label);
        // Re-warming is a no-op.
        parallel.warm_for_testing(pairs, workers, 1);
        expect_identical_stores(serial, parallel, pairs, label + " rewarm");
      }
    }
  }
}

TEST(ParallelWarm, TopsUpAPartlyStoredCacheInSerialOrder) {
  ScenarioParams params;
  params.payments = 300;
  const ScenarioInstance scenario = build_scenario("ripple-like", params);
  const Graph g = with_island(scenario.graph);
  const PairList pairs = pair_list(scenario, g);
  // Some pairs are already stored by lazy lookups before the warm.
  const PairList head(pairs.begin(), pairs.begin() + 40);
  PathCache serial(g, 4, PathSelection::kEdgeDisjoint);
  serial_warm(serial, head);
  serial_warm(serial, pairs);
  PathCache parallel(g, 4, PathSelection::kEdgeDisjoint);
  serial_warm(parallel, head);
  parallel.warm_for_testing(pairs, 4, 1);
  expect_identical_stores(serial, parallel, pairs, "top-up");
}

TEST(ParallelWarm, MinPairsPerWorkerOnlyChangesTheThreadCount) {
  ScenarioParams params;
  params.payments = 200;
  const ScenarioInstance scenario = build_scenario("ripple-like", params);
  const Graph g = with_island(scenario.graph);
  const PairList pairs = pair_list(scenario, g);
  PathCache serial(g, 4, PathSelection::kEdgeDisjoint);
  serial_warm(serial, pairs);
  for (const std::size_t min_pairs : {std::size_t{1}, std::size_t{50},
                                      std::size_t{100000}}) {
    PathCache parallel(g, 4, PathSelection::kEdgeDisjoint);
    parallel.warm_for_testing(pairs, 4, min_pairs);
    expect_identical_stores(serial, parallel, pairs,
                            "min " + std::to_string(min_pairs));
  }
  // The production entry point derives the minimum from the graph.
  PathCache derived(g, 4, PathSelection::kEdgeDisjoint);
  derived.warm(pairs, 4);
  expect_identical_stores(serial, derived, pairs, "derived minimum");
}

/// The process's thread count from /proc/self/status; -1 where that file
/// does not exist.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int threads = -1;
      status >> threads;
      return threads;
    }
    status.ignore(4096, '\n');
  }
  return -1;
}

TEST(ParallelWarm, NoWorkerOutlivesTheWarm) {
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status on this host";
  ScenarioParams params;
  params.payments = 300;
  const ScenarioInstance scenario = build_scenario("ripple-like", params);
  PathCache store(scenario.graph, 4, PathSelection::kEdgeDisjoint);
  PairList pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  store.warm_for_testing(pairs, 7, 1);
  EXPECT_GT(store.pair_count(), 7u);
  EXPECT_EQ(process_threads(), before);
}

}  // namespace
}  // namespace spider

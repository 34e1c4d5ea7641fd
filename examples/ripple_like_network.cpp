// Ripple scenario: a scale-free credit network shaped like the paper's
// pruned Ripple snapshot (heavy-tailed degrees, ~3.3 channels per node,
// Ripple-subgraph transaction sizes: mean ≈ 345 XRP, max 2892 XRP).
//
//   ./ripple_like_network [nodes] [txns] [capacity_xrp]
//
// Shows the effect hubs have on routing: reports per-scheme success plus
// the imbalance the run left on the most-loaded channels.
#include <algorithm>
#include <iostream>

#include "spider.hpp"

int main(int argc, char** argv) {
  using namespace spider;
  const NodeId nodes =
      argc > 1 ? static_cast<NodeId>(std::stoi(argv[1])) : 80;
  const int txns = argc > 2 ? std::stoi(argv[2]) : 4000;
  const int capacity = argc > 3 ? std::stoi(argv[3]) : 3000;

  const Graph graph = ripple_like_topology(nodes, xrp(capacity), 7);
  const SpiderNetwork network(graph, SpiderConfig{});

  const auto sizes = ripple_subgraph_sizes();
  TrafficConfig traffic;
  traffic.tx_per_second = 400;
  TrafficGenerator generator(nodes, traffic, *sizes);
  const auto trace = generator.generate(txns);

  std::cout << "Ripple-like topology: " << nodes << " nodes / "
            << graph.num_edges() << " channels (" << capacity
            << " XRP each), " << txns << " payments, sizes mean ~345 XRP\n";
  std::cout << "Circulation fraction of demand: "
            << Table::pct(network.workload_circulation_fraction(trace))
            << "\n\n";

  const auto results = run_schemes(
      network, trace,
      {Scheme::kSpiderWaterfilling, Scheme::kSpiderLp, Scheme::kMaxFlow,
       Scheme::kShortestPath, Scheme::kSpeedyMurmurs});
  std::cout << results_table(results, network.config().num_paths).render();

  // Hubs accumulate imbalance: show the channel skew waterfilling leaves.
  std::cout << "\nPost-run mean channel imbalance (Spider Waterfilling): "
            << Table::num(
                   results.front().metrics.final_mean_imbalance_xrp, 1)
            << " XRP (capacity " << capacity << " XRP)\n";
  return 0;
}

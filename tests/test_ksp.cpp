// Unit and property tests for K-shortest-path selection (Yen's algorithm and
// greedy edge-disjoint paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/ksp.hpp"
#include "graph/shortest_path.hpp"
#include "topology/topology.hpp"

namespace spider {
namespace {

TEST(Yen, FirstPathIsShortest) {
  const Graph g = isp_topology(xrp(100));
  const auto paths = yen_k_shortest_paths(g, 8, 20, 4);
  ASSERT_FALSE(paths.empty());
  const Path direct = bfs_path(g, 8, 20);
  EXPECT_EQ(paths.front().length(), direct.length());
}

TEST(Yen, PathsAreSortedDistinctValidTrails) {
  const Graph g = isp_topology(xrp(100));
  const auto paths = yen_k_shortest_paths(g, 9, 27, 6);
  ASSERT_GE(paths.size(), 2u);
  std::set<std::vector<NodeId>> seen;
  std::size_t prev_len = 0;
  for (const Path& p : paths) {
    EXPECT_TRUE(is_valid_trail(g, p));
    EXPECT_EQ(p.source(), 9);
    EXPECT_EQ(p.destination(), 27);
    EXPECT_GE(p.length(), prev_len);
    prev_len = p.length();
    EXPECT_TRUE(seen.insert(p.nodes).second) << "duplicate path";
  }
}

TEST(Yen, RingHasExactlyTwoPaths) {
  const Graph g = ring_topology(6, 1);
  const auto paths = yen_k_shortest_paths(g, 0, 3, 10);
  ASSERT_EQ(paths.size(), 2u);  // clockwise and counter-clockwise only
  EXPECT_EQ(paths[0].length(), 3u);
  EXPECT_EQ(paths[1].length(), 3u);
}

TEST(Yen, LineHasExactlyOnePath) {
  const Graph g = line_topology(5, 1);
  const auto paths = yen_k_shortest_paths(g, 0, 4, 5);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 4u);
}

TEST(Yen, KZeroReturnsNothing) {
  const Graph g = ring_topology(5, 1);
  EXPECT_TRUE(yen_k_shortest_paths(g, 0, 2, 0).empty());
}

TEST(Yen, SelfPairReturnsNothing) {
  const Graph g = ring_topology(5, 1);
  EXPECT_TRUE(yen_k_shortest_paths(g, 2, 2, 4).empty());
}

TEST(Yen, UnreachableReturnsNothing) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  EXPECT_TRUE(yen_k_shortest_paths(g, 0, 3, 3).empty());
}

TEST(Yen, CompleteGraphCounts) {
  const Graph g = complete_topology(5, 1);
  // K5 paths 0->4 sorted by length: 1 direct, 3 two-hop, then longer.
  const auto paths = yen_k_shortest_paths(g, 0, 4, 4);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0].length(), 1u);
  EXPECT_EQ(paths[1].length(), 2u);
  EXPECT_EQ(paths[2].length(), 2u);
  EXPECT_EQ(paths[3].length(), 2u);
}

TEST(EdgeDisjoint, PathsShareNoEdges) {
  const Graph g = isp_topology(xrp(100));
  const auto paths = edge_disjoint_paths(g, 10, 25, 4);
  ASSERT_GE(paths.size(), 2u);
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    EXPECT_TRUE(is_valid_trail(g, p));
    for (EdgeId e : p.edges) EXPECT_TRUE(used.insert(e).second);
  }
}

TEST(EdgeDisjoint, ShortestFirstAndBounded) {
  const Graph g = isp_topology(xrp(100));
  const Path direct = bfs_path(g, 12, 30);
  const auto paths = edge_disjoint_paths(g, 12, 30, 4);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front().length(), direct.length());
  EXPECT_LE(paths.size(), 4u);
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_GE(paths[i].length(), paths[i - 1].length());
}

TEST(EdgeDisjoint, LineYieldsSinglePath) {
  const Graph g = line_topology(6, 1);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 5, 4).size(), 1u);
}

TEST(EdgeDisjoint, DiamondYieldsTwo) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(2, 3, 1);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 3, 4).size(), 2u);
}

TEST(EdgeDisjoint, SelfPairYieldsNothing) {
  const Graph g = ring_topology(5, 1);
  EXPECT_TRUE(edge_disjoint_paths(g, 2, 2, 4).empty());
  PathSearch search;
  FlatPaths out;
  EXPECT_EQ(edge_disjoint_paths(g, 2, 2, 4, search, out), 0u);
  EXPECT_EQ(yen_k_shortest_paths(g, 2, 2, 4, search, out), 0u);
  EXPECT_EQ(out.size(), 0u);
}

TEST(EdgeDisjoint, CountBoundedByMinDegree) {
  const Graph g = ripple_like_topology(60, xrp(100), 4);
  for (NodeId s : {0, 10, 35}) {
    for (NodeId t : {50, 59}) {
      const auto paths = edge_disjoint_paths(g, s, t, 8);
      EXPECT_LE(paths.size(),
                std::min(g.degree(s), g.degree(t)));
    }
  }
}

/// Property sweep: on random graphs, both selections return valid, correctly
/// terminated trails, and edge-disjoint paths never share edges.
class PathSelectionProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PathSelectionProperty, RandomGraphInvariants) {
  Rng rng(GetParam());
  const Graph g = erdos_renyi_topology(24, 0.12, xrp(10), rng);
  for (int trial = 0; trial < 10; ++trial) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 23));
    auto dst = static_cast<NodeId>(rng.uniform_int(0, 23));
    if (dst == src) dst = (dst + 1) % 24;

    const auto disjoint = edge_disjoint_paths(g, src, dst, 4);
    std::set<EdgeId> used;
    for (const Path& p : disjoint) {
      EXPECT_TRUE(is_valid_trail(g, p));
      EXPECT_EQ(p.source(), src);
      EXPECT_EQ(p.destination(), dst);
      for (EdgeId e : p.edges) EXPECT_TRUE(used.insert(e).second);
    }

    const auto yen = yen_k_shortest_paths(g, src, dst, 4);
    EXPECT_GE(yen.size(), std::min<std::size_t>(1, disjoint.size()));
    for (const Path& p : yen) {
      EXPECT_TRUE(is_valid_trail(g, p));
      EXPECT_EQ(p.source(), src);
      EXPECT_EQ(p.destination(), dst);
    }
    // Yen explores a superset of routes: its k-th path is never longer than
    // the k-th edge-disjoint path.
    for (std::size_t i = 0; i < std::min(yen.size(), disjoint.size()); ++i)
      EXPECT_LE(yen[i].length(), disjoint[i].length());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathSelectionProperty,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// The PathSearch kernel against the filter-based searches it replaced.
// ---------------------------------------------------------------------------

/// The edge-disjoint selection as it was written over bfs_path and an
/// EdgeFilter, before the PathSearch kernel.
std::vector<Path> reference_edge_disjoint(const Graph& g, NodeId src,
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

/// Yen's algorithm as it was written over bfs_path, a std::set of banned
/// edges and an n-sized banned-node vector per spur.
std::vector<Path> reference_yen(const Graph& g, NodeId src, NodeId dst,
                                int k) {
  std::vector<Path> result;
  Path first = bfs_path(g, src, dst);
  if (first.empty()) return result;
  result.push_back(std::move(first));
  auto cmp = [](const Path& x, const Path& y) {
    if (x.length() != y.length()) return x.length() < y.length();
    return x.nodes < y.nodes;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);
  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const std::vector<NodeId> root(
          prev.nodes.begin(),
          prev.nodes.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      std::set<EdgeId> banned_edges;
      for (const Path& p : result)
        if (p.nodes.size() > i &&
            std::equal(root.begin(), root.end(), p.nodes.begin()) &&
            p.edges.size() > i)
          banned_edges.insert(p.edges[i]);
      std::vector<char> banned_node(static_cast<std::size_t>(g.num_nodes()),
                                    0);
      for (std::size_t j = 0; j < i; ++j)
        banned_node[static_cast<std::size_t>(root[j])] = 1;
      const auto filter = [&](EdgeId e) {
        const Graph::Edge& ed = g.edge(e);
        return banned_edges.count(e) == 0 &&
               !banned_node[static_cast<std::size_t>(ed.a)] &&
               !banned_node[static_cast<std::size_t>(ed.b)];
      };
      const Path spur = bfs_path(g, prev.nodes[i], dst, filter);
      if (spur.empty()) continue;
      Path total;
      total.nodes = root;
      total.nodes.insert(total.nodes.end(), spur.nodes.begin() + 1,
                         spur.nodes.end());
      total.edges.assign(prev.edges.begin(),
                         prev.edges.begin() + static_cast<std::ptrdiff_t>(i));
      total.edges.insert(total.edges.end(), spur.edges.begin(),
                         spur.edges.end());
      if (std::find(result.begin(), result.end(), total) == result.end())
        candidates.insert(std::move(total));
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

/// A random graph with parallel channels, closed channels (left out of the
/// adjacency lists but still holding their ids) and an isolated pair of
/// nodes, so unreachable destinations occur too.
Graph kernel_fixture(std::uint64_t seed) {
  Rng rng(seed);
  const Graph base = erdos_renyi_topology(28, 0.1, xrp(10), rng);
  Graph g(base.num_nodes() + 2);
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const Graph::Edge& edge = base.edge(e);
    g.add_edge(edge.a, edge.b, edge.capacity);
    if (rng.chance(0.15)) g.add_edge(edge.a, edge.b, edge.capacity);
  }
  g.add_edge(base.num_nodes(), base.num_nodes() + 1, xrp(10));
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (rng.chance(0.2)) g.close_edge(e);
  return g;
}

class PathSearchKernel : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PathSearchKernel, MatchesReferenceOnRandomGraphsWithClosedEdges) {
  const Graph g = kernel_fixture(GetParam());
  ASSERT_GT(g.closed_edge_count(), 0);
  // One scratch and one buffer for every search below, so stale stamps
  // from earlier pairs would show up as wrong answers.
  PathSearch search;
  FlatPaths out;
  std::size_t reachable = 0;
  std::size_t unreachable = 0;
  for (NodeId src = 0; src < g.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      if (src == dst) continue;
      const Path bfs = bfs_path(g, src, dst);
      out.clear();
      search.clear_excluded_edges(g);
      EXPECT_EQ(search.shortest_path(g, src, dst, {}, out), !bfs.empty());
      if (bfs.empty()) {
        ++unreachable;
        EXPECT_EQ(out.size(), 0u);
      } else {
        ++reachable;
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out.paths().front(), bfs) << src << " -> " << dst;
      }

      for (const int k : {1, 4}) {
        const std::vector<Path> disjoint = reference_edge_disjoint(g, src,
                                                                   dst, k);
        EXPECT_EQ(edge_disjoint_paths(g, src, dst, k), disjoint)
            << src << " -> " << dst << " k=" << k;
        out.clear();
        EXPECT_EQ(edge_disjoint_paths(g, src, dst, k, search, out),
                  disjoint.size());
        EXPECT_EQ(out.paths(), disjoint);

        const std::vector<Path> yen = reference_yen(g, src, dst, k);
        EXPECT_EQ(yen_k_shortest_paths(g, src, dst, k), yen)
            << src << " -> " << dst << " k=" << k;
        out.clear();
        EXPECT_EQ(yen_k_shortest_paths(g, src, dst, k, search, out),
                  yen.size());
        EXPECT_EQ(out.paths(), yen);
      }
    }
  }
  EXPECT_GT(reachable, 0u);
  EXPECT_GT(unreachable, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathSearchKernel,
                         testing::Values(11, 12, 13, 14));

TEST(PathSearch, ExcludedEdgesAndBannedNodesAreAvoided) {
  // Square 0-1-2-3-0 plus the chord 0-2.
  Graph g(4);
  g.add_edge(0, 1, 1);
  const EdgeId e12 = g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(3, 0, 1);
  const EdgeId chord = g.add_edge(0, 2, 1);
  PathSearch search;
  FlatPaths out;
  search.clear_excluded_edges(g);
  ASSERT_TRUE(search.shortest_path(g, 0, 2, {}, out));
  EXPECT_EQ(out.paths().back().edges, std::vector<EdgeId>{chord});
  search.exclude_edge(chord);
  ASSERT_TRUE(search.shortest_path(g, 0, 2, {}, out));
  EXPECT_EQ(out.paths().back().nodes, (std::vector<NodeId>{0, 1, 2}));
  const NodeId banned[] = {1};
  ASSERT_TRUE(search.shortest_path(g, 0, 2, banned, out));
  EXPECT_EQ(out.paths().back().nodes, (std::vector<NodeId>{0, 3, 2}));
  search.exclude_edge(e12);
  const NodeId banned3[] = {3};
  EXPECT_FALSE(search.shortest_path(g, 0, 2, banned3, out));
  search.clear_excluded_edges(g);
  EXPECT_TRUE(search.shortest_path(g, 0, 2, banned3, out));
  EXPECT_EQ(out.size(), 4u);
}

}  // namespace
}  // namespace spider

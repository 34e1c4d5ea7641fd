// Multi-path selection.
//
// §5.3.1: "practical implementations would restrict the set of paths
// considered between each source and destination ... e.g. the K shortest
// paths"; §6.1 restricts Spider's algorithms to "4 disjoint shortest paths".
// Both selection strategies are provided so the path-selection ablation
// (bench_path_ablation) can compare them.
//
// Both run on one BFS kernel that allocates nothing per search: a PathSearch
// scratch holds epoch-stamped per-node `seen` and per-edge `excluded` marks,
// the BFS parent arrays and a flat queue, so a search costs O(visited) with
// no n-sized clears, and results land in caller-owned FlatPaths buffers. A
// caller that computes many pairs (PathCache::warm, CandidatePaths) keeps one
// scratch per thread; the std::vector<Path> overloads build a throwaway one
// per call.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace spider {

/// Paths in flat form: path i has hops[i] edges; its nodes and edges are
/// the next hops[i] + 1 / hops[i] entries of `nodes` / `edges` after those
/// of paths 0..i-1.
struct FlatPaths {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  std::vector<std::uint32_t> hops;

  [[nodiscard]] std::size_t size() const { return hops.size(); }
  void clear() {
    nodes.clear();
    edges.clear();
    hops.clear();
  }
  void append(const Path& path);
  /// Every stored path, front to back.
  [[nodiscard]] std::vector<Path> paths() const;

  /// Reads the stored paths back as Paths, front to back.
  class Cursor {
   public:
    explicit Cursor(const FlatPaths& flat) : flat_(&flat) {}
    /// The next path; requires one to remain.
    [[nodiscard]] Path next();

   private:
    const FlatPaths* flat_;
    std::size_t path_ = 0;
    std::size_t node_ = 0;
    std::size_t edge_ = 0;
  };
};

/// Reusable hop-count BFS scratch. Not thread-safe: one per thread. Sizes
/// itself to the graph on each call, so it survives edges being added.
class PathSearch {
 public:
  /// Makes every edge usable again (O(1)).
  void clear_excluded_edges(const Graph& g);
  /// Hides `e` from searches until the next clear_excluded_edges().
  void exclude_edge(EdgeId e) {
    SPIDER_ASSERT(e >= 0 && static_cast<std::size_t>(e) < excluded_.size());
    excluded_[static_cast<std::size_t>(e)] = exclude_epoch_;
  }

  /// BFS shortest path src -> dst (src != dst) over the non-excluded edges,
  /// never entering a node listed in `banned`. Explores adjacency lists in
  /// insertion order, first discoverer wins and it stops as soon as dst is
  /// discovered — the same path bfs_path returns under the equivalent
  /// filter. Appends the path to `out` and returns true, or returns false
  /// when dst is unreachable.
  bool shortest_path(const Graph& g, NodeId src, NodeId dst,
                     std::span<const NodeId> banned, FlatPaths& out);

 private:
  void fit(const Graph& g);
  /// Appends the src -> dst path the last search's parent links spell out.
  void append_path(NodeId src, NodeId dst, FlatPaths& out) const;

  std::vector<std::uint32_t> seen_;      // per node: == search_epoch_
  std::vector<std::uint32_t> excluded_;  // per edge: == exclude_epoch_
  std::vector<NodeId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<NodeId> queue_;  // each node enters at most once
  std::uint32_t search_epoch_ = 0;
  std::uint32_t exclude_epoch_ = 1;  // 0 is "never excluded"
};

/// Yen's algorithm over hop counts. Returns up to `k` loopless paths in
/// non-decreasing length order (may return fewer if the graph has fewer);
/// none when src == dst.
[[nodiscard]] std::vector<Path> yen_k_shortest_paths(const Graph& g,
                                                     NodeId src, NodeId dst,
                                                     int k);

/// Up to `k` pairwise edge-disjoint paths, greedily shortest-first: repeat
/// { find BFS shortest path avoiding all previously used edges }. This is
/// the "K disjoint shortest paths" selection used in the paper's evaluation.
/// None when src == dst.
[[nodiscard]] std::vector<Path> edge_disjoint_paths(const Graph& g,
                                                    NodeId src, NodeId dst,
                                                    int k);

/// The kernels behind the two functions above: append the same paths to
/// `out` using `search` as scratch, and return how many were appended.
std::size_t yen_k_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                 int k, PathSearch& search, FlatPaths& out);
std::size_t edge_disjoint_paths(const Graph& g, NodeId src, NodeId dst,
                                int k, PathSearch& search, FlatPaths& out);

}  // namespace spider

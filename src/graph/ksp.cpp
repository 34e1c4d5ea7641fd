#include "graph/ksp.hpp"

#include <algorithm>
#include <set>

namespace spider {

void FlatPaths::append(const Path& path) {
  nodes.insert(nodes.end(), path.nodes.begin(), path.nodes.end());
  edges.insert(edges.end(), path.edges.begin(), path.edges.end());
  hops.push_back(static_cast<std::uint32_t>(path.edges.size()));
}

std::vector<Path> FlatPaths::paths() const {
  std::vector<Path> result;
  result.reserve(size());
  Cursor cursor(*this);
  for (std::size_t i = 0; i < size(); ++i) result.push_back(cursor.next());
  return result;
}

Path FlatPaths::Cursor::next() {
  SPIDER_ASSERT(path_ < flat_->size());
  const auto hops = static_cast<std::ptrdiff_t>(flat_->hops[path_++]);
  const auto node =
      flat_->nodes.begin() + static_cast<std::ptrdiff_t>(node_);
  const auto edge =
      flat_->edges.begin() + static_cast<std::ptrdiff_t>(edge_);
  Path path{{node, node + hops + 1}, {edge, edge + hops}};
  node_ += path.nodes.size();
  edge_ += path.edges.size();
  return path;
}

void PathSearch::fit(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (seen_.size() < n) {
    seen_.resize(n, 0);
    parent_.resize(n, kInvalidNode);
    parent_edge_.resize(n, kInvalidEdge);
    queue_.resize(n);
  }
  const auto m = static_cast<std::size_t>(g.num_edges());
  if (excluded_.size() < m) excluded_.resize(m, 0);
}

void PathSearch::clear_excluded_edges(const Graph& g) {
  fit(g);
  if (++exclude_epoch_ == 0) {  // wrapped: an old stamp could alias
    std::fill(excluded_.begin(), excluded_.end(), 0);
    exclude_epoch_ = 1;
  }
}

bool PathSearch::shortest_path(const Graph& g, NodeId src, NodeId dst,
                               std::span<const NodeId> banned,
                               FlatPaths& out) {
  SPIDER_ASSERT(src >= 0 && src < g.num_nodes());
  SPIDER_ASSERT(dst >= 0 && dst < g.num_nodes());
  SPIDER_ASSERT(src != dst);
  fit(g);
  if (++search_epoch_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    search_epoch_ = 1;
  }
  const std::uint32_t epoch = search_epoch_;
  // A banned node is exactly a node already seen: never entered, never
  // expanded.
  for (const NodeId node : banned) seen_[static_cast<std::size_t>(node)] = epoch;
  seen_[static_cast<std::size_t>(src)] = epoch;
  std::size_t head = 0;
  std::size_t tail = 0;
  queue_[tail++] = src;
  while (head < tail) {
    const NodeId u = queue_[head++];
    for (const Graph::Adjacency& adj : g.neighbors(u)) {
      if (excluded_[static_cast<std::size_t>(adj.edge)] == exclude_epoch_)
        continue;
      const auto peer = static_cast<std::size_t>(adj.peer);
      if (seen_[peer] == epoch) continue;
      seen_[peer] = epoch;
      parent_[peer] = u;
      parent_edge_[peer] = adj.edge;
      if (adj.peer == dst) {
        append_path(src, dst, out);
        return true;
      }
      queue_[tail++] = adj.peer;
    }
  }
  return false;
}

void PathSearch::append_path(NodeId src, NodeId dst, FlatPaths& out) const {
  std::size_t hops = 0;
  for (NodeId v = dst; v != src; v = parent_[static_cast<std::size_t>(v)])
    ++hops;
  const std::size_t node_at = out.nodes.size();
  const std::size_t edge_at = out.edges.size();
  out.nodes.resize(node_at + hops + 1);
  out.edges.resize(edge_at + hops);
  NodeId v = dst;
  for (std::size_t i = hops; i > 0; --i) {
    out.nodes[node_at + i] = v;
    out.edges[edge_at + i - 1] = parent_edge_[static_cast<std::size_t>(v)];
    v = parent_[static_cast<std::size_t>(v)];
  }
  out.nodes[node_at] = src;
  out.hops.push_back(static_cast<std::uint32_t>(hops));
}

std::size_t yen_k_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                 int k, PathSearch& search, FlatPaths& out) {
  SPIDER_ASSERT(k >= 0);
  if (k == 0 || src == dst) return 0;
  FlatPaths spur_path;
  search.clear_excluded_edges(g);
  if (!search.shortest_path(g, src, dst, {}, spur_path)) return 0;
  std::vector<Path> result;
  result.push_back(FlatPaths::Cursor(spur_path).next());

  // Candidate set ordered by (length, node sequence) for determinism.
  auto cmp = [](const Path& x, const Path& y) {
    if (x.length() != y.length()) return x.length() < y.length();
    return x.nodes < y.nodes;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);

  while (result.size() < static_cast<std::size_t>(k)) {
    const Path& prev = result.back();
    // Each node of the previous path (except the last) is a spur node.
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const NodeId spur = prev.nodes[i];
      const std::span<const NodeId> root(prev.nodes.data(), i + 1);

      // Edges leaving the spur node along any accepted path sharing this
      // root must be excluded, and the interior root nodes are banned
      // (keeps spur paths loopless w.r.t. the root).
      search.clear_excluded_edges(g);
      for (const Path& p : result)
        if (p.edges.size() > i &&
            std::equal(root.begin(), root.end(), p.nodes.begin()))
          search.exclude_edge(p.edges[i]);
      spur_path.clear();
      if (!search.shortest_path(g, spur, dst, root.first(i), spur_path))
        continue;

      Path total;
      total.nodes.assign(root.begin(), root.end());
      total.nodes.insert(total.nodes.end(), spur_path.nodes.begin() + 1,
                         spur_path.nodes.end());
      total.edges.assign(prev.edges.begin(),
                         prev.edges.begin() + static_cast<std::ptrdiff_t>(i));
      total.edges.insert(total.edges.end(), spur_path.edges.begin(),
                         spur_path.edges.end());
      if (std::find(result.begin(), result.end(), total) == result.end())
        candidates.insert(std::move(total));
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  for (const Path& p : result) out.append(p);
  return result.size();
}

std::size_t edge_disjoint_paths(const Graph& g, NodeId src, NodeId dst,
                                int k, PathSearch& search, FlatPaths& out) {
  SPIDER_ASSERT(k >= 0);
  if (src == dst) return 0;
  search.clear_excluded_edges(g);
  std::size_t found = 0;
  while (found < static_cast<std::size_t>(k) &&
         search.shortest_path(g, src, dst, {}, out)) {
    ++found;
    for (std::size_t e = out.edges.size() - out.hops.back();
         e < out.edges.size(); ++e)
      search.exclude_edge(out.edges[e]);
  }
  return found;
}

std::vector<Path> yen_k_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                       int k) {
  PathSearch search;
  FlatPaths out;
  yen_k_shortest_paths(g, src, dst, k, search, out);
  return out.paths();
}

std::vector<Path> edge_disjoint_paths(const Graph& g, NodeId src, NodeId dst,
                                      int k) {
  PathSearch search;
  FlatPaths out;
  edge_disjoint_paths(g, src, dst, k, search, out);
  return out.paths();
}

}  // namespace spider

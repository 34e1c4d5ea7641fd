#include "routing/path_cache.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <thread>

#include "util/assert.hpp"

namespace spider {

namespace {

/// Hops per path a warm worker's buffers are sized for up front. Candidate
/// paths on the registry graphs are shorter: about 4.5 hops on average on
/// ripple-full, less on the others, and at most 29 nodes per 4-path pair.
constexpr std::size_t kReservedHopsPerPath = 7;

/// Appends (src, dst)'s candidate paths under `selection` to `out`; returns
/// how many.
std::size_t select_paths(const Graph& graph, NodeId src, NodeId dst, int k,
                         PathSelection selection, PathSearch& search,
                         FlatPaths& out) {
  switch (selection) {
    case PathSelection::kEdgeDisjoint:
      return edge_disjoint_paths(graph, src, dst, k, search, out);
    case PathSelection::kYen:
      return yen_k_shortest_paths(graph, src, dst, k, search, out);
  }
  return 0;
}

}  // namespace

std::string path_selection_name(PathSelection selection) {
  switch (selection) {
    case PathSelection::kEdgeDisjoint: return "edge-disjoint";
    case PathSelection::kYen: return "yen";
  }
  return "?";
}

PathCache::PathCache(const Graph& graph, int k, PathSelection selection)
    : graph_(&graph), k_(k), selection_(selection) {
  SPIDER_ASSERT(k >= 1);
  const auto n = static_cast<std::size_t>(graph.num_nodes());
  dense_ = graph.num_nodes() <= kDenseNodeLimit;
  if (dense_) dense_index_.assign(n * n, PairEntry{});
}

PathCache::PairEntry PathCache::lookup(NodeId src, NodeId dst) const {
  // Every public entry point funnels through here, so a degenerate trace
  // with out-of-range node ids hits a clean assert instead of indexing the
  // dense table out of bounds.
  SPIDER_ASSERT(src >= 0 && src < graph_->num_nodes());
  SPIDER_ASSERT(dst >= 0 && dst < graph_->num_nodes());
  if (dense_) return dense_index_[dense_key(src, dst)];
  const auto it = sparse_index_.find(sparse_key(src, dst));
  return it == sparse_index_.end() ? PairEntry{} : it->second;
}

PathCache::PairEntry PathCache::compute_and_store(NodeId src, NodeId dst) {
  found_.clear();
  const std::size_t count =
      select_paths(*graph_, src, dst, k_, selection_, search_, found_);
  FlatPaths::Cursor cursor(found_);
  return store(src, dst, cursor, count);
}

PathCache::PairEntry PathCache::store(NodeId src, NodeId dst,
                                      FlatPaths::Cursor& cursor,
                                      std::size_t count) {
  PairEntry entry;
  entry.begin = static_cast<std::uint32_t>(arena_.size());
  entry.count = static_cast<std::int32_t>(count);
  for (std::size_t i = 0; i < count; ++i) arena_.push_back(cursor.next());
  slot(src, dst) = entry;
  ++pair_count_;
  return entry;
}

std::span<const Path> PathCache::paths(NodeId src, NodeId dst) {
  if (src == dst) return {};
  PairEntry entry = lookup(src, dst);
  if (entry.count < 0) entry = compute_and_store(src, dst);
  return resolve(entry);
}

std::span<const Path> PathCache::cached(NodeId src, NodeId dst) const {
  if (src == dst) return {};
  const PairEntry entry = lookup(src, dst);
  return entry.count < 0 ? std::span<const Path>{} : resolve(entry);
}

bool PathCache::contains(NodeId src, NodeId dst) const {
  return src == dst || lookup(src, dst).count >= 0;
}

void PathCache::warm(std::span<const std::pair<NodeId, NodeId>> pairs,
                     unsigned workers) {
  const std::size_t visits_per_pair =
      static_cast<std::size_t>(k_) *
      (static_cast<std::size_t>(graph_->num_nodes()) +
       2 * static_cast<std::size_t>(graph_->num_edges()));
  warm_for_testing(pairs, workers,
                   kWarmVisitsPerWorker /
                           std::max<std::size_t>(visits_per_pair, 1) +
                       1);
}

void PathCache::warm_for_testing(
    std::span<const std::pair<NodeId, NodeId>> pairs, unsigned workers,
    std::size_t min_pairs_per_worker) {
  // The missing pairs, each once, in first-occurrence order: the order a
  // serial warm would store them in. A listed pair's index entry is marked
  // kQueued until its paths are stored, so repeats are skipped.
  std::vector<std::pair<NodeId, NodeId>> jobs;
  for (const auto& [src, dst] : pairs) {
    if (src == dst || lookup(src, dst).count != kNotComputed) continue;
    slot(src, dst).count = kQueued;
    jobs.emplace_back(src, dst);
  }
  try {
    store_jobs(jobs, workers, min_pairs_per_worker);
  } catch (...) {
    // Unmark what was not stored, so a later warm lists it again.
    for (const auto& [src, dst] : jobs)
      if (slot(src, dst).count == kQueued) slot(src, dst).count = kNotComputed;
    throw;
  }
}

void PathCache::store_jobs(std::span<const std::pair<NodeId, NodeId>> jobs,
                           unsigned workers,
                           std::size_t min_pairs_per_worker) {
  if (jobs.empty()) return;
  const std::size_t block_count = std::clamp<std::size_t>(
      jobs.size() / std::max<std::size_t>(min_pairs_per_worker, 1), 1,
      std::max(workers, 1u));
  const auto block_begin = [&](std::size_t b) {
    return jobs.size() * b / block_count;
  };
  // Room for the most paths the pairs can add, so the arena does not regrow
  // and copy partway through; pages past the paths stored are never
  // touched.
  const std::size_t need = arena_.size() + jobs.size() *
                                               static_cast<std::size_t>(k_);
  if (need > arena_.capacity())
    arena_.reserve(std::max(need, 2 * arena_.capacity()));

  // The jobs are split into contiguous blocks. Blocks 1.. are each searched
  // on their own thread, with their own scratch, into their own flat
  // buffers; block 0 is searched on the calling thread and stored as it
  // goes, since no worker reads the arena or the index. So a one-block warm
  // starts no thread and holds no flat buffers. A worker's scratch and
  // buffers are allocated here, on the calling thread, and sized so an
  // edge-disjoint worker normally never allocates: memory a worker
  // allocates lands in its own malloc arena, which the calling thread
  // cannot reuse afterwards. Yen's kernel still allocates its candidates
  // on the worker (DESIGN.md).
  struct Block {
    PathSearch search;
    FlatPaths found;
    std::vector<std::size_t> counts;  // paths per pair, in job order
    std::exception_ptr error;
  };
  const std::size_t path_nodes = std::min<std::size_t>(
      kReservedHopsPerPath + 1, static_cast<std::size_t>(graph_->num_nodes()));
  std::vector<Block> blocks(block_count);  // blocks[0] stays empty
  for (std::size_t b = 1; b < block_count; ++b) {
    Block& block = blocks[b];
    const std::size_t pairs = block_begin(b + 1) - block_begin(b);
    const std::size_t max_paths = pairs * static_cast<std::size_t>(k_);
    block.search.clear_excluded_edges(*graph_);  // sizes the scratch
    block.found.nodes.reserve(max_paths * path_nodes);
    block.found.edges.reserve(max_paths * (path_nodes - 1));
    block.found.hops.reserve(max_paths);
    block.counts.reserve(pairs);
  }
  const auto search_block = [&](std::size_t b) {
    Block& block = blocks[b];
    try {
      for (std::size_t j = block_begin(b); j < block_begin(b + 1); ++j)
        block.counts.push_back(select_paths(*graph_, jobs[j].first,
                                            jobs[j].second, k_, selection_,
                                            block.search, block.found));
    } catch (...) {
      block.error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(block_count - 1);
    for (std::size_t b = 1; b < block_count; ++b)
      threads.emplace_back(search_block, b);
    for (std::size_t j = 0; j < block_begin(1); ++j)
      (void)compute_and_store(jobs[j].first, jobs[j].second);
  }  // joins every worker, also when block 0 threw
  for (const Block& block : blocks)
    if (block.error) std::rethrow_exception(block.error);

  // Build the workers' Paths here, on the calling thread, in pair order,
  // freeing each block's buffers as soon as they are consumed.
  for (std::size_t b = 1; b < block_count; ++b) {
    Block& block = blocks[b];
    FlatPaths::Cursor cursor(block.found);
    for (std::size_t j = block_begin(b); j < block_begin(b + 1); ++j)
      (void)store(jobs[j].first, jobs[j].second, cursor,
                  block.counts[j - block_begin(b)]);
    block = Block{};
  }
}

void CandidatePaths::init(const Graph& graph, int k, PathSelection selection,
                          const PathCache* shared) {
  SPIDER_ASSERT(k >= 1);
  graph_ = &graph;
  k_ = k;
  selection_ = selection;
  shared_ = (shared != nullptr && shared->k() >= k &&
             shared->selection() == selection)
                ? shared
                : nullptr;
  own_.reset();
  generation_ = 0;
  memo_.clear();
  sparse_memo_.clear();
  delta_.clear();
}

std::span<const Path> CandidatePaths::paths(NodeId src, NodeId dst) {
  SPIDER_ASSERT_MSG(graph_ != nullptr, "init() must run before paths()");
  std::span<const Path> base;
  if (shared_ != nullptr && shared_->contains(src, dst)) {
    const std::span<const Path> stored = shared_->cached(src, dst);
    base = stored.first(std::min(stored.size(), static_cast<std::size_t>(k_)));
  } else {
    if (!own_) own_.emplace(*graph_, k_, selection_);
    base = own_->paths(src, dst);
  }
  // Static fast path: no channel has ever closed, so every stored path is a
  // valid trail and the lookup is exactly the pre-churn one.
  if (graph_->closed_edge_count() == 0) return base;
  // Close-aware path: consult the per-(pair, generation) verdict memo — a
  // current tag answers without touching the paths at all. Dense array up
  // to kDenseNodeLimit nodes, hash-keyed beyond (same trade as the path
  // store's own index split).
  std::uint64_t& tag = memo_tag(src, dst);
  if ((tag >> 32) == generation_ + 1) {
    const auto code = static_cast<std::uint32_t>(tag);
    if (code == 0) return base;
    const std::vector<Path>& stored = delta_[code - 1];
    return {stored.data(), stored.size()};
  }
  const std::span<const Path> result = churned_paths(base, src, dst);
  // churned_paths appended to delta_ iff the base span was stale.
  const std::uint64_t code =
      result.data() == base.data() && result.size() == base.size()
          ? 0
          : static_cast<std::uint64_t>(delta_.size());
  tag = ((generation_ + 1) << 32) | code;
  return result;
}

std::uint64_t& CandidatePaths::memo_tag(NodeId src, NodeId dst) {
  if (graph_->num_nodes() <= PathCache::kDenseNodeLimit) {
    const auto n = static_cast<std::size_t>(graph_->num_nodes());
    if (memo_.empty()) memo_.assign(n * n, 0);
    return memo_[static_cast<std::size_t>(src) * n +
                 static_cast<std::size_t>(dst)];
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  return sparse_memo_[key];
}

bool CandidatePaths::all_open(std::span<const Path> paths) const {
  for (const Path& path : paths)
    for (const EdgeId e : path.edges)
      if (graph_->edge_closed(e)) return false;
  return true;
}

std::vector<Path> CandidatePaths::compute_pair(NodeId src, NodeId dst) {
  found_.clear();
  (void)select_paths(*graph_, src, dst, k_, selection_, search_, found_);
  return found_.paths();
}

std::span<const Path> CandidatePaths::churned_paths(
    std::span<const Path> base, NodeId src, NodeId dst) {
  // Validation runs once per (pair, generation) — the caller memoizes the
  // verdict. A base answer that avoids every closed edge is still exact
  // (opens never invalidate it — open-lazy semantics); a stale one is
  // recomputed against the current graph into this generation's delta.
  if (all_open(base)) return base;
  delta_.push_back(compute_pair(src, dst));
  const std::vector<Path>& stored = delta_.back();
  return {stored.data(), stored.size()};
}

}  // namespace spider

// Experiment-level configuration: which scheme, with which knobs.
//
// `Scheme` enumerates the six routing schemes of Fig. 6 plus the price-based
// extension; `SpiderConfig` gathers every tunable the paper mentions with
// the paper's defaults (Δ = 0.5 s, 4 edge-disjoint paths, SRPT, 5 s
// deadlines, equal channel splits).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "routing/lp_router.hpp"
#include "routing/path_cache.hpp"
#include "routing/primal_dual_router.hpp"
#include "routing/router.hpp"
#include "sim/simulator.hpp"

namespace spider {

enum class Scheme {
  kSpiderWaterfilling,
  kSpiderLp,
  kMaxFlow,
  kShortestPath,
  kSilentWhispers,
  kSpeedyMurmurs,
  kSpiderPrimalDual,  // extension (§5.3 run online); not in Fig. 6
  kSpiderDctcp,       // §4.2+§5.2 transport: marks + per-path AIMD windows
  kBackpressure,      // Varma–Maguluri least-backlog routing (PAPERS.md)
};

/// Display name matching the paper's figure legends.
[[nodiscard]] std::string scheme_name(Scheme scheme);

/// Inverse of scheme_name plus the kebab-case aliases used by env knobs
/// and bench tables ("spider-dctcp", "backpressure", "shortest-path", ...).
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Scheme scheme_from_name(const std::string& name);

/// The six schemes evaluated in Fig. 6, in the paper's legend order.
[[nodiscard]] std::vector<Scheme> paper_schemes();

/// All implemented schemes (paper six + primal–dual, DCTCP-transport, and
/// backpressure extensions).
[[nodiscard]] std::vector<Scheme> all_schemes();

/// True if `scheme` only functions with the transport layer's router queues
/// live: SimSession auto-enables SimConfig::transport and router-queue mode
/// for these when the caller left transport off.
[[nodiscard]] bool scheme_requires_transport(Scheme scheme);

/// True if `scheme`'s router consumes the shared candidate-path store
/// (RouterInitContext::shared_paths) — the schemes that plan over cached
/// Yen / edge-disjoint candidates. SpiderNetwork::run only pays the warm
/// pass for these; the rest (max-flow, embeddings, landmarks, LP) compute
/// their own routes and would never read the store.
[[nodiscard]] bool scheme_uses_path_store(Scheme scheme);

struct SpiderConfig {
  SimConfig sim;
  int num_paths = 4;  // §6.1: "4 disjoint shortest paths"
  PathSelection path_selection = PathSelection::kEdgeDisjoint;
  int num_landmarks = 3;  // SilentWhispers
  int num_trees = 3;      // SpeedyMurmurs
  /// Spider (LP): cap on modeled demand pairs (0 = unlimited); see LpRouter.
  int lp_max_pairs = 0;
  /// Spider (LP): pure throughput (the paper) or two-stage max-min fairness
  /// (the §5.3/§6.2 fairness direction).
  LpObjective lp_objective = LpObjective::kThroughput;
  /// Fixed at 1; validate() rejects any other value. Kept only because
  /// the frozen benchmark harness (perfbench/) sets and prints it; see
  /// DESIGN.md "No sharded engine".
  int shards = 1;
  /// §4.1 AMP mode: make Spider's (normally non-atomic) schemes atomic —
  /// every payment is delivered in full at arrival or fails outright. Used
  /// by the atomicity ablation; the paper's evaluation runs non-atomic.
  bool amp_atomic = false;
  PrimalDualRouterConfig primal_dual;

  /// Throws std::invalid_argument on out-of-range settings.
  void validate() const;
};

/// Instantiates the router for `scheme` under `config`.
[[nodiscard]] std::unique_ptr<Router> make_router(Scheme scheme,
                                                  const SpiderConfig& config);

}  // namespace spider

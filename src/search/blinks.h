// Blinks — ranked keyword search (He et al., SIGMOD'07; paper Sec. 5.3
// "Ranked Keyword Search" / rkws).
//
// Semantics: distinct-root top-k. An answer root r must reach, within d_max
// hops, one vertex per query keyword; its score is Σ_i dist(r, p_i) (lower is
// better); at most one answer (the best) per root; the k best roots win.
//
// Search: per-keyword backward expansion ("expanding backward" of Sec. 5.3)
// in round-robin increasing-frontier order — a scheduler over the
// keyword-cone kernel (search/keyword_cones.h) that always advances the
// least-advanced cone by one level. The cones alone supply every distance,
// answer and lower bound; the search keeps no per-graph state, so it needs
// nothing built ahead of a query and one BlinksAlgorithm serves any number
// of graphs and threads. Early termination is sound: the search stops once
// the k best complete roots provably beat every incomplete or undiscovered
// root, so results equal exhaustive enumeration (tests verify this). With
// top_k = 0 it keeps no bookkeeping and expands every cone to d_max.
// Witnesses and paths follow the kernel's one rule: the least (witness,
// parent) pair, which picks the smallest-id nearest keyword vertex
// (CompleteRootedAnswer's witness too), so Blinks, bkws and bidirectional
// return identical answers.
//
// The search does not use He et al.'s bi-level index (per-block node-keyword
// maps over a METIS partition); pruning with it would change the algorithm.

#ifndef BIGINDEX_SEARCH_BLINKS_H_
#define BIGINDEX_SEARCH_BLINKS_H_

#include <cstdint>
#include <vector>

#include "core/search_algorithm.h"
#include "engine/query_context.h"
#include "graph/graph.h"
#include "search/answer.h"

namespace bigindex {

/// Options for Blinks search.
struct BlinksOptions {
  /// Pruning threshold τ_prune of He et al.; the paper's experiments use 5.
  uint32_t d_max = 5;

  /// Number of answers to return; 0 = all answer roots (used by the
  /// equivalence tests; benchmarks use the paper's top-k setting).
  size_t top_k = 0;
};

/// Search diagnostics (exposed for the paper's breakdown figures).
struct BlinksStats {
  size_t vertices_popped = 0;   // cone expansion work
  size_t levels_expanded = 0;   // round-robin rounds
  bool early_terminated = false;
};

/// Runs Blinks on `g`; scratch comes from `ctx`.
std::vector<Answer> BlinksSearch(const Graph& g,
                                 const std::vector<LabelId>& keywords,
                                 const BlinksOptions& options,
                                 QueryContext& ctx,
                                 BlinksStats* stats = nullptr);

/// Convenience overload running on a throwaway context.
std::vector<Answer> BlinksSearch(const Graph& g,
                                 const std::vector<LabelId>& keywords,
                                 const BlinksOptions& options,
                                 BlinksStats* stats = nullptr);

/// Adapter implementing the pluggable `f` interface. Stateless apart from its
/// options, so one object may serve concurrent queries over any graphs.
class BlinksAlgorithm final : public KeywordSearchAlgorithm {
 public:
  explicit BlinksAlgorithm(BlinksOptions options = {}) : options_(options) {}

  using KeywordSearchAlgorithm::Evaluate;
  using KeywordSearchAlgorithm::VerifyCandidate;

  std::string_view Name() const override { return "blinks"; }

  std::vector<Answer> Evaluate(const Graph& g,
                               const std::vector<LabelId>& keywords,
                               QueryContext& ctx) const override;

  bool IsRooted() const override { return true; }

  // Every answer vertex lies on a root->keyword path of length <= d_max.
  uint32_t LocalityRadius() const override { return options_.d_max; }

  std::optional<Answer> VerifyCandidate(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const Answer& candidate,
                                        QueryContext& ctx) const override;

  const BlinksOptions& options() const { return options_; }

 private:
  BlinksOptions options_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SEARCH_BLINKS_H_

// r-clique keyword search (Kargar & An, VLDB'11; paper Sec. 5.2 "Distance-
// based Keyword Search" / dkws).
//
// Semantics: an answer picks one vertex per query keyword such that every
// pair of picked vertices is within r hops of each other (distances are
// symmetric — we use the undirected view, as r-cliques are defined over
// mutual proximity). Answers are ranked by weight = Σ pairwise distances;
// top-k answers are produced by the 2-approximate greedy best-answer
// procedure plus Lawler-style search-space decomposition, exactly the
// structure summarized in the paper's "Initialization / Search space
// decomposition / Termination" steps.
//
// Distance index: the neighbor list of Kargar & An — for every vertex, all
// vertices within r hops with their distances. Its memory is O(|V| * m̄)
// and famously explodes (the paper estimates 16 TB on IMDB);
// EstimateMemoryBytes() reproduces that estimate and Build() fails with
// FailedPrecondition when a caller-set budget would be exceeded, which is the
// behaviour the paper reports ("r-clique can not handle the IMDB dataset").

#ifndef BIGINDEX_SEARCH_RCLIQUE_H_
#define BIGINDEX_SEARCH_RCLIQUE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/search_algorithm.h"
#include "engine/query_context.h"
#include "graph/graph.h"
#include "search/answer.h"
#include "search/per_graph_cache.h"
#include "util/random.h"
#include "util/status.h"

namespace bigindex {

/// Options for r-clique search.
struct RCliqueOptions {
  /// Pairwise distance bound (the paper's experiments use R = 4).
  uint32_t r = 4;

  /// Number of answers to produce; 0 returns every answer the decomposition
  /// enumerates (exponential in theory — use only on small graphs/tests).
  size_t top_k = 10;

  /// Budget for the neighbor index in bytes; Build fails beyond it.
  size_t memory_budget_bytes = SIZE_MAX;
};

/// The neighbor list of Kargar & An: per-vertex (vertex, distance) pairs for
/// all vertices within r hops in the undirected view.
class NeighborIndex {
 public:
  /// Builds the index; fails with FailedPrecondition if the estimated size
  /// exceeds `memory_budget_bytes`.
  static StatusOr<NeighborIndex> Build(const Graph& g, uint32_t r,
                                       size_t memory_budget_bytes = SIZE_MAX);

  /// Undirected distance from u to v if <= r, else kInfDistance. O(log d̄).
  uint32_t Distance(VertexId u, VertexId v) const;

  /// All (vertex, distance) pairs within r hops of u, sorted by vertex id.
  std::span<const std::pair<VertexId, uint32_t>> Neighborhood(
      VertexId u) const {
    return {entries_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  size_t NumEntries() const { return entries_.size(); }
  size_t MemoryBytes() const {
    return entries_.size() * sizeof(entries_[0]) +
           offsets_.size() * sizeof(offsets_[0]);
  }

  /// Estimates the full index size by sampling `samples` vertices; this is
  /// how we reproduce the paper's "16 TB on IMDB" infeasibility estimate
  /// without building the index.
  static size_t EstimateMemoryBytes(const Graph& g, uint32_t r,
                                    size_t samples, Rng& rng);

 private:
  std::vector<uint64_t> offsets_;
  std::vector<std::pair<VertexId, uint32_t>> entries_;
};

/// Search diagnostics.
struct RCliqueStats {
  size_t spaces_explored = 0;
  size_t candidates_scored = 0;
};

/// Runs r-clique with a prebuilt neighbor index; scratch comes from `ctx`.
std::vector<Answer> RCliqueSearch(const Graph& g, const NeighborIndex& index,
                                  const std::vector<LabelId>& keywords,
                                  const RCliqueOptions& options,
                                  QueryContext& ctx,
                                  RCliqueStats* stats = nullptr);

/// Convenience overload running on a throwaway context.
std::vector<Answer> RCliqueSearch(const Graph& g, const NeighborIndex& index,
                                  const std::vector<LabelId>& keywords,
                                  const RCliqueOptions& options,
                                  RCliqueStats* stats = nullptr);

/// Exhaustive exact enumeration of all valid r-clique answers (every keyword
/// tuple with pairwise distance <= r), ranked by weight. Exponential — for
/// tests and tiny graphs only.
std::vector<Answer> RCliqueEnumerateAll(const Graph& g,
                                        const NeighborIndex& index,
                                        const std::vector<LabelId>& keywords,
                                        uint32_t r);

/// Adapter implementing the pluggable `f` interface; neighbor indexes are
/// built lazily per graph and cached by storage identity (not graph address
/// — see search/per_graph_cache.h; mutex-guarded, so one algorithm object
/// may serve concurrent queries). The verification ball cache lives in the
/// QueryContext — per evaluation, lock-free.
class RCliqueAlgorithm final : public KeywordSearchAlgorithm {
 public:
  explicit RCliqueAlgorithm(RCliqueOptions options = {})
      : options_(options) {}

  using KeywordSearchAlgorithm::Evaluate;
  using KeywordSearchAlgorithm::VerifyCandidate;

  std::string_view Name() const override { return "r-clique"; }

  std::vector<Answer> Evaluate(const Graph& g,
                               const std::vector<LabelId>& keywords,
                               QueryContext& ctx) const override;

  bool IsRooted() const override { return false; }

  // The anchor is an answer's smallest keyword vertex. Picks are pairwise
  // within r (so within r of the anchor), and scoring consults witness
  // paths of length <= r between picks, whose vertices are within
  // r + r = 2r of the anchor.
  uint32_t LocalityRadius() const override { return 2 * options_.r; }

  /// Checks the candidate's keyword assignment: labels must match the query
  /// and all pairwise undirected distances must be <= r (verified by bounded
  /// BFS on `g` — no neighbor index needed at the data layer, mirroring
  /// boost-dkws which only builds the neighbor list on the query layer).
  /// The bounded undirected r-balls around keyword vertices are cached in
  /// `ctx` and shared across the many candidates one query verifies
  /// (candidates draw from small vertex pools, so hit rates are high).
  std::optional<Answer> VerifyCandidate(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const Answer& candidate,
                                        QueryContext& ctx) const override;

  const RCliqueOptions& options() const { return options_; }

 private:
  RCliqueOptions options_;
  mutable PerGraphCache<NeighborIndex> cache_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SEARCH_RCLIQUE_H_

// The pluggable keyword-search interface `f` of the problem statement
// (Def 2.3): BiG-index is generic over any algorithm that evaluates a keyword
// query on a graph, provided the index transformation is label- and
// path-preserving (Sec. 2) — which our Gen/Bisim pipeline guarantees.
//
// Implementations in src/search: BkwsAlgorithm (backward keyword search,
// BANKS-style), BlinksAlgorithm (ranked distinct-root top-k), and
// RCliqueAlgorithm (distance-bounded multi-center answers). They run
// unchanged on data graphs and on summary layers — summaries are "yet another
// set of graphs" (Sec. 1).
//
// Re-entrancy contract: implementations hold no per-query mutable state —
// all scratch memory comes from the QueryContext threaded through every
// call, so one algorithm object serves concurrent queries (each on its own
// context) over shared graphs. Caches of derived per-graph structures
// (r-clique neighbor lists) are allowed but must be internally
// synchronized.

#ifndef BIGINDEX_CORE_SEARCH_ALGORITHM_H_
#define BIGINDEX_CORE_SEARCH_ALGORITHM_H_

#include <optional>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "search/answer.h"

namespace bigindex {

class QueryContext;

/// Interface for a keyword search semantics (the paper's f).
///
/// Evaluate() receives keywords as label ids valid for `g`'s dictionary and
/// returns answers over `g`'s vertex ids. Implementations must be
/// deterministic for a given (graph, keywords) pair — BiG-index's equivalence
/// guarantee (Thm 4.2) is stated answer-set-wise and the tests compare sets.
///
/// Implementations override the QueryContext overloads; the context-free
/// overloads are non-virtual conveniences that run on a private throwaway
/// context. Derived classes should `using KeywordSearchAlgorithm::Evaluate;`
/// (and likewise VerifyCandidate) so the conveniences stay visible.
class KeywordSearchAlgorithm {
 public:
  virtual ~KeywordSearchAlgorithm() = default;

  /// Human-readable name ("bkws", "blinks", "r-clique").
  virtual std::string_view Name() const = 0;

  /// Evaluates `keywords` on `g` and returns all (or top-k, per the
  /// algorithm's own options) answers, drawing scratch memory from `ctx`.
  virtual std::vector<Answer> Evaluate(const Graph& g,
                                       const std::vector<LabelId>& keywords,
                                       QueryContext& ctx) const = 0;

  /// True for rooted-tree semantics (bkws, Blinks): answers are identified
  /// by their root and BiG-index enumerates candidate roots during answer
  /// generation. False for multi-center semantics (r-clique), where
  /// candidates are keyword-vertex assignments.
  virtual bool IsRooted() const = 0;

  /// Locality radius ρ of the semantics: every vertex an answer depends on
  /// (its own vertices, and every path consulted while scoring it) lies
  /// within undirected distance ρ of the answer's anchor (the root for
  /// rooted semantics, else its smallest keyword vertex). The shard
  /// substrate's boundary completion pass (DESIGN.md §9) uses ρ to decide
  /// which answers are shard-exact: 0 means "unknown/unbounded" and
  /// disables cross-shard completion for this algorithm.
  virtual uint32_t LocalityRadius() const { return 0; }

  /// Verifies one layer-0 candidate produced by BiG-index answer generation
  /// (Sec. 4.2 Step 5 / Sec. 5 "answer generation and verification") and, if
  /// it satisfies the semantics, returns the *exact* answer: for rooted
  /// semantics only candidate.root is consulted and the best tree for that
  /// root is computed on `g`; for r-clique the keyword assignment is
  /// distance-verified and exactly scored. Returns nullopt otherwise.
  virtual std::optional<Answer> VerifyCandidate(
      const Graph& g, const std::vector<LabelId>& keywords,
      const Answer& candidate, QueryContext& ctx) const = 0;

  /// Single-call conveniences: same results, throwaway context.
  std::vector<Answer> Evaluate(const Graph& g,
                               const std::vector<LabelId>& keywords) const;
  std::optional<Answer> VerifyCandidate(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const Answer& candidate) const;
};

}  // namespace bigindex

#endif  // BIGINDEX_CORE_SEARCH_ALGORITHM_H_

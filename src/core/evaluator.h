// Hierarchical query processing eval_Ont (Algorithm 2, Fig. 5):
//
//   (2) generalize the query to the optimal layer m (Sec. 4.1),
//   (3) evaluate f on the summary graph G^m,
//   (4) specialize + prune the generalized answers down the hierarchy,
//       realize concrete answer graphs (Algorithms 3/4), and verify them at
//       the data layer for exact scores. Exact rooted evaluation specializes
//       only each generalized root and verifies its layer-0 specializations
//       directly: that root set is complete (Lemma 4.1), so realized answer
//       graphs would go unread and are never built.
//
// Correctness contract (Thm 4.2): for rooted semantics evaluated without a
// top-k cut, the (root, score) answer set equals direct evaluation — the
// candidate root set is a superset of all true roots (Lemma 4.1 plus the
// observation that root candidates are never label-pruned), and per-root
// verification computes exact best trees on G^0. With top-k, the progressive
// specialization of Sec. 4.3.4 applies (generalized rank order guides
// specialization). Exact rooted evaluation stops at a score threshold: a
// generalized answer's score bounds its roots' exact scores from below
// (Prop 5.2), so, when f has no top-k cut of its own and returns every
// summary answer, its top k equals direct evaluation's first k. Fast mode
// and r-clique stop once k answers are realized or verified (Prop 5.3
// motivates their accuracy).

#ifndef BIGINDEX_CORE_EVALUATOR_H_
#define BIGINDEX_CORE_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "core/answer_gen.h"
#include "core/big_index.h"
#include "core/query.h"
#include "core/search_algorithm.h"
#include "search/answer.h"
#include "util/timer.h"

namespace bigindex {

/// Options for one hierarchical evaluation.
struct EvalOptions {
  /// Weight β of the query-layer cost model (Formula 4).
  double beta = 0.5;

  /// Force evaluation at a specific layer (Fig. 19's per-layer sweeps);
  /// -1 = pick the optimal layer via the cost model. A forced layer that
  /// violates Def 4.1 falls back to the highest feasible layer below it.
  int forced_layer = -1;

  /// Return only the best k answers; 0 = all. With k > 0 the evaluator
  /// specializes generalized answers progressively in rank order (Sec.
  /// 4.3.4). Exact rooted evaluation stops at the first generalized answer
  /// scoring above the k-th best exact score, so the k answers are exact
  /// when f has no top-k cut of its own; the other modes stop once k
  /// answers are realized or verified.
  size_t top_k = 0;

  /// Algorithm 3/4 switches (Fig. 17/18 ablations). They act only where
  /// answers are realized: in fast mode and for non-rooted semantics
  /// (r-clique). Exact rooted evaluation realizes nothing.
  AnswerGenOptions answer_gen;

  /// Exact mode (default): every candidate is completed/verified on the data
  /// graph by f's VerifyCandidate, which is what guarantees Thm 4.2 set
  /// equality. For rooted semantics the candidates are the generalized
  /// roots' layer-0 specializations alone (Lemma 4.1), so exact rooted
  /// evaluation skips Algorithms 3/4 and the answer_gen switches. Fast mode (false) follows the paper's implementation instead:
  /// realized answers inherit their generalized scores (justified by
  /// Prop 5.3's distance-equality argument) and skip per-candidate data-graph
  /// work; it is faster but inherits Prop 5.3's corner cases (a realized
  /// answer's true score can be lower than its generalized path lengths).
  bool exact_verification = true;

  /// Cooperative cancellation: the evaluator polls this deadline at its
  /// checkpoints (before the summary-graph exploration, per generalized
  /// answer, and per candidate verification) and gives up at the first
  /// expired check. An evaluation that expires returns *no* answers — never
  /// a partial set — and raises EvalBreakdown::deadline_expired so callers
  /// (QueryEngine, the serving layer) can map it to DeadlineExceeded.
  /// Default: never expires. Not part of the query's semantic identity —
  /// the answer cache excludes it from its key.
  Deadline deadline;
};

/// Per-phase timing and counters — the breakdown reported in Figs. 10–14.
struct EvalBreakdown {
  size_t layer = 0;                  // layer the query ran on
  double explore_ms = 0;             // f on the summary graph
  double specialize_ms = 0;          // Steps 2–4 (Spec + Prop 4.1 pruning)
  double generate_ms = 0;            // Step 5 (Algorithms 3/4); fast mode
                                     // and r-clique only
  double verify_ms = 0;              // exact completion at layer 0
  size_t generalized_answers = 0;    // |A^m|
  size_t pruned_answers = 0;         // dropped by candidate filtering
  size_t candidate_roots = 0;        // roots sent to verification
  size_t final_answers = 0;
  bool deadline_expired = false;     // gave up at a deadline checkpoint
  AnswerGenStats gen_stats;
};

/// Evaluates `keywords` through the index with plugged-in algorithm `f`
/// (eval_Ont(G, Q, f)). `index`, `f`, and `ctx` are borrowed. Re-entrant:
/// concurrent calls over the same index/algorithm are safe as long as each
/// call gets its own QueryContext.
std::vector<Answer> EvaluateWithIndex(const BigIndex& index,
                                      const KeywordSearchAlgorithm& f,
                                      const std::vector<LabelId>& keywords,
                                      const EvalOptions& options,
                                      QueryContext& ctx,
                                      EvalBreakdown* breakdown = nullptr);

/// Convenience overload running on a throwaway context.
std::vector<Answer> EvaluateWithIndex(const BigIndex& index,
                                      const KeywordSearchAlgorithm& f,
                                      const std::vector<LabelId>& keywords,
                                      const EvalOptions& options = {},
                                      EvalBreakdown* breakdown = nullptr);

}  // namespace bigindex

#endif  // BIGINDEX_CORE_EVALUATOR_H_

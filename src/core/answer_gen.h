// Answer specialization and generation (Sec. 4.2 Steps 2–5, Sec. 4.3).
//
// A generalized answer a^m from the query layer is specialized down the
// hierarchy as *vertex sets* (edges are never materialized at intermediate
// layers, Sec. 4.2), with keyword-node candidates filtered by Prop 4.1 /
// the isKey rule of Sec. 4.3.1. At layer 0 the concrete answer graphs are
// realized against the generalized answer's topology either one vertex at a
// time (Algorithm 3, vertex qualification Def 4.2) or one path at a time
// (Algorithm 4, joint vertices + path qualification Def 4.3), optionally in
// ascending-|χ^-1| specialization order (Sec. 4.3.2).

#ifndef BIGINDEX_CORE_ANSWER_GEN_H_
#define BIGINDEX_CORE_ANSWER_GEN_H_

#include <cstdint>
#include <vector>

#include "core/big_index.h"
#include "search/answer.h"

namespace bigindex {

/// Marker for positions that match no query keyword (pure connectors).
inline constexpr int kNoKeyword = -1;

/// A generalized answer with its layer-0 candidate sets.
struct SpecializedAnswer {
  /// The generalized answer, over the query layer's graph.
  Answer generalized;

  /// The query layer m it came from.
  size_t layer = 0;

  /// candidates[p] are the layer-0 vertices that specialize
  /// generalized.vertices[p] (keyword positions already label-filtered).
  std::vector<std::vector<VertexId>> candidates;

  /// keyword_of[p] is the query-keyword index position p matches, or
  /// kNoKeyword. The root position (rooted semantics) is root_position.
  std::vector<int> keyword_of;

  /// Index into generalized.vertices of the root, or -1 if rootless.
  int root_position = -1;

  /// True iff some keyword position lost every candidate (Prop 4.1 pruned
  /// the whole generalized answer).
  bool pruned_empty = false;
};

/// Options for answer generation (the Fig. 17 / Fig. 18 ablation switches).
struct AnswerGenOptions {
  /// Algorithm 4 (paths) instead of Algorithm 3 (vertices).
  bool use_path_based = true;

  /// Sec. 4.3.2 ascending-|χ^-1| specialization order (vs natural order).
  bool use_specialization_order = true;

  /// Cap on simultaneously live partial answers per generalized answer;
  /// prevents pathological blow-up. Truncation is counted in stats and never
  /// affects the verified root set of rooted semantics.
  size_t max_partial_answers = 4096;
};

/// Generation diagnostics (Example 4.2's "intermediate partial answers").
struct AnswerGenStats {
  size_t partial_answers_created = 0;
  size_t realizations = 0;
  size_t cap_hits = 0;
};

/// Algorithm 2 Steps 2–4: specializes `generalized` (an answer over layer m)
/// down to layer-0 candidate sets with keyword filtering.
SpecializedAnswer SpecializeAnswer(const BigIndex& index,
                                   const Answer& generalized, size_t m,
                                   const std::vector<LabelId>& keywords);

/// The unfiltered layer-0 specializations of layer-m vertex `root`, sorted
/// (the candidate root set of Lemma 4.1). Distinct from
/// candidates[root_position]: when the generalized root doubles as a keyword
/// witness, the keyword filter (correct for the *witness* role) must not
/// prune *root* candidates, since a concrete root may satisfy the keyword
/// through a different vertex entirely. Exact rooted evaluation reads
/// nothing else of a generalized answer.
std::vector<VertexId> SpecializeRoot(const BigIndex& index, VertexId root,
                                     size_t m);

/// Algorithm 3 (ans_graph_gen): vertex-at-a-time realization. Each returned
/// Answer assigns one concrete vertex per generalized position; scores are 0
/// (the evaluator's verification step computes exact scores).
std::vector<Answer> GenerateAnswersVertexBased(const BigIndex& index,
                                               const SpecializedAnswer& spec,
                                               const AnswerGenOptions& options,
                                               AnswerGenStats* stats);

/// Algorithm 4 (p_ans_graph_gen): path-at-a-time realization joined at joint
/// vertices (degree > 2 in the generalized answer graph).
std::vector<Answer> GenerateAnswersPathBased(const BigIndex& index,
                                             const SpecializedAnswer& spec,
                                             const AnswerGenOptions& options,
                                             AnswerGenStats* stats);

}  // namespace bigindex

#endif  // BIGINDEX_CORE_ANSWER_GEN_H_

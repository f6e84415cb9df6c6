// Query generalization (Sec. 4.1): choosing the layer m at which to evaluate
// a keyword query.
//
// The cost model (Formula 4) trades off the summary-graph size at layer m
// (smaller graphs explore faster) against the support blow-up of the
// generalized keywords (more matches mean more specialization work):
//
//   cost_q(m) = β · |G^m| / |G^0|
//             + (1 − β) · Σ sup(Gen^m(q_i), G^m) / Σ sup(q_i, G^0)
//
// NOTE a deliberate deviation from the paper's printed formula, which reads
// β(1 − |χ^m(G)|/|G|) + …: both printed terms are non-decreasing in m, so the
// printed cost has no interior minimum and would always pick m = 0 — flatly
// contradicting the surrounding narrative ("query evaluation in the higher
// layer reduces the query time …") and Fig. 19, where several queries are
// best at the *highest* layer. We therefore use the form implied by the
// narrative (first term rewards small summaries, second penalizes support
// growth), which does produce the trade-off the paper describes.
//
// Def 4.1 adds the feasibility condition |Gen^m(Q)| = |Q|: a layer is only
// eligible if no two query keywords generalize to the same label there.

#ifndef BIGINDEX_CORE_QUERY_H_
#define BIGINDEX_CORE_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/big_index.h"
#include "graph/types.h"

namespace bigindex {

/// True iff Def 4.1 condition 1 holds at layer m: the generalized keywords
/// remain pairwise distinct.
bool QueryDistinctAtLayer(const BigIndex& index,
                          const std::vector<LabelId>& keywords, size_t m);

/// Formula 4 (in the corrected form above) for layer m.
double QueryLayerCost(const BigIndex& index,
                      const std::vector<LabelId>& keywords, size_t m,
                      double beta);

/// Def 4.1: the feasible layer with minimal cost_q. Exhaustive over the
/// (few) layers; ties break toward the lower layer. Always returns a valid
/// layer (0 is always feasible).
size_t OptimalQueryLayer(const BigIndex& index,
                         const std::vector<LabelId>& keywords, double beta);

}  // namespace bigindex

#endif  // BIGINDEX_CORE_QUERY_H_

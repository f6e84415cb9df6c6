// Backward keyword search (bkws) — the BANKS-style semantics of Sec. 5.1 and
// the exact keyword search of Sec. 2.
//
// A match of Q = {q_1..q_n} is a subtree T rooted at r with one leaf p_i per
// keyword such that L(p_i) = q_i and dist(r, p_i) <= d_max. We implement the
// distinct-root variant (at most one — the best — tree per root), which is
// the semantics He et al. refine and the one the paper plugs into BiG-index.
//
// Evaluation is the classical backward expansion: the simplest scheduler
// over the keyword-cone kernel (search/keyword_cones.h), which expands every
// keyword's cone to d_max along reversed edges. Roots are vertices reached
// by all keywords. Each cone's witness and next hop follow the kernel's one
// rule: the least (witness, parent) pair, which picks the smallest-id
// nearest keyword vertex (CompleteRootedAnswer's witness too). All
// per-vertex working arrays live in the QueryContext, so repeated queries
// through one context allocate nothing.

#ifndef BIGINDEX_SEARCH_BKWS_H_
#define BIGINDEX_SEARCH_BKWS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/search_algorithm.h"
#include "engine/query_context.h"
#include "graph/graph.h"
#include "search/answer.h"
#include "search/keyword_cones.h"

namespace bigindex {

/// Options for backward keyword search.
struct BkwsOptions {
  /// Maximum root-to-keyword distance (the paper uses d_max = 5 for Blinks
  /// experiments; bkws shares the bound).
  uint32_t d_max = 5;

  /// Return only the k best-scoring answers; 0 = return all matches.
  size_t top_k = 0;
};

/// Stand-alone entry point; scratch comes from `ctx` (cone slots [0, |Q|)).
std::vector<Answer> BackwardKeywordSearch(const Graph& g,
                                          const std::vector<LabelId>& keywords,
                                          const BkwsOptions& options,
                                          QueryContext& ctx);

/// Convenience overload running on a throwaway context.
std::vector<Answer> BackwardKeywordSearch(const Graph& g,
                                          const std::vector<LabelId>& keywords,
                                          const BkwsOptions& options = {});

/// Adapter implementing the pluggable `f` interface.
class BkwsAlgorithm final : public KeywordSearchAlgorithm {
 public:
  explicit BkwsAlgorithm(BkwsOptions options = {}) : options_(options) {}

  using KeywordSearchAlgorithm::Evaluate;
  using KeywordSearchAlgorithm::VerifyCandidate;

  std::string_view Name() const override { return "bkws"; }

  std::vector<Answer> Evaluate(const Graph& g,
                               const std::vector<LabelId>& keywords,
                               QueryContext& ctx) const override {
    return BackwardKeywordSearch(g, keywords, options_, ctx);
  }

  bool IsRooted() const override { return true; }

  // Every answer vertex lies on a root->keyword path of length <= d_max.
  uint32_t LocalityRadius() const override { return options_.d_max; }

  std::optional<Answer> VerifyCandidate(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const Answer& candidate,
                                        QueryContext& ctx) const override {
    return CompleteRootedAnswer(g, keywords, candidate.root, options_.d_max,
                                ctx);
  }

  const BkwsOptions& options() const { return options_; }

 private:
  BkwsOptions options_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SEARCH_BKWS_H_

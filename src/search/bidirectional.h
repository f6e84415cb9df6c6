// Bidirectional expansion keyword search (Kacholia et al., VLDB'05) — one of
// the algorithms the paper lists as plug-compatible with BiG-index
// ("our framework can be also applied to optimize the algorithms that
// contain these operations with minor modifications, e.g., [12], [15], [1],
// [14], [32]", Sec. 5). This realizes [14].
//
// Semantics: identical to bkws (distinct-root trees, dist(root, kw_i) <=
// d_max, score = Σ distances) — the differential tests assert that both,
// and Blinks, return the same answers. The *strategy* differs: it is a
// scheduler over the keyword-cone kernel (search/keyword_cones.h) in which
// spreading activation orders the cones — a cone's origins start at
// activation 1/|origins|, decaying by kActivationDecay per level, and the
// cone whose frontier carries the most activation expands next, one whole
// level at a time. Selective keywords therefore grow first while hub-heavy
// cones wait. A vertex that another cone already reached is a candidate
// root; expanding it counts as a forward pop in BidirectionalStats.
//
// Witnesses and paths follow the kernel's one rule: the least (witness,
// parent) pair over each cone's shortest-path DAG, which picks the
// smallest-id nearest keyword vertex (CompleteRootedAnswer's witness too).
// Answers are a pure function of the graph and never of the expansion
// order, so sharded and monolithic evaluation agree. Exhaustive by default
// (top_k = 0) so results stay exact.

#ifndef BIGINDEX_SEARCH_BIDIRECTIONAL_H_
#define BIGINDEX_SEARCH_BIDIRECTIONAL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/search_algorithm.h"
#include "engine/query_context.h"
#include "graph/graph.h"
#include "search/answer.h"

namespace bigindex {

/// Options for bidirectional search.
struct BidirectionalOptions {
  /// Maximum root-to-keyword distance.
  uint32_t d_max = 5;

  /// Return only the k best answers; 0 = all.
  size_t top_k = 0;
};

/// Activation decay per level; a lower value favours expanding near the
/// keywords. Affects work order, never results.
inline constexpr double kActivationDecay = 0.5;

/// Search statistics for comparing strategies against plain bkws.
struct BidirectionalStats {
  size_t backward_pops = 0;
  size_t forward_pops = 0;
};

/// Stand-alone entry point; per-cone distance tables come from `ctx`.
std::vector<Answer> BidirectionalSearch(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const BidirectionalOptions& options,
                                        QueryContext& ctx,
                                        BidirectionalStats* stats = nullptr);

/// Convenience overload running on a throwaway context.
std::vector<Answer> BidirectionalSearch(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const BidirectionalOptions& options = {},
                                        BidirectionalStats* stats = nullptr);

/// Adapter implementing the pluggable `f` interface.
class BidirectionalAlgorithm final : public KeywordSearchAlgorithm {
 public:
  explicit BidirectionalAlgorithm(BidirectionalOptions options = {})
      : options_(options) {}

  using KeywordSearchAlgorithm::Evaluate;
  using KeywordSearchAlgorithm::VerifyCandidate;

  std::string_view Name() const override { return "bidirectional"; }

  std::vector<Answer> Evaluate(const Graph& g,
                               const std::vector<LabelId>& keywords,
                               QueryContext& ctx) const override {
    return BidirectionalSearch(g, keywords, options_, ctx);
  }

  bool IsRooted() const override { return true; }

  // Every answer vertex lies on a root->keyword path of length <= d_max.
  uint32_t LocalityRadius() const override { return options_.d_max; }

  std::optional<Answer> VerifyCandidate(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const Answer& candidate,
                                        QueryContext& ctx) const override;

  const BidirectionalOptions& options() const { return options_; }

 private:
  BidirectionalOptions options_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SEARCH_BIDIRECTIONAL_H_

#include "search/bidirectional.h"

#include <array>

#include "search/keyword_cones.h"

namespace bigindex {

std::vector<Answer> BidirectionalSearch(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const BidirectionalOptions& options,
                                        QueryContext& ctx,
                                        BidirectionalStats* stats) {
  KeywordCones cones(g, keywords, options.d_max, ctx);
  const size_t nq = cones.size();
  // Spreading activation: a cone's origins share activation 1/|origins|.
  std::array<double, kMaxKeywords> activation{};
  for (size_t i = 0; i < nq; ++i) {
    activation[i] = 1.0 / static_cast<double>(cones.Frontier(i).size());
  }

  // The cone whose frontier carries the most activation (ties to the lower
  // index) expands one whole level, so selective keywords grow first and
  // hub-heavy cones wait. Exhaustive within d_max, so the order never
  // changes the result — only how soon each root completes.
  while (true) {
    size_t next = nq;
    for (size_t i = 0; i < nq; ++i) {
      if (cones.Exhausted(i)) continue;
      if (next == nq || activation[i] > activation[next]) next = i;
    }
    if (next == nq) break;
    if (stats) {
      for (VertexId v : cones.Frontier(next)) {
        // Forward: another cone already reached v, so v is a candidate root.
        bool forward = false;
        for (size_t j = 0; j < nq && !forward; ++j) {
          forward = j != next && cones.Reached(j, v);
        }
        ++(forward ? stats->forward_pops : stats->backward_pops);
      }
    }
    cones.ExpandLevel(next);
    activation[next] *= kActivationDecay;
  }
  return cones.Answers(options.top_k);
}

std::vector<Answer> BidirectionalSearch(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const BidirectionalOptions& options,
                                        BidirectionalStats* stats) {
  QueryContext ctx;
  return BidirectionalSearch(g, keywords, options, ctx, stats);
}

std::optional<Answer> BidirectionalAlgorithm::VerifyCandidate(
    const Graph& g, const std::vector<LabelId>& keywords,
    const Answer& candidate, QueryContext& ctx) const {
  return CompleteRootedAnswer(g, keywords, candidate.root, options_.d_max,
                              ctx);
}

}  // namespace bigindex

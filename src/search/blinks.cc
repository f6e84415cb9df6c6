#include "search/blinks.h"

#include <algorithm>

#include "search/keyword_cones.h"

namespace bigindex {

std::vector<Answer> BlinksSearch(const Graph& g,
                                 const std::vector<LabelId>& keywords,
                                 const BlinksOptions& options,
                                 QueryContext& ctx, BlinksStats* stats) {
  KeywordCones cones(g, keywords, options.d_max, ctx);
  const size_t nq = cones.size();
  BlinksStats local_stats;
  BlinksStats& st = stats ? *stats : local_stats;

  // Top-k bookkeeping, read off the cones: the scores of the roots every
  // cone has reached, and the roots some but not all cones have reached.
  const bool want_topk = options.top_k != 0;
  std::vector<uint32_t>& complete = ctx.VertexScratch(0);
  std::vector<VertexId>& partial = ctx.VertexScratch(1);
  // Records v, which a cone has just reached; `first`: no cone had before.
  auto record = [&](VertexId v, bool first) {
    uint32_t score = 0;
    for (size_t j = 0; j < nq; ++j) {
      if (!cones.Reached(j, v)) {
        if (first) partial.push_back(v);
        return;
      }
      score += cones.dist(j, v);
    }
    complete.push_back(score);
  };
  if (want_topk) {
    for (size_t i = 0; i < nq; ++i) {
      for (VertexId v : cones.Frontier(i)) {
        // A vertex that seeds several cones is recorded once, by the first.
        size_t first_cone = 0;
        while (!cones.Reached(first_cone, v)) ++first_cone;
        if (first_cone == i) record(v, true);
      }
    }
  }

  // Round-robin expansion, smallest frontier first (He et al.'s strategy of
  // advancing the least-advanced cursor keeps the lower bound tight).
  while (true) {
    // Early termination: the k best complete roots beat every possible
    // future or incomplete root.
    if (want_topk && complete.size() >= options.top_k) {
      std::nth_element(complete.begin(), complete.begin() + options.top_k - 1,
                       complete.end());
      const uint32_t kth = complete[options.top_k - 1];

      // Lower bound over roots never discovered by cone i: dist_i >= f_i+1.
      uint64_t lb_virgin = 0;
      for (size_t i = 0; i < nq; ++i) lb_virgin += cones.level(i) + 1;
      // Lower bound over partially discovered roots.
      uint64_t lb_partial = UINT64_MAX;
      for (VertexId v : partial) {
        uint64_t lb = 0;
        bool completed = true;  // completed meanwhile: its score is known
        for (size_t j = 0; j < nq; ++j) {
          const bool reached = cones.Reached(j, v);
          lb += reached ? cones.dist(j, v) : cones.level(j) + 1;
          completed = completed && reached;
        }
        if (!completed) lb_partial = std::min(lb_partial, lb);
      }
      // Strict: at lb == kth a future root could tie the kth score and win
      // the deterministic tie-break, so only stop when strictly better.
      if (kth < std::min(lb_virgin, lb_partial)) {
        st.early_terminated = true;
        break;
      }
    }

    // Pick the non-exhausted cone with the smallest frontier distance.
    size_t pick = nq;
    for (size_t i = 0; i < nq; ++i) {
      if (cones.Exhausted(i)) continue;
      if (pick == nq || cones.level(i) < cones.level(pick)) pick = i;
    }
    if (pick == nq) break;  // all exhausted: results are exact and complete

    st.vertices_popped += cones.Frontier(pick).size();
    ++st.levels_expanded;
    auto fresh = cones.ExpandLevel(pick);
    if (!want_topk) continue;
    for (VertexId v : fresh) {
      bool first = true;
      for (size_t j = 0; j < nq && first; ++j) {
        first = j == pick || !cones.Reached(j, v);
      }
      record(v, first);
    }
  }
  return cones.Answers(options.top_k);
}

std::vector<Answer> BlinksSearch(const Graph& g,
                                 const std::vector<LabelId>& keywords,
                                 const BlinksOptions& options,
                                 BlinksStats* stats) {
  QueryContext ctx;
  return BlinksSearch(g, keywords, options, ctx, stats);
}

std::vector<Answer> BlinksAlgorithm::Evaluate(
    const Graph& g, const std::vector<LabelId>& keywords,
    QueryContext& ctx) const {
  return BlinksSearch(g, keywords, options_, ctx);
}

std::optional<Answer> BlinksAlgorithm::VerifyCandidate(
    const Graph& g, const std::vector<LabelId>& keywords,
    const Answer& candidate, QueryContext& ctx) const {
  return CompleteRootedAnswer(g, keywords, candidate.root, options_.d_max,
                              ctx);
}

}  // namespace bigindex

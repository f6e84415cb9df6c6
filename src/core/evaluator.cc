#include "core/evaluator.h"

#include <algorithm>
#include <unordered_set>

#include "engine/query_context.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace bigindex {
namespace {

size_t ResolveLayer(const BigIndex& index,
                    const std::vector<LabelId>& keywords,
                    const EvalOptions& options) {
  if (options.forced_layer < 0) {
    return OptimalQueryLayer(index, keywords, options.beta);
  }
  size_t m = std::min<size_t>(options.forced_layer, index.NumLayers());
  while (m > 0 && !QueryDistinctAtLayer(index, keywords, m)) --m;
  return m;
}

}  // namespace

std::vector<Answer> EvaluateWithIndex(const BigIndex& index,
                                      const KeywordSearchAlgorithm& f,
                                      const std::vector<LabelId>& keywords,
                                      const EvalOptions& options,
                                      QueryContext& ctx,
                                      EvalBreakdown* breakdown) {
  EvalBreakdown local;
  EvalBreakdown& bd = breakdown ? *breakdown : local;
  std::vector<Answer> final_answers;
  if (keywords.empty()) return final_answers;

  // Deadline checkpoint: expiry abandons the evaluation with *no* answers
  // (callers must never see a partial set) and flags the breakdown. Free when
  // no deadline was set (Expired() is branch-only for Never()).
  auto expired = [&]() {
    if (!options.deadline.Expired()) return false;
    bd.deadline_expired = true;
    final_answers.clear();
    return true;
  };
  if (expired()) return final_answers;

  const size_t m = ResolveLayer(index, keywords, options);
  bd.layer = m;
  const Graph& g0 = index.base();

  // Layer 0: hierarchical machinery degenerates to direct evaluation.
  if (m == 0) {
    TRACE_SPAN("eval/explore");
    Timer t;
    final_answers = f.Evaluate(g0, keywords, ctx);
    bd.explore_ms = t.ElapsedMillis();
    if (options.top_k != 0 && final_answers.size() > options.top_k) {
      final_answers.resize(options.top_k);
    }
    bd.final_answers = final_answers.size();
    return final_answers;
  }

  // (3) Evaluate f on the summary graph with the generalized query.
  Timer timer;
  std::vector<LabelId> qm = index.GeneralizeKeywords(keywords, m);
  std::vector<Answer> generalized;
  {
    TRACE_SPAN("eval/explore");
    generalized = f.Evaluate(index.LayerGraph(m), qm, ctx);
  }
  bd.explore_ms = timer.ElapsedMillis();
  bd.generalized_answers = generalized.size();
  SortAnswers(generalized);  // rank order drives progressive specialization

  const bool rooted = f.IsRooted();
  std::unordered_set<VertexId>& verified_roots = ctx.VertexSet();
  std::unordered_set<std::string>& emitted_keys = ctx.KeySet();  // r-clique
  std::string& key = ctx.KeyBuffer();
  // Dedup of realized answers in generalized rank order: by root for rooted
  // semantics, by keyword assignment otherwise.
  auto first_emission = [&](const Answer& cand) {
    if (rooted) return verified_roots.insert(cand.root).second;
    key.clear();
    for (VertexId v : cand.keyword_vertices) {
      key += std::to_string(v);
      key += ',';
    }
    return emitted_keys.insert(key).second;
  };
  auto top_k_reached = [&] {
    return options.top_k != 0 && final_answers.size() >= options.top_k;
  };

  // (4)+(5): progressive specialization in generalized rank order
  // (Sec. 4.3.4): with top-k we stop as soon as k answers are verified.
  for (const Answer& am : generalized) {
    if (expired()) return final_answers;
    timer.Restart();

    if (rooted && options.exact_verification) {
      // Exact rooted semantics read only the root. Its unfiltered layer-0
      // specializations are the candidate roots (never label-pruned, so the
      // root set is complete, Lemma 4.1), and VerifyCandidate computes each
      // one's exact best tree on G^0. Keyword-filtered candidate sets and
      // realized answer graphs (Algorithms 3/4) would go unread, so neither
      // is built.
      std::vector<VertexId> roots;
      {
        TRACE_SPAN("eval/specialize");
        // SpecializeAnswer's guard: a root that is not one of the answer's
        // vertices has no root position and contributes no candidates.
        if (std::ranges::find(am.vertices, am.root) != am.vertices.end()) {
          roots = SpecializeRoot(index, am.root, m);
        }
      }
      bd.specialize_ms += timer.ElapsedMillis();
      timer.Restart();
      TRACE_SPAN("eval/verify");
      for (VertexId r : roots) {
        if (!verified_roots.insert(r).second) continue;
        if (expired()) return final_answers;
        ++bd.candidate_roots;
        Answer candidate;
        candidate.root = r;
        if (auto exact = f.VerifyCandidate(g0, keywords, candidate, ctx)) {
          final_answers.push_back(std::move(*exact));
        }
      }
      bd.verify_ms += timer.ElapsedMillis();
      if (top_k_reached()) break;
      continue;
    }

    SpecializedAnswer spec = [&] {
      TRACE_SPAN("eval/specialize");
      return SpecializeAnswer(index, am, m, keywords);
    }();
    bd.specialize_ms += timer.ElapsedMillis();
    if (spec.pruned_empty && !rooted) {
      ++bd.pruned_answers;
      continue;
    }

    timer.Restart();
    std::vector<Answer> realized = [&] {
      TRACE_SPAN("eval/generate");
      return options.answer_gen.use_path_based
                 ? GenerateAnswersPathBased(index, spec, options.answer_gen,
                                            &bd.gen_stats)
                 : GenerateAnswersVertexBased(index, spec, options.answer_gen,
                                              &bd.gen_stats);
    }();
    bd.generate_ms += timer.ElapsedMillis();

    timer.Restart();
    if (!options.exact_verification) {
      // Fast mode (paper implementation): realized answers keep the
      // generalized score (Prop 5.3).
      for (Answer& cand : realized) {
        if (!first_emission(cand)) continue;
        cand.score = am.score;
        final_answers.push_back(std::move(cand));
      }
    } else {
      // Exact r-clique. Lazy verification (Sec. 4.3.4 spirit): candidates
      // arrive in generalized rank order; with a top-k request stop
      // verifying as soon as k answers pass — verification BFS on the data
      // graph is the expensive step for distance semantics.
      TRACE_SPAN("eval/verify");
      for (const Answer& cand : realized) {
        if (top_k_reached()) break;
        if (!first_emission(cand)) continue;
        if (expired()) return final_answers;
        ++bd.candidate_roots;
        if (auto exact = f.VerifyCandidate(g0, keywords, cand, ctx)) {
          final_answers.push_back(std::move(*exact));
        }
      }
    }
    bd.verify_ms += timer.ElapsedMillis();
    if (top_k_reached()) break;
  }

  SortAnswers(final_answers);
  if (options.top_k != 0 && final_answers.size() > options.top_k) {
    final_answers.resize(options.top_k);
  }
  bd.final_answers = final_answers.size();
  return final_answers;
}

std::vector<Answer> EvaluateWithIndex(const BigIndex& index,
                                      const KeywordSearchAlgorithm& f,
                                      const std::vector<LabelId>& keywords,
                                      const EvalOptions& options,
                                      EvalBreakdown* breakdown) {
  QueryContext ctx;
  return EvaluateWithIndex(index, f, keywords, options, ctx, breakdown);
}

}  // namespace bigindex

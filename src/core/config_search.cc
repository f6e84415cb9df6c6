#include "core/config_search.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bigindex {

GeneralizationConfig FindConfiguration(const Graph& g,
                                       const Ontology& ontology,
                                       const ConfigSearchOptions& options) {
  TRACE_SPAN("build/config_search");
  static Counter& candidates_scored = MetricsRegistry::Global().GetCounter(
      "bigindex_configsearch_candidates_total",
      "Single-generalization candidates scored by Algorithm 1");
  static Counter& committed = MetricsRegistry::Global().GetCounter(
      "bigindex_configsearch_committed_total",
      "Generalizations admitted into a configuration by Algorithm 1");
  CostModel model(g, options.cost);
  IncrementalCost tracker(model);

  // Candidate generalizations: every (ℓ in Σ(G)) -> (direct supertype),
  // scored as cost(G, {c_i}) (Algorithm 1 lines 3-4). Scoring each single
  // mapping touches only the samples containing its label.
  struct ScoredCandidate {
    double cost;
    LabelMapping mapping;
  };
  std::vector<ScoredCandidate> queue;
  for (LabelId l : g.DistinctLabels()) {
    for (LabelId super : ontology.Supertypes(l)) {
      const LabelMapping mapping{l, super};
      queue.push_back({IncrementalCost(model).CostWith(mapping), mapping});
    }
  }
  candidates_scored.Inc(queue.size());
  // Ascending estimated cost; deterministic tie-break on the mapping.
  std::sort(queue.begin(), queue.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.mapping.from != b.mapping.from) {
                return a.mapping.from < b.mapping.from;
              }
              return a.mapping.to < b.mapping.to;
            });

  for (const ScoredCandidate& cand : queue) {
    if (tracker.config().size() >= options.pi) break;
    if (tracker.config().Maps(cand.mapping.from)) continue;  // conflict

    if (tracker.CostWith(cand.mapping) <= options.theta) {
      tracker.Commit(cand.mapping);
      committed.Inc();
    } else {
      // Algorithm 1 line 10: the queue is cost-ordered, so stop at the first
      // candidate that would exceed θ.
      break;
    }
  }
  return tracker.config();
}

GeneralizationConfig FullOneStepConfiguration(const Graph& g,
                                              const Ontology& ontology) {
  GeneralizationConfig config;
  for (LabelId l : g.DistinctLabels()) {
    auto supers = ontology.Supertypes(l);
    if (supers.empty()) continue;
    (void)config.AddMapping(l, supers.front());  // smallest id: deterministic
  }
  return config;
}

bool SameFullConfiguration(const Graph& a, const Graph& b) {
  auto la = a.DistinctLabels();
  auto lb = b.DistinctLabels();
  return std::equal(la.begin(), la.end(), lb.begin(), lb.end());
}

}  // namespace bigindex

// The index-construction cost model of Sec. 3.2 (Formula 3):
//
//   cost(G, C) = α · compress(G, C) + (1 − α) · distort(G, C)
//
// compress is the summary-to-input size ratio |χ(G,C)| / |G|, estimated on
// sampled radius-r node-induced subgraphs (most keyword semantics are
// hop-bounded, so local structure suffices); distort is the support-weighted
// semantic distortion of the configuration's label mappings.

#ifndef BIGINDEX_CORE_COST_MODEL_H_
#define BIGINDEX_CORE_COST_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/sampling.h"
#include "ontology/config.h"
#include "util/random.h"

namespace bigindex {

/// Knobs of the Formula-3 cost model.
struct CostModelOptions {
  /// Weight α between compress and distort.
  double alpha = 0.5;

  /// Sampling radius r (hop bound of typical keyword semantics).
  uint32_t sample_radius = 2;

  /// Number of sampled subgraphs n. The paper derives n = 0.25 (z/E)^2 and
  /// uses 400 (E = 5%, z = 1.96).
  size_t sample_count = 400;

  /// Sampling seed (construction is deterministic given it).
  uint64_t seed = 42;

  /// Per-sample vertex cap: radius-r balls around hubs can cover most of a
  /// skewed graph, defeating sampling. BFS order keeps the closest vertices.
  size_t max_sample_vertices = 512;
};

/// Estimates cost(G, C) for many configurations against one graph; samples
/// are drawn once at construction and reused, as in Algorithm 1.
class CostModel {
 public:
  CostModel(const Graph& g, const CostModelOptions& options);

  /// Estimated compression ratio: mean over samples of
  /// |Bisim(Gen(sample, C))| / |sample|. In [0, 1]; lower is better.
  double EstimateCompress(const GeneralizationConfig& config) const;

  /// Support-weighted semantic distortion (Sec. 3.2). In [0, 1); lower is
  /// better; 0 when no mapped label occurs in the graph.
  double Distort(const GeneralizationConfig& config) const;

  /// Formula 3.
  double Cost(const GeneralizationConfig& config) const {
    return options_.alpha * EstimateCompress(config) +
           (1.0 - options_.alpha) * Distort(config);
  }

  size_t num_samples() const { return samples_.size(); }
  const CostModelOptions& options() const { return options_; }

  /// Ground-truth compression ratio on the whole graph (used to validate the
  /// estimator, Exp-4 / Fig 16).
  static double ExactCompress(const Graph& g,
                              const GeneralizationConfig& config);

  /// Samples whose graphs contain `label` (for incremental re-estimation).
  std::span<const uint32_t> SamplesWithLabel(LabelId label) const {
    if (label >= samples_with_label_.size()) return {};
    return samples_with_label_[label];
  }

  const std::vector<SampledSubgraph>& samples() const { return samples_; }

 private:
  const Graph& graph_;
  CostModelOptions options_;
  std::vector<SampledSubgraph> samples_;
  // Incremental-estimation support: a sample's ratio differs from its
  // baseline (empty-config) ratio only if the config maps one of its labels.
  // Algorithm 1 scores hundreds of single-mapping candidates, so skipping
  // untouched samples dominates construction cost.
  mutable std::vector<double> baseline_ratio_;  // lazily filled, -1 = unset
  std::vector<std::vector<uint32_t>> samples_with_label_;  // label -> samples
  double BaselineRatio(size_t sample_index) const;

  friend class IncrementalCost;
};

/// Stateful Formula-3 evaluator for Algorithm 1's greedy loop: tracks
/// cost(G, C) as mappings are committed, recomputing only the samples the
/// newest mapping touches. Makes the greedy search near-linear in the number
/// of (label, sample) incidences instead of quadratic in |C|.
class IncrementalCost {
 public:
  explicit IncrementalCost(const CostModel& model);

  /// cost(G, C ∪ {mapping}) without committing. Returns the current cost if
  /// the mapping conflicts with an existing one.
  double CostWith(const LabelMapping& mapping);

  /// Commits the mapping (must not conflict).
  void Commit(const LabelMapping& mapping);

  double CurrentCost();
  const GeneralizationConfig& config() const { return config_; }

 private:
  /// Mean sample ratio if the samples listed in `touched` had the ratios in
  /// `replacement` instead of their current values.
  double CompressReplacing(std::span<const uint32_t> touched,
                           std::span<const double> replacement) const;

  const CostModel& model_;
  GeneralizationConfig config_;
  std::vector<double> sample_ratio_;  // ratio of each sample under config_
  double ratio_sum_ = 0;
  size_t counted_ = 0;
};

}  // namespace bigindex

#endif  // BIGINDEX_CORE_COST_MODEL_H_

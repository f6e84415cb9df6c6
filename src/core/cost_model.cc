#include "core/cost_model.h"

#include <algorithm>
#include <unordered_set>

#include "bisim/bisimulation.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bigindex {
namespace {

/// Per-sample Gen+Bisim runs — the inner hot spot of Algorithm 1's
/// sampling-based estimator.
Counter& SampleBisimsCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "bigindex_costmodel_sample_bisims_total",
      "Bisimulations computed on sampled subgraphs by the cost model");
  return c;
}

double SummaryRatio(const Graph& g, std::span<const LabelId> labels) {
  if (g.Size() == 0) return 1.0;
  SampleBisimsCounter().Inc();
  BisimResult r = ComputeBisimulation(g, labels);
  return static_cast<double>(r.summary.Size()) / g.Size();
}

}  // namespace

CostModel::CostModel(const Graph& g, const CostModelOptions& options)
    : graph_(g), options_(options) {
  TRACE_SPAN("cost_model/sample");
  static Counter& sampled = MetricsRegistry::Global().GetCounter(
      "bigindex_costmodel_samples_total",
      "Radius-r subgraphs sampled for cost estimation");
  samples_ = SampleRadiusSubgraphs(g, options_.sample_radius,
                                   options_.sample_count, options_.seed,
                                   options_.max_sample_vertices);
  sampled.Inc(samples_.size());
  baseline_ratio_.assign(samples_.size(), -1.0);

  // Label -> samples containing it (for incremental estimation).
  LabelId max_label = 0;
  for (const SampledSubgraph& s : samples_) {
    for (LabelId l : s.graph.DistinctLabels()) {
      max_label = std::max(max_label, l);
    }
  }
  samples_with_label_.resize(samples_.empty() ? 0 : max_label + 1);
  for (uint32_t i = 0; i < samples_.size(); ++i) {
    for (LabelId l : samples_[i].graph.DistinctLabels()) {
      samples_with_label_[l].push_back(i);
    }
  }
}

double CostModel::BaselineRatio(size_t sample_index) const {
  double& cached = baseline_ratio_[sample_index];
  if (cached < 0) {
    const Graph& sg = samples_[sample_index].graph;
    cached = SummaryRatio(sg, sg.labels());
  }
  return cached;
}

double CostModel::EstimateCompress(
    const GeneralizationConfig& config) const {
  TRACE_SPAN("cost_model/estimate");
  if (samples_.empty()) return 1.0;

  // Samples whose labels the config touches need a real Gen+Bisim run; the
  // rest keep their baseline (empty-config) ratio.
  std::unordered_set<uint32_t> affected;
  for (const LabelMapping& m : config.mappings()) {
    if (m.from < samples_with_label_.size()) {
      for (uint32_t i : samples_with_label_[m.from]) affected.insert(i);
    }
  }

  // Summed in sample-index order: FP addition is not associative, and the
  // estimate's bits decide Algorithm 1's candidate order.
  double total = 0.0;
  size_t counted = 0;
  for (uint32_t i = 0; i < samples_.size(); ++i) {
    const Graph& sg = samples_[i].graph;
    if (sg.Size() == 0) continue;
    total += affected.count(i) ? ExactCompress(sg, config) : BaselineRatio(i);
    ++counted;
  }
  return counted == 0 ? 1.0 : total / counted;
}

double CostModel::Distort(const GeneralizationConfig& config) const {
  // distort(G, C) = Σ distort(ℓ)·sup(ℓ) / (|X| · Σ sup(ℓ)) over ℓ in the
  // domain X of C, with distort(ℓ) = 1 − 1/|X_ℓ| where |X_ℓ| counts labels
  // sharing ℓ's target.
  const auto& mappings = config.mappings();
  if (mappings.empty()) return 0.0;
  double weighted = 0.0;
  double support_sum = 0.0;
  for (const LabelMapping& m : mappings) {
    double family = static_cast<double>(config.FamilySize(m.from));
    double distort_l = 1.0 - 1.0 / family;
    double sup = graph_.LabelSupport(m.from);
    weighted += distort_l * sup;
    support_sum += sup;
  }
  if (support_sum == 0.0) return 0.0;
  return weighted / (static_cast<double>(mappings.size()) * support_sum);
}

double CostModel::ExactCompress(const Graph& g,
                                const GeneralizationConfig& config) {
  std::vector<LabelId> storage;
  return SummaryRatio(g, GeneralizedLabels(g, config, &storage));
}

IncrementalCost::IncrementalCost(const CostModel& model) : model_(model) {
  sample_ratio_.resize(model.samples_.size());
  for (uint32_t i = 0; i < model.samples_.size(); ++i) {
    if (model.samples_[i].graph.Size() == 0) {
      sample_ratio_[i] = -1.0;  // excluded from the mean
      continue;
    }
    sample_ratio_[i] = model.BaselineRatio(i);
    ratio_sum_ += sample_ratio_[i];
    ++counted_;
  }
}

double IncrementalCost::CompressReplacing(
    std::span<const uint32_t> touched,
    std::span<const double> replacement) const {
  if (counted_ == 0) return 1.0;
  double sum = ratio_sum_;
  for (size_t k = 0; k < touched.size(); ++k) {
    if (sample_ratio_[touched[k]] < 0) continue;
    sum += replacement[k] - sample_ratio_[touched[k]];
  }
  return sum / counted_;
}

double IncrementalCost::CostWith(const LabelMapping& mapping) {
  if (config_.Maps(mapping.from)) return CurrentCost();

  GeneralizationConfig tentative = config_;
  (void)tentative.AddMapping(mapping.from, mapping.to);

  auto touched = model_.SamplesWithLabel(mapping.from);
  std::vector<double> replacement;
  replacement.reserve(touched.size());
  for (uint32_t i : touched) {
    const Graph& sg = model_.samples_[i].graph;
    replacement.push_back(
        sg.Size() == 0
            ? -1.0
            : CostModel::ExactCompress(sg, tentative));
  }
  double compress = CompressReplacing(touched, replacement);
  double distort = model_.Distort(tentative);
  const double alpha = model_.options().alpha;
  return alpha * compress + (1.0 - alpha) * distort;
}

void IncrementalCost::Commit(const LabelMapping& mapping) {
  (void)config_.AddMapping(mapping.from, mapping.to);
  for (uint32_t i : model_.SamplesWithLabel(mapping.from)) {
    if (sample_ratio_[i] < 0) continue;
    double updated =
        CostModel::ExactCompress(model_.samples_[i].graph, config_);
    ratio_sum_ += updated - sample_ratio_[i];
    sample_ratio_[i] = updated;
  }
}

double IncrementalCost::CurrentCost() {
  double compress = counted_ == 0 ? 1.0 : ratio_sum_ / counted_;
  const double alpha = model_.options().alpha;
  return alpha * compress + (1.0 - alpha) * model_.Distort(config_);
}

}  // namespace bigindex

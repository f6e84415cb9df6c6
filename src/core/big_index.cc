#include "core/big_index.h"

#include <cassert>

#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace bigindex {
namespace {

Gauge& BuildThreadsGauge() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "bigindex_build_threads",
      "Worker threads used by the most recent index construction");
  return g;
}

}  // namespace

bool EndsHierarchy(const GeneralizationConfig& config, const Graph& input,
                   const Graph& summary) {
  const double ratio =
      input.Size() == 0
          ? 1.0
          : static_cast<double>(summary.Size()) / input.Size();
  return config.empty() && ratio > kStopRatio;
}

StatusOr<BigIndex> BigIndex::Build(Graph base, const Ontology* ontology,
                                   const BigIndexOptions& options) {
  TRACE_SPAN("build/index");
  static Counter& builds = MetricsRegistry::Global().GetCounter(
      "bigindex_build_runs_total", "BigIndex::Build invocations");
  static Counter& layers_built = MetricsRegistry::Global().GetCounter(
      "bigindex_build_layers_total", "Summary layers constructed");
  static Histogram& layer_ms = MetricsRegistry::Global().GetHistogram(
      "bigindex_build_layer_ms",
      "Wall time per summary layer (config + Gen + Bisim), ms");
  builds.Inc();

  if (ontology == nullptr) {
    return Status::InvalidArgument("ontology must not be null");
  }
  BigIndex index(std::move(base), ontology, options);

  // Every parallel site runs serially on a pool with fewer than 2 workers;
  // ExecutorPool(0) starts no threads at all.
  ExecutorPool pool(options.build.num_threads);
  BuildThreadsGauge().Set(static_cast<int64_t>(pool.num_workers()));
  ConfigSearchOptions search_opts = options.config_search;
  search_opts.cost.pool = &pool;
  std::vector<LabelId> label_storage;

  const Graph* current = &index.base_;
  for (size_t i = 1; i <= options.max_layers; ++i) {
    TRACE_SPAN("build/layer");
    Timer layer_timer;
    GeneralizationConfig config;
    {
      TRACE_SPAN("build/config");
      config = options.use_greedy_config
                   ? FindConfiguration(*current, *ontology, search_opts)
                   : FullOneStepConfiguration(*current, *ontology);
    }
    BIGINDEX_RETURN_IF_ERROR(config.Validate(*ontology));

    std::span<const LabelId> labels;
    {
      TRACE_SPAN("build/generalize");
      labels = GeneralizedLabels(*current, config, &label_storage);
    }
    BisimResult bisim = ComputeBisimulation(*current, labels);
    layer_ms.Record(layer_timer.ElapsedMillis());

    if (EndsHierarchy(config, *current, bisim.summary)) break;

    IndexLayer layer;
    layer.config = std::move(config);
    layer.graph = std::move(bisim.summary);
    layer.mapping = std::move(bisim.mapping);
    index.layers_.push_back(std::move(layer));
    layers_built.Inc();
    current = &index.layers_.back().graph;
  }
  return index;
}

StatusOr<BigIndex> BigIndex::FromParts(Graph base, const Ontology* ontology,
                                       std::vector<IndexLayer> layers,
                                       const BigIndexOptions& options) {
  if (ontology == nullptr) {
    return Status::InvalidArgument("ontology must not be null");
  }
  BigIndex index(std::move(base), ontology, options);
  const Graph* lower = &index.base_;
  for (const IndexLayer& layer : layers) {
    if (layer.mapping.NumVertices() != lower->NumVertices() ||
        layer.mapping.NumSupernodes() != layer.graph.NumVertices()) {
      return Status::Corruption("layer mapping inconsistent with graphs");
    }
    lower = &layer.graph;
  }
  index.layers_ = std::move(layers);
  return index;
}

VertexId BigIndex::MapUp(VertexId v, size_t from, size_t to) const {
  assert(from <= to && to <= NumLayers());
  VertexId x = v;
  for (size_t l = from + 1; l <= to; ++l) {
    // Gen keeps vertex ids; Bisim maps them to supernodes.
    x = layers_[l - 1].mapping.SuperOf(x);
  }
  return x;
}

LabelId BigIndex::GeneralizeLabel(LabelId label, size_t m) const {
  LabelId l = label;
  for (size_t i = 1; i <= m; ++i) l = layers_[i - 1].config.Generalize(l);
  return l;
}

std::vector<LabelId> BigIndex::GeneralizeKeywords(
    const std::vector<LabelId>& q, size_t m) const {
  std::vector<LabelId> out;
  out.reserve(q.size());
  for (LabelId l : q) out.push_back(GeneralizeLabel(l, m));
  return out;
}

size_t BigIndex::TotalSummarySize() const {
  size_t total = 0;
  for (const IndexLayer& layer : layers_) total += layer.graph.Size();
  return total;
}

}  // namespace bigindex

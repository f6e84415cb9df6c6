#include "update/maintain.h"

#include <algorithm>
#include <utility>

#include "bisim/bisimulation.h"
#include "core/config_search.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ontology/config.h"
#include "util/timer.h"

namespace bigindex {
namespace {

size_t CountMode(const MaintainReport& rep, LayerMaintenance mode) {
  size_t n = 0;
  for (const MaintainLayerReport& l : rep.layers) {
    if (l.mode == mode) ++n;
  }
  return n;
}

std::vector<VertexId> SortedUniqueSources(const UpdateDelta& delta) {
  std::vector<VertexId> out;
  out.reserve(delta.added.size() + delta.removed.size());
  for (const auto& [u, v] : delta.added) out.push_back(u);
  for (const auto& [u, v] : delta.removed) out.push_back(u);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

size_t MaintainReport::LayersRebuilt() const {
  size_t n = 0;
  for (const MaintainLayerReport& l : layers) {
    if (l.mode != LayerMaintenance::kCopied) ++n;
  }
  return n;
}

StatusOr<BigIndex> MaintainIndex(const BigIndex& index,
                                 std::span<const GraphUpdate> updates,
                                 MaintainReport* report) {
  TRACE_SPAN("update/maintain");
  static Counter& layers_maintained = MetricsRegistry::Global().GetCounter(
      "bigindex_update_maintained_layers_total",
      "Layers produced by incremental maintenance (any mode)");
  static Counter& layers_fallback = MetricsRegistry::Global().GetCounter(
      "bigindex_update_fallback_layers_total",
      "Layers re-summarized wholesale instead of incrementally");
  static Counter& layers_patched = MetricsRegistry::Global().GetCounter(
      "bigindex_update_patched_layers_total",
      "Layers whose cone re-sign moved no vertex (layer reused verbatim)");
  static Counter& cone_runs = MetricsRegistry::Global().GetCounter(
      "bigindex_update_incremental_runs_total",
      "Cone re-signs run by incremental maintenance");
  static Counter& resigned = MetricsRegistry::Global().GetCounter(
      "bigindex_update_resigned_vertices_total",
      "Vertex signatures recomputed by cone re-signs");

  MaintainReport local_report;
  MaintainReport& rep = report != nullptr ? *report : local_report;
  rep = MaintainReport{};

  auto delta = NormalizeUpdates(index.base(), updates);
  if (!delta.ok()) return delta.status();
  rep.delta = std::move(*delta);
  if (rep.delta.empty()) return index;  // shallow copy; nothing to do

  Graph new_base = ApplyDelta(index.base(), rep.delta);
  const Ontology* ontology = &index.ontology();
  const BigIndexOptions& opts = index.options();

  if (opts.use_greedy_config) {
    // Algorithm 1's cost model samples the graph; stored configs are not
    // stable under updates, so nothing can be reused soundly.
    rep.full_rebuild = true;
    auto rebuilt = BigIndex::Build(std::move(new_base), ontology, opts);
    if (!rebuilt.ok()) return rebuilt.status();
    MaintainLayerReport wholesale;
    wholesale.mode = LayerMaintenance::kWholesale;
    rep.layers.assign(rebuilt->NumLayers(), wholesale);
    layers_maintained.Inc(rep.layers.size());
    layers_fallback.Inc(rep.layers.size());
    return rebuilt;
  }

  std::vector<IndexLayer> new_layers;
  new_layers.reserve(opts.max_layers);
  // The link from the layer below to the old one: its vertex -> old vertex
  // (empty = identity) and its vertices whose label or out-edges changed.
  // A wholesale layer leaves no link.
  bool linked = true;
  std::vector<VertexId> to_prior;
  std::vector<VertexId> changed = SortedUniqueSources(rep.delta);

  const Graph* cur_new = &new_base;
  for (size_t i = 1; i <= opts.max_layers; ++i) {
    TRACE_SPAN("update/layer");
    const bool have_old_layer = i <= index.NumLayers();

    // The layer below is the old one, vertex for vertex. Build is a
    // deterministic function of (layer graph, ontology, options), so the old
    // stack from here up — including its stopping point — is exactly what a
    // from-scratch rebuild would produce.
    if (linked && to_prior.empty() && changed.empty()) {
      for (size_t j = i; j <= index.NumLayers(); ++j) {
        new_layers.push_back(index.Layer(j));
        MaintainLayerReport copied;
        copied.mode = LayerMaintenance::kCopied;
        rep.layers.push_back(copied);
      }
      break;
    }

    MaintainLayerReport lrep;
    GeneralizationConfig config;
    bool config_matches = false;
    {
      Timer t;
      TRACE_SPAN("build/config");
      if (have_old_layer &&
          SameFullConfiguration(*cur_new, index.LayerGraph(i - 1))) {
        // The full one-step configuration is a pure function of the
        // distinct-label set; the stored config was validated at its own
        // build, so both the ontology walk and Validate are skipped.
        config = index.Layer(i).config;
        config_matches = true;
        lrep.config_reused = true;
      } else {
        config = FullOneStepConfiguration(*cur_new, *ontology);
        BIGINDEX_RETURN_IF_ERROR(config.Validate(*ontology));
        config_matches =
            have_old_layer &&
            config.mappings() == index.Layer(i).config.mappings();
      }
      lrep.configure_ms = t.ElapsedMillis();
    }

    std::vector<LabelId> glabels_storage;
    std::span<const LabelId> glabels;
    {
      Timer t;
      TRACE_SPAN("build/generalize");
      glabels = GeneralizedLabels(*cur_new, config, &glabels_storage);
      lrep.generalize_ms = t.ElapsedMillis();
    }

    // The cone re-sign, while the old layer still describes this one (same
    // config, a link from below).
    Timer t_ref;
    BisimResult bisim;
    if (linked && config_matches) {
      const IndexLayer& old_layer = index.Layer(i);
      auto cone = ResignCone(*cur_new, glabels,
                             {old_layer.graph, old_layer.mapping}, to_prior,
                             changed);
      if (!cone.ok()) return cone.status();
      cone_runs.Inc();
      resigned.Inc(cone->cone);
      lrep.changed = changed.size();
      lrep.cone = cone->cone;
      lrep.moved = cone->moved;
      lrep.rerun = cone->rerun;
      lrep.mode = cone->reused ? LayerMaintenance::kPatched
                               : LayerMaintenance::kIncremental;
      bisim = std::move(cone->bisim);
      to_prior = std::move(cone->next_to_prior);
      changed = std::move(cone->next_changed);
    } else {
      bisim = ComputeBisimulation(*cur_new, glabels);
      lrep.mode = LayerMaintenance::kWholesale;
      linked = false;
    }
    lrep.refine_ms = t_ref.ElapsedMillis();

    if (EndsHierarchy(config, *cur_new, bisim.summary)) break;

    IndexLayer layer;
    layer.config = std::move(config);
    layer.graph = std::move(bisim.summary);
    layer.mapping = std::move(bisim.mapping);
    new_layers.push_back(std::move(layer));
    rep.layers.push_back(std::move(lrep));
    cur_new = &new_layers.back().graph;
  }

  layers_maintained.Inc(rep.layers.size());
  layers_fallback.Inc(CountMode(rep, LayerMaintenance::kWholesale));
  layers_patched.Inc(CountMode(rep, LayerMaintenance::kPatched));
  return BigIndex::FromParts(std::move(new_base), ontology,
                             std::move(new_layers), opts);
}

}  // namespace bigindex

#include "update/maintain.h"

#include <algorithm>
#include <utility>

#include "core/config_search.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ontology/config.h"
#include "util/timer.h"

namespace bigindex {
namespace {

// Vertex correspondence between one old layer and the same layer of the
// successor index. Entries are kInvalidVertex where no counterpart exists;
// `to_new`/`to_old` are mutually inverse on valid entries (block member
// sets are disjoint, so every derivation below is injective).
struct Correspondence {
  std::vector<VertexId> to_new;  // old vertex -> new vertex
  std::vector<VertexId> to_old;  // new vertex -> old vertex
  bool usable = false;  // false once the old stack runs out or goes wholesale

  static Correspondence Identity(size_t n) {
    Correspondence c;
    c.usable = true;
    c.to_new.resize(n);
    c.to_old.resize(n);
    for (size_t v = 0; v < n; ++v) {
      c.to_new[v] = static_cast<VertexId>(v);
      c.to_old[v] = static_cast<VertexId>(v);
    }
    return c;
  }

  bool IsTotalIdentity() const {
    if (!usable || to_new.size() != to_old.size()) return false;
    for (size_t v = 0; v < to_new.size(); ++v) {
      if (to_new[v] != static_cast<VertexId>(v)) return false;
    }
    return true;
  }
};

// The delta-propagation state flowing from one layer to the next. The
// correspondence is always present (unusable after a wholesale layer, which
// erases provenance); the exact edge delta survives only while the
// partition above stays identity-matched. `changed` is a sound superset of
// the vertices whose generalized label or mapped out-neighborhood drifted.
struct LevelLink {
  Correspondence corr;
  bool have_delta = false;
  UpdateDelta delta;
  std::vector<VertexId> changed;  // sorted, unique, new-graph vertex ids
  // Subset of `changed` whose quotient-level behavior genuinely differs
  // from the old layer (adjacency / membership / label) — excludes the
  // renaming-only vertices the in-neighbor rule adds for split coverage.
  // Seeds the localized merge scan (IncrementalBisimOptions::merge_changed).
  std::vector<VertexId> core;
};

size_t CountMode(const MaintainReport& rep, LayerMaintenance mode) {
  size_t n = 0;
  for (const MaintainLayerReport& l : rep.layers) {
    if (l.mode == mode) ++n;
  }
  return n;
}

// The link above a re-partitioned layer, given the old -> new supernode
// correspondence `next`. Changed: blocks without an old counterpart, their
// summary in-neighbors (whose mapped out-neighborhood now refers to a
// vanished block), and blocks holding a dirty member. Core excludes the
// in-neighbor widening: those blocks' behavior only changed up to
// renaming, and the merge scan's backward closure recovers them through
// their edge into a core block.
LevelLink LinkAbove(const BisimResult& bisim, Correspondence next,
                    std::span<const VertexId> dirty,
                    std::span<const VertexId> core) {
  const size_t num_final = bisim.summary.NumVertices();
  std::vector<char> cflag(num_final, 0);
  std::vector<char> kflag(num_final, 0);
  for (VertexId t = 0; t < num_final; ++t) {
    if (next.to_old[t] != kInvalidVertex) continue;
    cflag[t] = kflag[t] = 1;
    for (VertexId u : bisim.summary.InNeighbors(t)) cflag[u] = 1;
  }
  for (VertexId x : dirty) cflag[bisim.mapping.SuperOf(x)] = 1;
  for (VertexId x : core) kflag[bisim.mapping.SuperOf(x)] = 1;
  LevelLink link;
  link.corr = std::move(next);
  for (VertexId t = 0; t < num_final; ++t) {
    if (cflag[t]) link.changed.push_back(t);
    if (kflag[t]) link.core.push_back(t);
  }
  return link;
}

// No-split probe for the patched fast path: true iff every block containing
// a dirty vertex is still signature-uniform under the transported (and
// unchanged) seed. One pass suffices — a split is the only event that could
// propagate dirtiness, and the true path has none; untouched blocks remain
// uniform by the transfer argument (none of their members' out-edges or
// out-neighbor blocks changed). Cost is the dirty blocks' member degrees,
// independent of |V| + |E|.
bool PartitionSurvivesDelta(const Graph& g, std::span<const VertexId> seed,
                            const BisimMapping& mapping,
                            std::span<const VertexId> dirty,
                            const GeneralizationConfig& config) {
  std::vector<char> seen(mapping.NumSupernodes(), 0);
  std::vector<uint32_t> ref, sig;
  for (VertexId v : dirty) {
    const VertexId b = seed[v];
    if (seen[b]) continue;
    seen[b] = 1;
    const auto members = mapping.Members(b);
    if (members.size() <= 1) continue;  // singletons cannot split
    bool first = true;
    for (VertexId m : members) {
      sig.clear();
      sig.push_back(config.Generalize(g.label(m)));
      const size_t fixed = sig.size();
      for (VertexId w : g.OutNeighbors(m)) sig.push_back(seed[w]);
      std::sort(sig.begin() + fixed, sig.end());
      sig.erase(std::unique(sig.begin() + fixed, sig.end()), sig.end());
      if (first) {
        ref = sig;
        first = false;
      } else if (sig != ref) {
        return false;
      }
    }
  }
  return true;
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
                                 const MaintainOptions& options,
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
      "Layers whose summary was patched directly from the projected delta");

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

  ExecutorPool pool(opts.build.num_threads);
  const BisimOptions wholesale_opts{.pool = &pool};

  std::vector<IndexLayer> new_layers;
  new_layers.reserve(opts.max_layers);
  LevelLink link;
  link.corr = Correspondence::Identity(new_base.NumVertices());
  link.have_delta = true;
  link.delta = rep.delta;
  link.changed = SortedUniqueSources(rep.delta);
  link.core = link.changed;  // at the base every changed vertex is genuine

  const Graph* cur_new = &new_base;
  for (size_t i = 1; i <= opts.max_layers; ++i) {
    TRACE_SPAN("update/layer");
    const bool have_old_layer = i <= index.NumLayers();
    const Graph& old_below = index.LayerGraph(i - 1);
    const Correspondence& corr = link.corr;

    // Strongest case: the layer below is unchanged, vertex-for-vertex. Build
    // is a deterministic function of (layer graph, ontology, options), so
    // the old stack from here up — including its stopping point — is exactly
    // what a from-scratch rebuild would produce. With an exact propagated
    // delta the test is O(1); the O(V+E) graph comparison backs up the
    // delta-less case (above a merged or seeded layer).
    if (corr.IsTotalIdentity() &&
        ((link.have_delta && link.delta.empty()) ||
         (!link.have_delta && GraphsIdentical(*cur_new, old_below)))) {
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
      if (have_old_layer && SameFullConfiguration(*cur_new, old_below)) {
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

    // The one wholesale decision: a layer is refined locally only while the
    // old partition transports (same config, usable correspondence) and
    // its dirty frontier stays within fallback_dirty_ratio of the layer.
    const size_t n = cur_new->NumVertices();
    const bool localized = config_matches && corr.usable;
    auto within_ratio = [&](size_t dirty) {
      return static_cast<double>(dirty) <=
             options.fallback_dirty_ratio * static_cast<double>(n);
    };

    BisimResult bisim;
    LevelLink above;  // default: unusable correspondence (tier 3)
    bool done = false;

    // Tier 1 — patched: the layer below changed by an exact, identity-mapped
    // edge delta. Dirty is exactly the delta's sources (edge-only deltas
    // cannot touch labels). If no dirty block splits and no blocks merge,
    // the old partition is still the maximal bisimulation: the summary is
    // the old summary patched by the projected block-level delta, and the
    // mapping carries over verbatim — nothing layer-sized is rebuilt.
    if (localized && link.have_delta && corr.IsTotalIdentity() &&
        within_ratio(link.changed.size())) {
      TRACE_SPAN("update/patch_attempt");
      const IndexLayer& old_layer = index.Layer(i);
      const std::span<const VertexId> seed = old_layer.mapping.VertexToSuper();
      const std::vector<VertexId>& dirty = link.changed;

      Timer t_ref;
      if (PartitionSurvivesDelta(*cur_new, seed, old_layer.mapping, dirty,
                                 config)) {
        UpdateDelta sdelta = ProjectDeltaToSummary(*cur_new, seed,
                                                   old_layer.graph, link.delta);
        Graph patched = sdelta.empty() ? old_layer.graph
                                       : ApplyDelta(old_layer.graph, sdelta);
        // Merge check: the old summary is reduced (no two blocks of a
        // maximal partition are bisimilar); the patch may have made blocks
        // bisimilar, but only within the backward closure of the patched
        // block edges — a delta-local scan, not a summary-sized refinement.
        MergeScan merged;
        if (sdelta.empty()) {
          merged.num_classes = patched.NumVertices();
          merged.localized = true;
        } else {
          merged = DetectMerges(patched, SortedUniqueSources(sdelta), &pool);
        }
        lrep.stats.dirty_seed = dirty.size();
        lrep.stats.quotient_vertices = patched.NumVertices();
        lrep.stats.merge_active = merged.active;
        lrep.stats.merge_localized = merged.localized;
        if (merged.num_classes == patched.NumVertices()) {
          // Discrete: partition and numbering unchanged (first-occurrence
          // renumbering of unchanged membership is the identity) — summary
          // and mapping carry over, and the next layer inherits an identity
          // correspondence plus the projected delta.
          bisim.summary = std::move(patched);
          bisim.mapping = old_layer.mapping;
          bisim.refinement_rounds = merged.rounds;
          lrep.mode = LayerMaintenance::kPatched;

          Timer t_corr;
          above.corr = Correspondence::Identity(bisim.summary.NumVertices());
          above.changed = SortedUniqueSources(sdelta);
          above.core = above.changed;  // sdelta sources: all genuine
          above.have_delta = true;
          above.delta = std::move(sdelta);
          lrep.correspondence_ms += t_corr.ElapsedMillis();
        } else {
          // Blocks merged (splits are ruled out by the probe), so the
          // patched summary is the quotient under the old partition:
          // coarsen it by the merge classes. An old supernode survives iff
          // its merge class is a singleton.
          std::vector<uint32_t> old_to_final;
          bisim = CoarsenQuotient({.summary = std::move(patched),
                                   .mapping = old_layer.mapping},
                                  merged.block_of, merged.num_classes,
                                  &old_to_final);
          bisim.refinement_rounds = merged.rounds;
          lrep.mode = LayerMaintenance::kIncremental;

          Timer t_corr;
          Correspondence next;
          next.usable = true;
          next.to_new.assign(old_layer.graph.NumVertices(), kInvalidVertex);
          next.to_old.assign(bisim.summary.NumVertices(), kInvalidVertex);
          std::vector<uint32_t> class_size(merged.num_classes, 0);
          for (uint32_t c : merged.block_of) ++class_size[c];
          for (VertexId s2 = 0; s2 < old_layer.graph.NumVertices(); ++s2) {
            const uint32_t f = merged.block_of[s2];
            if (class_size[f] != 1) continue;  // old supernode merged away
            next.to_new[s2] = old_to_final[f];
            next.to_old[old_to_final[f]] = s2;
          }
          above = LinkAbove(bisim, std::move(next), dirty, link.core);
          lrep.correspondence_ms += t_corr.ElapsedMillis();
        }
        done = true;
      }
      lrep.refine_ms += t_ref.ElapsedMillis();
    }

    // Tier 2 — seeded: transport the old partition into a seed through the
    // correspondence; dirty is the propagated changed set plus orphans.
    if (!done && localized) {
      const BisimMapping& old_map = index.Layer(i).mapping;
      Timer t_corr;
      const size_t old_num = index.LayerGraph(i).NumVertices();
      std::vector<VertexId> seed(n);
      VertexId fresh = static_cast<VertexId>(old_num);
      // Lost-member rule: an old vertex with no new counterpart silently
      // changes its old block's quotient behavior (the survivors' own
      // signatures are untouched, so nothing else dirties them). Splits
      // never need this — survivors stay signature-uniform — but the
      // localized merge scan does: the whole block must enter its working
      // set, so every surviving member goes into the merge core.
      std::vector<char> lost(old_num, 0);
      bool any_lost = false;
      for (VertexId s = 0; s < corr.to_new.size(); ++s) {
        if (corr.to_new[s] == kInvalidVertex) {
          lost[old_map.SuperOf(s)] = 1;
          any_lost = true;
        }
      }
      // Core: the subset of dirty whose quotient-level behavior genuinely
      // differs from the old layer — propagated core from below, orphans,
      // and survivors of lost-member blocks. The renaming-only vertices the
      // in-neighbor rule adds to `changed` stay out: the merge scan's
      // backward closure recovers them through their edge into a core block.
      std::vector<VertexId> dirty = link.changed;
      std::vector<VertexId> core = link.core;
      std::vector<char> dflag(n, 0);
      std::vector<char> kflag(n, 0);
      for (VertexId x : dirty) dflag[x] = 1;
      for (VertexId x : core) kflag[x] = 1;
      for (VertexId x = 0; x < n; ++x) {
        const VertexId s =
            x < corr.to_old.size() ? corr.to_old[x] : kInvalidVertex;
        if (s == kInvalidVertex) {
          seed[x] = fresh++;
          if (!dflag[x]) {
            dflag[x] = 1;
            dirty.push_back(x);
          }
          if (!kflag[x]) {
            kflag[x] = 1;
            core.push_back(x);
          }
          continue;
        }
        seed[x] = old_map.SuperOf(s);
        // Lost-block survivors only feed the merge scan — their own
        // signatures are unchanged, so phase 1 need not re-sign them.
        if (any_lost && lost[seed[x]] && !kflag[x]) {
          kflag[x] = 1;
          core.push_back(x);
        }
      }
      lrep.correspondence_ms += t_corr.ElapsedMillis();

      if (within_ratio(dirty.size())) {
        Timer t_gen;
        std::vector<LabelId> glabels_storage;
        const std::span<const LabelId> glabels =
            GeneralizedLabels(*cur_new, config, &glabels_storage);
        lrep.generalize_ms += t_gen.ElapsedMillis();

        Timer t_ref;
        // Seed values are old supernode ids plus at most n fresh orphan ids;
        // the old partition is a true maximal bisimulation and `dirty`
        // covers every behavior drift (changed set + lost-member rule).
        IncrementalBisimOptions iopts;
        iopts.pool = &pool;
        iopts.labels = glabels;
        iopts.seed_id_bound = old_num + n;
        iopts.merge_changed = core;
        IncrementalBisimTrace trace;
        auto result = IncrementalBisimulation(*cur_new, seed, dirty, iopts,
                                              &lrep.stats, &trace);
        if (!result.ok()) return result.status();
        bisim = std::move(*result);
        lrep.refine_ms += t_ref.ElapsedMillis();
        lrep.mode = LayerMaintenance::kIncremental;

        // Next correspondence in O(#blocks) from the seed-provenance trace:
        // an old supernode survives iff its block is intact AND no old
        // member was orphaned (the member-count check — intact only proves
        // equality against the *transported* members).
        Timer t_nc;
        const size_t num_final = bisim.summary.NumVertices();
        Correspondence next;
        next.usable = true;
        next.to_new.assign(old_num, kInvalidVertex);
        next.to_old.assign(num_final, kInvalidVertex);
        for (VertexId t2 = 0; t2 < num_final; ++t2) {
          const VertexId s = trace.seed_of_final[t2];
          if (!trace.intact[t2] || s == kInvalidVertex || s >= old_num) {
            continue;
          }
          if (old_map.Members(s).size() != bisim.mapping.Members(t2).size()) {
            continue;
          }
          next.to_new[s] = t2;
          next.to_old[t2] = s;
        }
        above = LinkAbove(bisim, std::move(next), dirty, core);
        lrep.correspondence_ms += t_nc.ElapsedMillis();
        done = true;
      }
    }

    // Tier 3 — wholesale: config drift, new layers beyond the old stack, a
    // wholesale layer below (no usable correspondence), or a dirty frontier
    // past fallback_dirty_ratio. Provenance ends here, so every layer above
    // is wholesale too.
    if (!done) {
      Timer t_gen;
      std::vector<LabelId> glabels_storage;
      std::span<const LabelId> glabels;
      {
        TRACE_SPAN("build/generalize");
        glabels = GeneralizedLabels(*cur_new, config, &glabels_storage);
      }
      lrep.generalize_ms += t_gen.ElapsedMillis();
      Timer t_ref;
      bisim = ComputeBisimulation(*cur_new, glabels, wholesale_opts);
      lrep.refine_ms += t_ref.ElapsedMillis();
      lrep.mode = LayerMaintenance::kWholesale;
    }

    if (EndsHierarchy(config, *cur_new, bisim.summary)) break;

    IndexLayer layer;
    layer.config = std::move(config);
    layer.graph = std::move(bisim.summary);
    layer.mapping = std::move(bisim.mapping);
    new_layers.push_back(std::move(layer));
    rep.layers.push_back(std::move(lrep));
    cur_new = &new_layers.back().graph;
    link = std::move(above);
  }

  layers_maintained.Inc(rep.layers.size());
  layers_fallback.Inc(CountMode(rep, LayerMaintenance::kWholesale));
  layers_patched.Inc(CountMode(rep, LayerMaintenance::kPatched));
  return BigIndex::FromParts(std::move(new_base), ontology,
                             std::move(new_layers), opts);
}

}  // namespace bigindex

// Whole-index incremental maintenance: applies a GraphUpdate batch to a
// BigIndex and produces the successor index *as if rebuilt from scratch*,
// propagating the update delta up the layer hierarchy only while block
// signatures actually change (Sec. 3.2; ROADMAP open item 4).
//
// The loop mirrors BigIndex::Build layer by layer — configuration, the
// generalized label view, summarization, Build's stop test (EndsHierarchy)
// — so the result is byte-identical to BigIndex::Build on the updated base
// graph even when the layer count drifts. Unlike Build, a layer is
// summarized by the kernel's cone re-sign (bisim/bisimulation.h, ResignCone)
// whenever the batch allows it (docs/MAINTENANCE.md has the cost model):
//
//   * configuration: FullOneStepConfiguration is a pure function of the
//     distinct-label set, and edge-only updates cannot change labels, so the
//     stored (already validated) layer config is reused whenever the
//     distinct-label sets match (SameFullConfiguration);
//   * changed set: at the base, the sources of the net added and removed
//     edges; above it, the supernodes whose row matches no previous row —
//     nothing is found by a drift scan;
//   * summarization: only the ancestor cone of the changed set is re-signed,
//     successors first, with every other vertex's block pinned and the old
//     summary as the signature table. A cone that moved no vertex reuses the
//     layer verbatim (LayerMaintenance::kPatched); otherwise the old summary
//     with the changed blocks' rows spliced in is renumbered in one pass
//     (kIncremental);
//   * verbatim copy of the old tail once a layer comes out with its old
//     numbering and no changed supernode — Build is deterministic, so
//     everything above is provably unchanged;
//   * a cone that holds a cycle cannot be signed successors first: the
//     kernel re-runs on the whole layer, and the next layer's correspondence
//     is read off the members of the new supernodes (still kIncremental);
//   * wholesale ComputeBisimulation over the label view otherwise: config
//     drift, or a new layer beyond the old stack. A wholesale layer carries
//     no correspondence, so every layer above it is wholesale as well. Edge
//     updates cannot change a layer's distinct-label set, so a full
//     one-step index never drifts: its only wholesale layer is one the old
//     stack did not have.
//
// Correspondence persistence across batches: a successor layer numbers its
// supernodes in first-occurrence order, as Build does, so batch N+1 starts
// from batch N's index with the identity at the base and no rematch.
//
// Greedy-config indexes (use_greedy_config) fall back to a full
// BigIndex::Build: Algorithm 1's cost model samples the graph, so layer
// configs are not stable under updates and nothing can be reused soundly.
//
// The input index is not modified; the caller owns publication (see
// update/version_store.h and update/live_updater.h for the RCU serving
// path).

#ifndef BIGINDEX_UPDATE_MAINTAIN_H_
#define BIGINDEX_UPDATE_MAINTAIN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/big_index.h"
#include "ontology/config.h"
#include "update/delta.h"
#include "util/status.h"

namespace bigindex {

/// How one layer of the successor index was produced.
enum class LayerMaintenance {
  kPatched,      // cone re-signed, no vertex moved: layer reused verbatim
  kIncremental,  // cone re-signed, summary spliced and renumbered (or the
                 // kernel re-ran on a cone with a cycle)
  kWholesale,    // full ComputeBisimulation of the generalized layer
  kCopied,       // old layer reused verbatim above an unchanged one
};

/// Per-layer maintenance diagnostics.
struct MaintainLayerReport {
  LayerMaintenance mode = LayerMaintenance::kWholesale;

  /// Cone re-sign counts (kPatched/kIncremental): changed vertices of the
  /// layer below, vertices re-signed (the changed set and its ancestors),
  /// and re-signed vertices whose block differs from the old one.
  size_t changed = 0;
  size_t cone = 0;
  size_t moved = 0;

  /// True for a kIncremental layer whose cone held a cycle: the kernel
  /// re-ran on the whole layer (ConeResult::rerun).
  bool rerun = false;

  /// True when the stored layer configuration was reused via the
  /// distinct-label-set check instead of being re-derived.
  bool config_reused = false;

  /// Wall-clock breakdown of the per-layer steps (ms). configure = config
  /// reuse check / recompute + validate; generalize = building the
  /// GeneralizedLabels view; refine = the cone re-sign (which also derives
  /// the next layer's correspondence) or the wholesale summarization.
  /// correspondence is always 0, since refine covers that step; the field
  /// stays because bench_e2e reports it.
  double configure_ms = 0;
  double generalize_ms = 0;
  double correspondence_ms = 0;
  double refine_ms = 0;
};

/// Diagnostics from one MaintainIndex call.
struct MaintainReport {
  /// Net effect of the batch against the base graph (see NormalizeUpdates).
  UpdateDelta delta;

  /// True when the index was rebuilt via BigIndex::Build (greedy-config
  /// indexes); `layers` is empty in that case.
  bool full_rebuild = false;

  std::vector<MaintainLayerReport> layers;

  /// Layers not reused verbatim (kPatched + kIncremental + kWholesale +
  /// full rebuild).
  size_t LayersRebuilt() const;
};

/// Applies `updates` to `index`'s base graph and returns the successor
/// index, equal — summary graphs, mappings, configs, serialized bytes — to
/// BigIndex::Build(updated base, ontology, index.options()). `index` is
/// unchanged. A batch with no net effect returns a (shallow) copy of
/// `index` and an empty report delta.
StatusOr<BigIndex> MaintainIndex(const BigIndex& index,
                                 std::span<const GraphUpdate> updates,
                                 MaintainReport* report = nullptr);

}  // namespace bigindex

#endif  // BIGINDEX_UPDATE_MAINTAIN_H_

// The hierarchical Bisimulation of Generalized Graph Index (Sec. 3, Def 3.1).
//
// BiG-index(G, G_Ont) = (𝔾, 𝒞): graphs {G^0 … G^h} and configurations
// [C^1 … C^h] with G^i = χ(G^{i-1}, C^i) = Bisim(Gen(G^{i-1}, C^i)).
// Each layer keeps its BisimMapping, which is the hash-table implementation
// of Bisim^-1 used by specialization (Sec. 2), so χ^-1 is a chain of
// Members() lookups plus the configs' label preimages.

#ifndef BIGINDEX_CORE_BIG_INDEX_H_
#define BIGINDEX_CORE_BIG_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bisim/bisimulation.h"
#include "core/config_search.h"
#include "graph/graph.h"
#include "ontology/config.h"
#include "ontology/ontology.h"
#include "util/status.h"

namespace bigindex {

/// Parallel-construction knobs of BigIndex::Build (cost-model
/// sampling/estimation and Algorithm 1 candidate scoring). Construction
/// output is byte-identical for every thread count: sample RNG streams and
/// score reductions are deterministic functions of the input and the cost
/// model's seed (ConfigSearchOptions::cost.seed) alone.
struct BuildOptions {
  /// Worker threads for Algorithm 1's cost-model sampling and candidate
  /// scoring (summarization itself is serial); 0 = fully serial (no pool is
  /// created), ExecutorPool::kHardwareConcurrency = one per hardware thread.
  size_t num_threads = 0;
};

/// Build stops early when a new layer shrinks the previous one by less than
/// this ("until it cannot be further summarized efficiently", Sec. 1):
/// |G^i| / |G^{i-1}| must be <= kStopRatio to keep going once the
/// configuration is empty.
inline constexpr double kStopRatio = 0.999;

/// Build's stop test, which MaintainIndex shares so both stop at the same
/// layer: true when `summary` = χ(`input`, `config`) is not worth keeping —
/// no label moved and the summary is not smaller than kStopRatio of the
/// input.
bool EndsHierarchy(const GeneralizationConfig& config, const Graph& input,
                   const Graph& summary);

/// Construction knobs.
struct BigIndexOptions {
  /// Maximum number of summary layers h (the paper computes 7).
  size_t max_layers = 7;

  /// If true, each layer's configuration comes from Algorithm 1
  /// (FindConfiguration with `config_search`); if false — the experiments'
  /// default — every label is generalized one ontology step per layer
  /// (FullOneStepConfiguration, Sec. 6.1.2 "Default indexes").
  bool use_greedy_config = false;

  ConfigSearchOptions config_search;

  /// Parallelism + reproducibility (see BuildOptions).
  BuildOptions build;
};

/// One summary layer: C^i, G^i, and the vertex mapping from G^{i-1}.
struct IndexLayer {
  GeneralizationConfig config;  // C^i, applied to G^{i-1}'s labels
  Graph graph;                  // G^i = Bisim(Gen(G^{i-1}, C^i))
  BisimMapping mapping;         // G^{i-1} vertex -> G^i supernode
};

/// The index. Owns the base graph and all layers; the ontology is borrowed
/// and must outlive the index.
class BigIndex {
 public:
  /// Builds the hierarchy. `ontology` must remain valid for the index's
  /// lifetime.
  static StatusOr<BigIndex> Build(Graph base, const Ontology* ontology,
                                  const BigIndexOptions& options = {});

  /// Reassembles an index from a loaded image (core/index_image.h) or from
  /// incremental maintenance (update/maintain.h). Validates
  /// layer-to-layer consistency (mapping domains/codomains). `options`
  /// become the index's stored options (serialized images don't carry them;
  /// maintenance passes the predecessor's so rebuild behavior is stable).
  static StatusOr<BigIndex> FromParts(Graph base, const Ontology* ontology,
                                      std::vector<IndexLayer> layers,
                                      const BigIndexOptions& options = {});

  /// Number of summary layers h (layers are numbered 1..h; 0 is the base).
  size_t NumLayers() const { return layers_.size(); }

  /// G^m for m in [0, NumLayers()].
  const Graph& LayerGraph(size_t m) const {
    return m == 0 ? base_ : layers_[m - 1].graph;
  }

  /// Layer record for m in [1, NumLayers()].
  const IndexLayer& Layer(size_t m) const { return layers_[m - 1]; }

  const Graph& base() const { return base_; }
  const Ontology& ontology() const { return *ontology_; }
  const BigIndexOptions& options() const { return options_; }

  /// χ^m(v) for v a vertex of `from` layer: the supernode containing v at
  /// layer `to` (from <= to).
  VertexId MapUp(VertexId v, size_t from, size_t to) const;

  /// Spec of a layer-m vertex: its member vertices at layer m-1 (m >= 1).
  std::span<const VertexId> SpecializeVertex(VertexId v, size_t m) const {
    return layers_[m - 1].mapping.Members(v);
  }

  /// Gen^m on a single label (identity when m = 0).
  LabelId GeneralizeLabel(LabelId label, size_t m) const;

  /// Gen^m(Q): element-wise label generalization.
  std::vector<LabelId> GeneralizeKeywords(const std::vector<LabelId>& q,
                                          size_t m) const;

  /// |G^m| / |G^0| — the per-layer compression ratio (Tab 3 / Fig 9).
  double LayerCompressionRatio(size_t m) const {
    return base_.Size() == 0
               ? 1.0
               : static_cast<double>(LayerGraph(m).Size()) / base_.Size();
  }

  /// Total index footprint |G^1| + ... + |G^h| ("the BiG-index size is
  /// simply the sum of the summary graphs", Sec. 6.2).
  size_t TotalSummarySize() const;

 private:
  BigIndex(Graph base, const Ontology* ontology, BigIndexOptions options)
      : base_(std::move(base)), ontology_(ontology), options_(options) {}

  Graph base_;
  const Ontology* ontology_;
  BigIndexOptions options_;
  std::vector<IndexLayer> layers_;
};

}  // namespace bigindex

#endif  // BIGINDEX_CORE_BIG_INDEX_H_

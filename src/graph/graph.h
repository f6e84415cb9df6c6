// The directed labeled graph of Sec. 2 of the paper: G = (V, E, L, Σ).
//
// Graph is an immutable flat-CSR structure with both out- and in-adjacency
// plus an inverted label index (label -> vertices), which every keyword
// search semantics needs to seed its keyword vertex sets V_q. All arrays
// live back to back in one Arena (or one mmap'd index-image section — see
// core/index_image.h), so a Graph is a handful of spans plus a shared
// keep-alive: copies are shallow, serialization is a flat memcpy, and
// loading from an image is zero-copy. Build instances through GraphBuilder.

#ifndef BIGINDEX_GRAPH_GRAPH_H_
#define BIGINDEX_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"
#include "util/status.h"

namespace bigindex {

class GraphBuilder;

/// Immutable directed vertex-labeled graph in flat CSR form.
///
/// |G| = |V| + |E| is the paper's graph-size measure (Sec. 2); Size() returns
/// it. Parallel edges are collapsed and self-loops kept (bisimulation and the
/// search semantics are well-defined with them).
class Graph {
 public:
  Graph() = default;

  size_t NumVertices() const { return labels_.size(); }
  size_t NumEdges() const { return out_targets_.size(); }
  /// |V| + |E|, the paper's |G|.
  size_t Size() const { return NumVertices() + NumEdges(); }

  LabelId label(VertexId v) const { return labels_[v]; }
  std::span<const LabelId> labels() const { return labels_; }

  /// Out-adjacency as a HalfInterval view — the hot-loop accessor. Hoist the
  /// view out of the scan: `const CsrView out = g.Out();` then
  /// `auto [b, e] = out[v]; for (uint64_t i = b; i < e; ++i) out.Slot(i)`.
  CsrView Out() const { return {out_offsets_.data(), out_targets_.data()}; }

  /// In-adjacency view (sources of edges u -> v).
  CsrView In() const { return {in_offsets_.data(), in_sources_.data()}; }

  /// Out-neighbors of v (targets of edges v -> w), sorted ascending.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// In-neighbors of v (sources of edges u -> v), sorted ascending.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  size_t OutDegree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t InDegree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  /// Total degree, used for the joint-vertex test of Sec. 4.3.3.
  size_t Degree(VertexId v) const { return OutDegree(v) + InDegree(v); }

  /// True iff edge (u, v) exists. O(log OutDegree(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// All vertices whose label is `label`, sorted ascending; empty if none.
  std::span<const VertexId> VerticesWithLabel(LabelId label) const;

  /// Number of vertices carrying `label` (|V_ℓ| in the cost model).
  size_t LabelCount(LabelId label) const {
    return VerticesWithLabel(label).size();
  }

  /// Distinct labels that occur in the graph (the graph's Σ), sorted.
  std::span<const LabelId> DistinctLabels() const { return distinct_labels_; }

  /// Label-index slot count: greatest occurring label id + 1 (0 when empty).
  size_t LabelSlots() const { return label_offsets_.size() - 1; }

  /// Support of a label: |V_ℓ| / |V| (Sec. 3.2). Zero if absent or empty.
  double LabelSupport(LabelId label) const {
    return NumVertices() == 0
               ? 0.0
               : static_cast<double>(LabelCount(label)) / NumVertices();
  }

  /// All edges as (source, target) pairs, in CSR order. For tests and I/O.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// The raw flat arrays, in canonical (index-image) order. For serializers.
  std::span<const uint64_t> OutOffsets() const { return out_offsets_; }
  std::span<const uint64_t> InOffsets() const { return in_offsets_; }
  std::span<const VertexId> OutTargets() const { return out_targets_; }
  std::span<const VertexId> InSources() const { return in_sources_; }
  std::span<const uint64_t> LabelOffsets() const { return label_offsets_; }
  std::span<const VertexId> LabelVertices() const { return label_vertices_; }

  /// The shared keep-alive of the backing arrays (arena or mmap'd image
  /// section); null for a default-constructed Graph. Caches of per-graph
  /// derived structures use it as an identity token that, unlike the Graph's
  /// address, cannot be recycled while the entry is alive (see
  /// search/per_graph_cache.h).
  const StorageHandle& storage() const { return storage_; }

  /// Builds a Graph from per-vertex labels and an out-adjacency in CSR form
  /// (`adjacency_offsets` has |V|+1 entries; each vertex's targets are
  /// ascending, distinct and < |V|), deriving the in-adjacency and the label
  /// index. No checks: GraphBuilder::Build, the quotient builder and
  /// ApplyDelta produce their edges in this form and finish here.
  static Graph FromAdjacency(std::span<const LabelId> vertex_labels,
                             std::span<const uint64_t> adjacency_offsets,
                             std::span<const VertexId> adjacency_targets);

  /// Wires a Graph directly over externally owned arrays (the mmap'd index
  /// image). `storage` keeps the backing memory alive for the Graph's
  /// lifetime. The caller (core/index_image) is responsible for having
  /// validated array sizes and invariants — this performs no checks.
  static Graph FromStorage(StorageHandle storage,
                           std::span<const LabelId> labels,
                           std::span<const uint64_t> out_offsets,
                           std::span<const VertexId> out_targets,
                           std::span<const uint64_t> in_offsets,
                           std::span<const VertexId> in_sources,
                           std::span<const uint64_t> label_offsets,
                           std::span<const VertexId> label_vertices,
                           std::span<const LabelId> distinct_labels);

 private:
  friend class GraphBuilder;

  // All spans point into `storage_` (one arena / image section). A
  // default-constructed Graph views the static empty layout below.
  StorageHandle storage_;
  std::span<const LabelId> labels_;
  std::span<const uint64_t> out_offsets_ = EmptyOffsets();  // size |V|+1
  std::span<const VertexId> out_targets_;
  std::span<const uint64_t> in_offsets_ = EmptyOffsets();  // size |V|+1
  std::span<const VertexId> in_sources_;

  // Inverted label index: vertices grouped by label, CSR over label ids.
  std::span<const uint64_t> label_offsets_ = EmptyOffsets();
  std::span<const VertexId> label_vertices_;
  std::span<const LabelId> distinct_labels_;

  static std::span<const uint64_t> EmptyOffsets();
};

/// Accumulates vertices and edges, then produces an immutable Graph.
///
/// Vertices are identified by their insertion order. Edges referencing
/// out-of-range vertices make Build() fail with InvalidArgument; duplicate
/// edges are silently collapsed.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-sizes internal buffers (optional).
  void Reserve(size_t vertices, size_t edges);

  /// Adds a vertex with the given label and returns its id.
  VertexId AddVertex(LabelId label);

  /// Adds the directed edge u -> v.
  void AddEdge(VertexId u, VertexId v);

  size_t NumVertices() const { return labels_.size(); }

  /// Consumes the builder's contents and produces the Graph.
  StatusOr<Graph> Build();

 private:
  std::vector<LabelId> labels_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace bigindex

#endif  // BIGINDEX_GRAPH_GRAPH_H_

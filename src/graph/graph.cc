#include "graph/graph.h"

#include <algorithm>
#include <numeric>

namespace bigindex {

namespace {
// A default-constructed Graph (0 vertices) views this shared |V|+1 = 1
// offsets array so the accessors need no emptiness branches.
constexpr uint64_t kZeroOffsets[1] = {0};
}  // namespace

std::span<const uint64_t> Graph::EmptyOffsets() { return {kZeroOffsets, 1}; }

bool Graph::HasEdge(VertexId u, VertexId v) const {
  auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::span<const VertexId> Graph::VerticesWithLabel(LabelId label) const {
  // size_t: kInvalidLabel + 1 must not wrap to 0.
  if (size_t{label} + 1 >= label_offsets_.size()) return {};
  return {label_vertices_.data() + label_offsets_[label],
          label_offsets_[label + 1] - label_offsets_[label]};
}

std::vector<std::pair<VertexId, VertexId>> Graph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> result;
  result.reserve(NumEdges());
  const CsrView out = Out();
  for (VertexId u = 0; u < NumVertices(); ++u) {
    const auto [begin, end] = out[u];
    for (uint64_t i = begin; i < end; ++i) result.emplace_back(u, out.Slot(i));
  }
  return result;
}

Graph Graph::FromStorage(StorageHandle storage,
                         std::span<const LabelId> labels,
                         std::span<const uint64_t> out_offsets,
                         std::span<const VertexId> out_targets,
                         std::span<const uint64_t> in_offsets,
                         std::span<const VertexId> in_sources,
                         std::span<const uint64_t> label_offsets,
                         std::span<const VertexId> label_vertices,
                         std::span<const LabelId> distinct_labels) {
  Graph g;
  g.storage_ = std::move(storage);
  g.labels_ = labels;
  g.out_offsets_ = out_offsets;
  g.out_targets_ = out_targets;
  g.in_offsets_ = in_offsets;
  g.in_sources_ = in_sources;
  g.label_offsets_ = label_offsets;
  g.label_vertices_ = label_vertices;
  g.distinct_labels_ = distinct_labels;
  return g;
}

void GraphBuilder::Reserve(size_t vertices, size_t edges) {
  labels_.reserve(vertices);
  edges_.reserve(edges);
}

VertexId GraphBuilder::AddVertex(LabelId label) {
  VertexId id = static_cast<VertexId>(labels_.size());
  labels_.push_back(label);
  return id;
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  edges_.emplace_back(u, v);
}

StatusOr<Graph> GraphBuilder::Build() {
  const size_t n = labels_.size();
  for (const auto& [u, v] : edges_) {
    if (u >= n || v >= n) {
      return Status::InvalidArgument("edge references out-of-range vertex");
    }
  }

  // Collapse duplicate edges, then lay the sorted pairs out as CSR.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  std::vector<uint64_t> out_offsets(n + 1, 0);
  for (const auto& [u, v] : edges_) out_offsets[u + 1]++;
  std::partial_sum(out_offsets.begin(), out_offsets.end(),
                   out_offsets.begin());
  std::vector<VertexId> out_targets(edges_.size());
  for (size_t i = 0; i < edges_.size(); ++i) {
    out_targets[i] = edges_[i].second;
  }

  Graph g = Graph::FromAdjacency(labels_, out_offsets, out_targets);
  labels_.clear();
  edges_.clear();
  return g;
}

Graph Graph::FromAdjacency(std::span<const LabelId> vertex_labels,
                           std::span<const uint64_t> adjacency_offsets,
                           std::span<const VertexId> adjacency_targets) {
  const size_t n = vertex_labels.size();
  const size_t m = adjacency_targets.size();

  // Pre-compute the label histogram so every array size (and therefore the
  // single arena allocation) is known before any array is written.
  LabelId max_label = 0;
  for (LabelId l : vertex_labels) max_label = std::max(max_label, l);
  const size_t slots = n == 0 ? 0 : static_cast<size_t>(max_label) + 1;
  std::vector<uint64_t> label_count(slots, 0);
  for (LabelId l : vertex_labels) label_count[l]++;
  size_t num_distinct = 0;
  for (uint64_t c : label_count) num_distinct += c > 0 ? 1 : 0;

  const size_t total = Arena::AlignedSize<LabelId>(n) +          // labels
                       Arena::AlignedSize<uint64_t>(n + 1) +     // out_offsets
                       Arena::AlignedSize<VertexId>(m) +         // out_targets
                       Arena::AlignedSize<uint64_t>(n + 1) +     // in_offsets
                       Arena::AlignedSize<VertexId>(m) +         // in_sources
                       Arena::AlignedSize<uint64_t>(slots + 1) + // label_offs
                       Arena::AlignedSize<VertexId>(n) +         // label_verts
                       Arena::AlignedSize<LabelId>(num_distinct);
  auto arena = std::make_shared<Arena>(total);

  // Carve in canonical order (the same order index-image sections use).
  std::span<LabelId> labels = arena->Carve<LabelId>(n);
  std::span<uint64_t> out_offsets = arena->Carve<uint64_t>(n + 1);
  std::span<VertexId> out_targets = arena->Carve<VertexId>(m);
  std::span<uint64_t> in_offsets = arena->Carve<uint64_t>(n + 1);
  std::span<VertexId> in_sources = arena->Carve<VertexId>(m);
  std::span<uint64_t> label_offsets = arena->Carve<uint64_t>(slots + 1);
  std::span<VertexId> label_vertices = arena->Carve<VertexId>(n);
  std::span<LabelId> distinct_labels = arena->Carve<LabelId>(num_distinct);

  std::copy(vertex_labels.begin(), vertex_labels.end(), labels.begin());
  std::copy(adjacency_offsets.begin(), adjacency_offsets.end(),
            out_offsets.begin());
  std::copy(adjacency_targets.begin(), adjacency_targets.end(),
            out_targets.begin());

  // In-adjacency via counting sort by target. Sources are visited in
  // ascending order, so each in-neighbor list comes out sorted.
  std::fill(in_offsets.begin(), in_offsets.end(), 0);
  for (VertexId v : out_targets) in_offsets[v + 1]++;
  std::partial_sum(in_offsets.begin(), in_offsets.end(), in_offsets.begin());
  {
    std::vector<uint64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
    for (VertexId u = 0; u < n; ++u) {
      for (uint64_t i = out_offsets[u]; i < out_offsets[u + 1]; ++i) {
        in_sources[cursor[out_targets[i]]++] = u;
      }
    }
  }

  // Inverted label index from the histogram.
  label_offsets[0] = 0;
  std::partial_sum(label_count.begin(), label_count.end(),
                   label_offsets.begin() + 1);
  {
    std::vector<uint64_t> cursor(label_offsets.begin(),
                                 label_offsets.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      label_vertices[cursor[labels[v]]++] = v;
    }
  }
  {
    size_t d = 0;
    for (size_t l = 0; l < slots; ++l) {
      if (label_count[l] > 0) distinct_labels[d++] = static_cast<LabelId>(l);
    }
  }

  return FromStorage(std::move(arena), labels, out_offsets, out_targets,
                     in_offsets, in_sources, label_offsets, label_vertices,
                     distinct_labels);
}

}  // namespace bigindex

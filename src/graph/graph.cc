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

Graph Graph::SpliceRows(const Graph& g, std::span<const VertexId> rows,
                        std::span<const uint64_t> row_offsets,
                        std::span<const VertexId> row_targets) {
  const size_t n = g.NumVertices();
  auto new_row = [&](size_t k) {
    return row_targets.subspan(row_offsets[k],
                               row_offsets[k + 1] - row_offsets[k]);
  };

  // Every (target, source, added?) in-list change, ordered by target then
  // source: the set differences of each replaced row's old and new targets.
  struct Change {
    VertexId target, source;
    bool added;
  };
  std::vector<Change> changes;
  size_t m = g.NumEdges();
  for (size_t k = 0; k < rows.size(); ++k) {
    const std::span<const VertexId> before = g.OutNeighbors(rows[k]);
    const std::span<const VertexId> after = new_row(k);
    m = m - before.size() + after.size();
    size_t i = 0, j = 0;
    while (i < before.size() || j < after.size()) {
      if (j == after.size() || (i < before.size() && before[i] < after[j])) {
        changes.push_back({before[i++], rows[k], false});
      } else if (i == before.size() || after[j] < before[i]) {
        changes.push_back({after[j++], rows[k], true});
      } else {
        ++i, ++j;
      }
    }
  }
  std::sort(changes.begin(), changes.end(),
            [](const Change& a, const Change& b) {
              return a.target != b.target ? a.target < b.target
                                          : a.source < b.source;
            });

  const size_t slots = g.LabelSlots();
  const size_t num_distinct = g.DistinctLabels().size();
  auto arena = std::make_shared<Arena>(
      Arena::AlignedSize<LabelId>(n) + Arena::AlignedSize<uint64_t>(n + 1) +
      Arena::AlignedSize<VertexId>(m) + Arena::AlignedSize<uint64_t>(n + 1) +
      Arena::AlignedSize<VertexId>(m) +
      Arena::AlignedSize<uint64_t>(slots + 1) +
      Arena::AlignedSize<VertexId>(n) +
      Arena::AlignedSize<LabelId>(num_distinct));
  std::span<LabelId> out_labels = arena->Carve<LabelId>(n);
  std::span<uint64_t> out_offsets = arena->Carve<uint64_t>(n + 1);
  std::span<VertexId> out_targets = arena->Carve<VertexId>(m);
  std::span<uint64_t> in_offsets = arena->Carve<uint64_t>(n + 1);
  std::span<VertexId> in_sources = arena->Carve<VertexId>(m);
  std::span<uint64_t> label_offsets = arena->Carve<uint64_t>(slots + 1);
  std::span<VertexId> label_vertices = arena->Carve<VertexId>(n);
  std::span<LabelId> distinct_labels = arena->Carve<LabelId>(num_distinct);
  std::ranges::copy(g.labels(), out_labels.begin());
  std::ranges::copy(g.LabelOffsets(), label_offsets.begin());
  std::ranges::copy(g.LabelVertices(), label_vertices.begin());
  std::ranges::copy(g.DistinctLabels(), distinct_labels.begin());

  // Out-adjacency: g's rows, with the replaced ones swapped in. Between
  // two replaced rows, g's rows are one contiguous run, copied whole with
  // their offsets shifted.
  const std::span<const uint64_t> g_out = g.OutOffsets();
  const std::span<const VertexId> g_targets = g.OutTargets();
  uint64_t at = 0;
  VertexId from = 0;  // first vertex of the pending run of g's rows
  auto copy_out_run = [&](VertexId to) {
    const int64_t shift = static_cast<int64_t>(at - g_out[from]);
    for (VertexId v = from; v < to; ++v) out_offsets[v] = g_out[v] + shift;
    std::copy(g_targets.begin() + g_out[from], g_targets.begin() + g_out[to],
              out_targets.begin() + at);
    at += g_out[to] - g_out[from];
  };
  for (size_t k = 0; k < rows.size(); ++k) {
    copy_out_run(rows[k]);
    out_offsets[rows[k]] = at;
    const std::span<const VertexId> row = new_row(k);
    std::ranges::copy(row, out_targets.begin() + at);
    at += row.size();
    from = rows[k] + 1;
  }
  copy_out_run(static_cast<VertexId>(n));
  out_offsets[n] = at;

  // In-adjacency likewise: runs of g's in-lists, and each changed target's
  // list merged with its changes (both ascending by source).
  const std::span<const uint64_t> g_in = g.InOffsets();
  const std::span<const VertexId> g_sources = g.InSources();
  at = 0;
  from = 0;
  auto copy_in_run = [&](VertexId to) {
    const int64_t shift = static_cast<int64_t>(at - g_in[from]);
    for (VertexId v = from; v < to; ++v) in_offsets[v] = g_in[v] + shift;
    std::copy(g_sources.begin() + g_in[from], g_sources.begin() + g_in[to],
              in_sources.begin() + at);
    at += g_in[to] - g_in[from];
  };
  for (size_t c = 0; c < changes.size();) {
    const VertexId v = changes[c].target;
    copy_in_run(v);
    in_offsets[v] = at;
    uint64_t i = g_in[v];
    for (; c < changes.size() && changes[c].target == v; ++c) {
      for (; i < g_in[v + 1] && g_sources[i] < changes[c].source; ++i) {
        in_sources[at++] = g_sources[i];
      }
      if (changes[c].added) {
        in_sources[at++] = changes[c].source;
      } else {
        ++i;  // the removed source
      }
    }
    std::copy(g_sources.begin() + i, g_sources.begin() + g_in[v + 1],
              in_sources.begin() + at);
    at += g_in[v + 1] - i;
    from = v + 1;
  }
  copy_in_run(static_cast<VertexId>(n));
  in_offsets[n] = at;
  return FromStorage(std::move(arena), out_labels, out_offsets, out_targets,
                     in_offsets, in_sources, label_offsets, label_vertices,
                     distinct_labels);
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

#include "update/delta.h"

#include <algorithm>
#include <map>
#include <utility>

namespace bigindex {

StatusOr<UpdateDelta> NormalizeUpdates(const Graph& g,
                                       std::span<const GraphUpdate> updates) {
  const size_t n = g.NumVertices();
  // Last op on an edge wins; earlier ops on the same edge are redundant.
  std::map<std::pair<VertexId, VertexId>, bool> last_op;  // -> present after
  size_t redundant = 0;
  for (const GraphUpdate& up : updates) {
    if (up.source >= n || up.target >= n) {
      return Status::InvalidArgument("update references out-of-range vertex");
    }
    auto [it, inserted] = last_op.emplace(
        std::make_pair(up.source, up.target),
        up.kind == GraphUpdate::Kind::kAddEdge);
    if (!inserted) {
      ++redundant;  // an earlier op on this edge is superseded
      it->second = up.kind == GraphUpdate::Kind::kAddEdge;
    }
  }
  UpdateDelta delta;
  delta.redundant = redundant;
  for (const auto& [edge, present_after] : last_op) {
    const bool present_before = g.HasEdge(edge.first, edge.second);
    if (present_after == present_before) {
      ++delta.redundant;  // net no-op against the current graph
    } else if (present_after) {
      delta.added.push_back(edge);
    } else {
      delta.removed.push_back(edge);
    }
  }
  // std::map iteration already yields (source, target) order.
  return delta;
}

Graph ApplyDelta(const Graph& g, const UpdateDelta& delta) {
  // Each touched source's sorted out-list minus its removed edges (present
  // in g) merged with its added ones (absent from g); both delta lists are
  // sorted by (source, target). Every other row is copied as it is.
  std::vector<VertexId> rows;
  std::vector<uint64_t> offsets = {0};
  std::vector<VertexId> targets;
  auto added = delta.added.begin();
  auto removed = delta.removed.begin();
  while (added != delta.added.end() || removed != delta.removed.end()) {
    const VertexId u =
        removed == delta.removed.end() ||
                (added != delta.added.end() && added->first < removed->first)
            ? added->first
            : removed->first;
    for (VertexId v : g.OutNeighbors(u)) {
      for (; added != delta.added.end() && added->first == u &&
             added->second < v;
           ++added) {
        targets.push_back(added->second);
      }
      if (removed != delta.removed.end() && *removed == std::pair(u, v)) {
        ++removed;
        continue;
      }
      targets.push_back(v);
    }
    for (; added != delta.added.end() && added->first == u; ++added) {
      targets.push_back(added->second);
    }
    while (removed != delta.removed.end() && removed->first == u) ++removed;
    rows.push_back(u);
    offsets.push_back(targets.size());
  }
  return Graph::SpliceRows(g, rows, offsets, targets);
}

StatusOr<Graph> ApplyUpdates(const Graph& g,
                             std::span<const GraphUpdate> updates) {
  auto delta = NormalizeUpdates(g, updates);
  if (!delta.ok()) return delta.status();
  return ApplyDelta(g, *delta);
}

bool GraphsIdentical(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    if (a.label(v) != b.label(v)) return false;
    auto na = a.OutNeighbors(v);
    auto nb = b.OutNeighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

}  // namespace bigindex

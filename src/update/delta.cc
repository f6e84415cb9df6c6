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
  // Splice each vertex's sorted out-list: drop its removed edges (present in
  // g) and merge in its added ones (absent from g). Both delta lists are
  // sorted by (source, target), so one pass over g's CSR does it.
  const size_t n = g.NumVertices();
  std::vector<uint64_t> offsets(n + 1, 0);
  std::vector<VertexId> targets;
  targets.reserve(g.NumEdges() + delta.added.size());
  auto added = delta.added.begin();
  auto removed = delta.removed.begin();
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      const std::pair<VertexId, VertexId> edge(u, v);
      for (; added != delta.added.end() && *added < edge; ++added) {
        targets.push_back(added->second);
      }
      while (removed != delta.removed.end() && *removed < edge) ++removed;
      if (removed != delta.removed.end() && *removed == edge) continue;
      targets.push_back(v);
    }
    for (; added != delta.added.end() && added->first == u; ++added) {
      targets.push_back(added->second);
    }
    offsets[u + 1] = targets.size();
  }
  return Graph::FromAdjacency(g.labels(), offsets, targets);
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

UpdateDelta ProjectDeltaToSummary(const Graph& g,
                                  std::span<const VertexId> partition,
                                  const Graph& old_summary,
                                  const UpdateDelta& delta) {
  // Candidate block pairs: only pairs under a delta edge can change. Keep
  // one representative source per pair — stability makes every member of the
  // source block equivalent for the presence test.
  struct Candidate {
    VertexId bu, bv, rep;
  };
  std::vector<Candidate> pairs;
  pairs.reserve(delta.added.size() + delta.removed.size());
  for (const auto& [u, v] : delta.added) {
    pairs.push_back({partition[u], partition[v], u});
  }
  for (const auto& [u, v] : delta.removed) {
    pairs.push_back({partition[u], partition[v], u});
  }
  std::sort(pairs.begin(), pairs.end(), [](const Candidate& a,
                                           const Candidate& b) {
    return a.bu != b.bu ? a.bu < b.bu : a.bv < b.bv;
  });

  UpdateDelta out;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Candidate& c = pairs[i];
    if (i > 0 && pairs[i - 1].bu == c.bu && pairs[i - 1].bv == c.bv) continue;
    const bool before = old_summary.HasEdge(c.bu, c.bv);
    bool after = false;
    for (VertexId w : g.OutNeighbors(c.rep)) {
      if (partition[w] == c.bv) {
        after = true;
        break;
      }
    }
    if (after && !before) out.added.emplace_back(c.bu, c.bv);
    if (before && !after) out.removed.emplace_back(c.bu, c.bv);
  }
  return out;  // pair order is sorted, so added/removed are too
}

}  // namespace bigindex

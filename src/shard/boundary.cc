#include "shard/boundary.h"

#include <algorithm>

#include "graph/csr.h"

namespace bigindex {

void DistanceFromSeeds(const Graph& g, std::span<const VertexId> seeds,
                       uint32_t cap, std::vector<uint32_t>& dist) {
  dist.assign(g.NumVertices(), kInfDistance);
  std::vector<VertexId> queue;
  queue.reserve(seeds.size());
  for (VertexId s : seeds) {
    if (dist[s] == kInfDistance) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  const CsrView out = g.Out(), in = g.In();
  size_t head = 0;
  while (head < queue.size()) {
    VertexId v = queue[head++];
    uint32_t d = dist[v];
    if (d >= cap) continue;
    auto visit = [&](VertexId w) {
      if (dist[w] != kInfDistance) return;
      dist[w] = d + 1;
      queue.push_back(w);
    };
    const auto oi = out[v];
    for (uint64_t i = oi.begin; i < oi.end; ++i) visit(out.Slot(i));
    const auto ii = in[v];
    for (uint64_t i = ii.begin; i < ii.end; ++i) visit(in.Slot(i));
  }
}

uint32_t BoundaryRegion::DistOfGlobal(VertexId global) const {
  auto it = std::lower_bound(global_of.begin(), global_of.end(), global);
  if (it == global_of.end() || *it != global) return kInfDistance;
  return dist_to_cut[it - global_of.begin()];
}

StatusOr<BoundaryRegion> AssembleBoundaryRegion(
    std::span<const BoundaryExport> exports) {
  BoundaryRegion region;
  region.radius_cap = kInfDistance;
  std::vector<std::pair<VertexId, LabelId>> vertices;
  std::vector<std::pair<VertexId, VertexId>> edges, cut_edges;
  for (const BoundaryExport& ex : exports) {
    if (!ex.HasCut()) continue;  // ghost-free shard: contributes nothing
    region.radius_cap = std::min(region.radius_cap, ex.radius_cap);
    vertices.insert(vertices.end(), ex.vertices.begin(), ex.vertices.end());
    edges.insert(edges.end(), ex.edges.begin(), ex.edges.end());
    cut_edges.insert(cut_edges.end(), ex.cut_edges.begin(),
                     ex.cut_edges.end());
  }
  if (cut_edges.empty()) {
    region.radius_cap = 0;
    return region;  // no cut anywhere: empty region, has_cut stays false
  }
  region.has_cut = true;

  // Vertex ownership is disjoint across shards, so duplicates can only come
  // from inconsistent exports.
  std::sort(vertices.begin(), vertices.end());
  for (size_t i = 1; i < vertices.size(); ++i) {
    if (vertices[i].first == vertices[i - 1].first) {
      return Status::Corruption(
          "boundary exports overlap: vertex " +
          std::to_string(vertices[i].first) + " exported by two shards");
    }
  }
  region.global_of.reserve(vertices.size());
  for (const auto& [id, label] : vertices) region.global_of.push_back(id);
  auto local_of = [&](VertexId global, VertexId* local) {
    auto it = std::lower_bound(region.global_of.begin(),
                               region.global_of.end(), global);
    if (it == region.global_of.end() || *it != global) return false;
    *local = static_cast<VertexId>(it - region.global_of.begin());
    return true;
  };

  GraphBuilder b;
  b.Reserve(vertices.size(), edges.size() + cut_edges.size());
  for (const auto& [id, label] : vertices) b.AddVertex(label);
  for (const auto& [u, v] : edges) {
    VertexId lu, lv;
    if (!local_of(u, &lu) || !local_of(v, &lv)) {
      return Status::Corruption("boundary export edge endpoint not exported");
    }
    b.AddEdge(lu, lv);
  }
  // Each cut edge arrives from both incident shards; GraphBuilder collapses
  // the duplicate. Every cut endpoint is owned by some shard at distance 0,
  // so it must appear in that shard's vertex export.
  std::vector<VertexId> seeds;
  seeds.reserve(2 * cut_edges.size());
  for (const auto& [u, v] : cut_edges) {
    VertexId lu, lv;
    if (!local_of(u, &lu) || !local_of(v, &lv)) {
      return Status::Corruption(
          "boundary cut endpoint not exported by its owning shard");
    }
    b.AddEdge(lu, lv);
    seeds.push_back(lu);
    seeds.push_back(lv);
  }
  auto graph = b.Build();
  if (!graph.ok()) return graph.status();
  region.graph = std::move(graph).value();
  DistanceFromSeeds(region.graph, seeds, region.radius_cap,
                    region.dist_to_cut);
  return region;
}

}  // namespace bigindex

// Boundary-aware cross-shard evaluation (DESIGN.md §9).
//
// A bfs-mode shard plan severs edges; ghost materialization (ExtractShard)
// puts both endpoints of every cut edge in both incident shards, so each
// worker sees the true global neighborhood of every owned vertex up to the
// first cut crossing. The exactness argument rests on two derived
// structures:
//
//   * Worker side (ServingStack, shard/serving_stack.h): undirected
//     distance-to-cut for every local vertex (capped at R = 2 * max
//     locality radius) plus the BoundaryExport: the owned vertices within R
//     of the cut, the edges among them, and the shard's incident cut edges,
//     all in global ids. Workers drop answers anchored within rho of the
//     cut (they may be wrong or missing locally); everything farther is
//     provably exact on the shard alone, because its whole dependence ball
//     is cut-free.
//
//   * AssembleBoundaryRegion — coordinator side. Glues the per-shard
//     exports into one region graph (order-preserving global->region remap,
//     cut edges deduped, distance-to-cut recomputed on the region). The
//     coordinator evaluates the query on the region and keeps exactly the
//     answers anchored within rho of the cut: the region contains every
//     vertex and edge within R >= 2*rho of the cut, so those answers — and
//     their scores — match the monolithic graph. Far answers from workers
//     plus near answers from the region partition the monolithic answer
//     set, so the merge is exact.

#ifndef BIGINDEX_SHARD_BOUNDARY_H_
#define BIGINDEX_SHARD_BOUNDARY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "server/query_service.h"
#include "util/status.h"

namespace bigindex {

/// Multi-source undirected BFS from `seeds` (all at distance 0), capped at
/// `cap`: dist[v] = distance to the nearest seed, kInfDistance beyond the
/// cap. Both sides measure distance-to-cut with it.
void DistanceFromSeeds(const Graph& g, std::span<const VertexId> seeds,
                       uint32_t cap, std::vector<uint32_t>& dist);

/// The coordinator's assembled boundary region: the union of the per-shard
/// exports under an order-preserving global->region remap.
struct BoundaryRegion {
  Graph graph;
  /// Region-local -> global vertex id, strictly ascending.
  std::vector<VertexId> global_of;
  /// Undirected distance to the nearest cut endpoint, per region-local
  /// vertex, capped at radius_cap (kInfDistance beyond).
  std::vector<uint32_t> dist_to_cut;
  /// min over the contributing exports' caps: completion for an algorithm
  /// of radius rho is sound only when 2*rho <= radius_cap.
  uint32_t radius_cap = 0;
  bool has_cut = false;

  /// dist_to_cut by global id; kInfDistance for vertices outside the region.
  uint32_t DistOfGlobal(VertexId global) const;
};

/// Glues per-shard exports into the region. Empty/ghost-free exports
/// contribute nothing; with no cut edge anywhere the region is empty and
/// has_cut is false. Fails with Corruption when the exports are mutually
/// inconsistent (a cut endpoint no shard exported, conflicting labels).
StatusOr<BoundaryRegion> AssembleBoundaryRegion(
    std::span<const BoundaryExport> exports);

}  // namespace bigindex

#endif  // BIGINDEX_SHARD_BOUNDARY_H_

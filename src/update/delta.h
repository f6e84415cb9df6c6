// Edge updates to a data graph and their net effect (Sec. 3.2,
// "Maintenance of BiG-index"): the shared batch semantics every update path
// normalizes through, and applying a normalized delta. update/maintain.h
// builds whole-index maintenance on top of these.

#ifndef BIGINDEX_UPDATE_DELTA_H_
#define BIGINDEX_UPDATE_DELTA_H_

#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace bigindex {

/// One edge-level update to a data graph.
struct GraphUpdate {
  enum class Kind { kAddEdge, kRemoveEdge };
  Kind kind = Kind::kAddEdge;
  VertexId source = kInvalidVertex;
  VertexId target = kInvalidVertex;
};

/// The net effect of an update batch against a concrete graph: which edges
/// are actually added, which actually removed, and how many batch entries
/// were redundant (duplicate ops, add-then-remove pairs, adds of present
/// edges, removes of absent ones). Within a batch the *last* op on an edge
/// wins, matching sequential application semantics; self-loops are ordinary
/// edges. `added` and `removed` are sorted by (source, target), disjoint,
/// and each edge appears at most once.
struct UpdateDelta {
  std::vector<std::pair<VertexId, VertexId>> added;
  std::vector<std::pair<VertexId, VertexId>> removed;
  size_t redundant = 0;

  bool empty() const { return added.empty() && removed.empty(); }
};

/// Normalizes an update batch against `g`. Every path that applies updates
/// (wholesale rebuild, incremental refinement, sharded routing) goes through
/// this so batch-order corner cases — duplicates, add-then-remove of the
/// same edge, self-loops — get one shared semantics. Out-of-range endpoints
/// fail with InvalidArgument.
StatusOr<UpdateDelta> NormalizeUpdates(const Graph& g,
                                       std::span<const GraphUpdate> updates);

/// Applies `delta` (as produced by NormalizeUpdates against `g`: both lists
/// sorted, removed edges present in `g`, added edges absent) and returns the
/// updated graph.
Graph ApplyDelta(const Graph& g, const UpdateDelta& delta);

/// Applies `updates` in order and returns the updated graph. Removing an
/// absent edge or adding a duplicate is a no-op; out-of-range endpoints fail
/// with InvalidArgument.
StatusOr<Graph> ApplyUpdates(const Graph& g,
                             std::span<const GraphUpdate> updates);

/// True iff a and b are the same graph: identical vertex labels and edge
/// sets under identical vertex numbering.
bool GraphsIdentical(const Graph& a, const Graph& b);

}  // namespace bigindex

#endif  // BIGINDEX_UPDATE_DELTA_H_

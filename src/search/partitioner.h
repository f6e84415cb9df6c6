// Graph partitioning for the shard substrate's graph sharder.
//
//   * PartitionGraph grows size-bounded, connected-ish blocks with a BFS
//     greedy over the undirected view of the graph, in place of METIS
//     (not available offline; partition quality moves constants, not
//     trends). bfs-mode shard plans pack these blocks.
//
//   * The shard substrate (src/shard/, DESIGN.md §9) needs a *disjoint shard
//     cover* of the vertex set plus the manifest of edges its cut severs.
//     PlanShards packs connectivity units (whole weakly-connected components
//     in the default answer-preserving mode, BFS blocks in the general mode)
//     onto N shards with a deterministic longest-processing-time greedy, and
//     ExtractShard materializes one shard's vertex-induced subgraph with an
//     order-preserving local<->global vertex remap.

#ifndef BIGINDEX_SEARCH_PARTITIONER_H_
#define BIGINDEX_SEARCH_PARTITIONER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace bigindex {

/// A disjoint block cover of the vertex set.
class Partition {
 public:
  Partition() = default;
  Partition(std::vector<uint32_t> block_of, size_t num_blocks);

  uint32_t BlockOf(VertexId v) const { return block_of_[v]; }
  size_t NumBlocks() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  size_t NumVertices() const { return block_of_.size(); }

  /// Vertices of block b, ascending.
  std::span<const VertexId> BlockMembers(uint32_t b) const {
    return {members_.data() + offsets_[b], offsets_[b + 1] - offsets_[b]};
  }

 private:
  std::vector<uint32_t> block_of_;
  std::vector<uint64_t> offsets_;  // CSR over blocks
  std::vector<VertexId> members_;
};

/// BFS-grown partition with blocks of at most `target_block_size` vertices.
Partition PartitionGraph(const Graph& g, size_t target_block_size);

// ---------------------------------------------------------------------------
// Graph sharder (shard substrate, DESIGN.md §9)
// ---------------------------------------------------------------------------

/// How the sharder carves the graph into per-shard vertex sets.
enum class ShardMode {
  /// Pack whole weakly-connected components onto shards. No edge is ever
  /// cut (the boundary manifest is empty by construction), so every
  /// connected answer lives entirely inside one shard and scatter-gather
  /// results are *exactly* the monolithic results for every search
  /// semantics. Balance is best-effort: a giant component caps it.
  kConnectivityClosed,

  /// Pack BFS-grown blocks (PartitionGraph) onto shards. Balanced cuts on
  /// any graph shape. Cut edges are recorded in the manifest and
  /// materialized into BOTH incident shards via ghost vertices (the
  /// off-shard endpoint is replicated read-only), so block-local search
  /// plus the coordinator's boundary completion pass (DESIGN.md §9)
  /// reproduces the monolithic answer set exactly for algorithms with a
  /// declared locality radius.
  kBfsBlocks,
};

/// Knobs for PlanShards.
struct ShardPlanOptions {
  /// Number of shards (>= 1). Shards may end up empty when the graph has
  /// fewer packing units than shards.
  size_t num_shards = 1;

  ShardMode mode = ShardMode::kConnectivityClosed;

  /// Packing granularity for kBfsBlocks (ignored in connectivity-closed
  /// mode): target vertex count of the BFS blocks handed to the packer.
  size_t bfs_block_size = 256;
};

/// One severed edge of the shard cut, in global vertex ids.
struct CutEdge {
  VertexId source = 0;
  VertexId target = 0;

  friend bool operator==(const CutEdge&, const CutEdge&) = default;
};

/// A disjoint shard cover of the vertex set plus the boundary-edge manifest
/// of the cut. Every vertex belongs to exactly one shard; the manifest lists
/// every edge whose endpoints land on different shards (empty in
/// connectivity-closed mode), sorted by (source, target).
class ShardPlan {
 public:
  ShardPlan() = default;
  ShardPlan(std::vector<uint32_t> shard_of, size_t num_shards,
            std::vector<CutEdge> cut_edges, ShardMode mode);

  uint32_t ShardOf(VertexId v) const { return shard_of_[v]; }
  size_t num_shards() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t NumVertices() const { return shard_of_.size(); }
  ShardMode mode() const { return mode_; }

  /// Global vertex ids of shard s, ascending.
  std::span<const VertexId> ShardMembers(uint32_t s) const {
    return {members_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
  }

  /// The boundary-edge manifest: every severed edge, sorted by
  /// (source, target). Empty in connectivity-closed mode.
  std::span<const CutEdge> CutEdges() const { return cut_edges_; }

 private:
  std::vector<uint32_t> shard_of_;
  std::vector<uint64_t> offsets_;  // CSR over shards
  std::vector<VertexId> members_;
  std::vector<CutEdge> cut_edges_;
  ShardMode mode_ = ShardMode::kConnectivityClosed;
};

/// Plans a shard cover of `g`. Deterministic: the same graph and options
/// always produce the same plan (component/block discovery order and the
/// greedy packer are pure functions of the input), so independent processes
/// given the same dataset flags agree on the plan without coordination.
StatusOr<ShardPlan> PlanShards(const Graph& g, const ShardPlanOptions& options);

/// One shard's materialized subgraph: the subgraph induced by its member set
/// plus ghost vertices for the off-shard endpoints of its incident cut
/// edges, under an order-preserving remap (local id i is the i-th smallest
/// global id among members ∪ ghosts, so relative vertex order — and with it
/// every deterministic tie-break in the search algorithms — is preserved).
/// Ghosts keep their real labels; each incident cut edge is materialized in
/// its stored direction. A plan with an empty cut yields no ghosts.
struct ShardExtract {
  Graph graph;
  /// Local -> global vertex id, strictly ascending; size = graph vertices.
  std::vector<VertexId> global_of;
  /// Local ids of ghost vertices, strictly ascending. Ghosts are read-only
  /// replicas of other shards' vertices: answers anchored on them are
  /// filtered worker-side (ServingStack) and updates never target
  /// them.
  std::vector<VertexId> ghosts;
};

/// Materializes shard `shard` of `plan`: the member-induced subgraph, plus a
/// ghost vertex for every distinct off-shard endpoint of the shard's
/// incident cut edges (both directions), with those cut edges materialized.
/// Labels keep their global ids, so keyword queries need no translation.
StatusOr<ShardExtract> ExtractShard(const Graph& g, const ShardPlan& plan,
                                    uint32_t shard);

}  // namespace bigindex

#endif  // BIGINDEX_SEARCH_PARTITIONER_H_

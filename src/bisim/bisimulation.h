// Maximal bisimulation summarization (Sec. 2, "Graph bisimulation" and
// "Graph summarization Bisim(G)").
//
// Two vertices are bisimilar iff they carry the same label and their successor
// sets match up block-wise (the relation of Sec. 2; Example 2.1's "their child
// node is bisimilar"). We compute the *maximal* bisimulation — the coarsest
// stable partition refining the label partition — by iterated signature
// refinement: each round re-partitions vertices by
// (current block, {blocks of out-neighbors}), and the fixpoint is reached when
// no round splits a block. Refinement only ever splits, so fixpoint detection
// is a block-count comparison.
//
// The quotient is materialized as another Graph (supernodes, edges
// {([u],[v]) | (u,v) in E}); the hash-table reverse mapping Bisim^-1 of the
// paper is the BisimMapping CSR (supernode -> members).
//
// Rounds parallelize per block-signature (cf. Rau et al.'s k-bisimulation
// analysis): vertex ranges are hashed and locally deduplicated on an
// ExecutorPool, then a serial merge assigns global block ids in
// first-occurrence order, so every pool size yields the exact partition the
// serial scan produces (see BisimOptions::pool).

#ifndef BIGINDEX_BISIM_BISIMULATION_H_
#define BIGINDEX_BISIM_BISIMULATION_H_

#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace bigindex {

class ExecutorPool;

/// The vertex <-> supernode correspondence of one Bisim application
/// (the paper's equiv(v) / [v]_equiv and its reverse Bisim^-1).
///
/// Like Graph, the three arrays live back to back in one arena (or one
/// index-image section), so copies are shallow and image loads are
/// zero-copy.
class BisimMapping {
 public:
  BisimMapping() = default;

  /// Builds the mapping from a vertex -> block assignment with
  /// `num_blocks` dense block ids.
  BisimMapping(std::span<const VertexId> vertex_to_super, size_t num_blocks);

  /// Bisim(v): the supernode containing v.
  VertexId SuperOf(VertexId v) const { return vertex_to_super_[v]; }

  /// Bisim^-1(s): the member vertices of supernode s, ascending.
  std::span<const VertexId> Members(VertexId s) const {
    return {members_.data() + member_offsets_[s],
            member_offsets_[s + 1] - member_offsets_[s]};
  }

  /// Bisim^-1 as a HalfInterval view over the flat members array.
  CsrView MembersView() const {
    return {member_offsets_.data(), members_.data()};
  }

  size_t NumSupernodes() const { return member_offsets_.size() - 1; }
  size_t NumVertices() const { return vertex_to_super_.size(); }

  /// Raw flat arrays in canonical (index-image) order. For serializers.
  std::span<const VertexId> VertexToSuper() const { return vertex_to_super_; }
  std::span<const uint64_t> MemberOffsets() const { return member_offsets_; }
  std::span<const VertexId> MembersArray() const { return members_; }

  /// Wires a mapping over externally owned, already-validated arrays (the
  /// mmap'd index image). No checks — see core/index_image.
  static BisimMapping FromStorage(StorageHandle storage,
                                  std::span<const VertexId> vertex_to_super,
                                  std::span<const uint64_t> member_offsets,
                                  std::span<const VertexId> members);

 private:
  StorageHandle storage_;
  std::span<const VertexId> vertex_to_super_;
  std::span<const uint64_t> member_offsets_ = EmptyOffsets();  // CSR
  std::span<const VertexId> members_;

  static std::span<const uint64_t> EmptyOffsets();
};

/// Result of summarizing one graph.
struct BisimResult {
  Graph summary;        // Bisim(G), supernode labels = member labels
  BisimMapping mapping;  // v <-> [v]_equiv
  size_t refinement_rounds = 0;  // rounds until fixpoint (diagnostics)
};

/// Options for ComputeBisimulation.
struct BisimOptions {
  /// Hard cap on refinement rounds; 0 means run to fixpoint. A capped run
  /// yields a partition that is *coarser* than maximal bisimulation and NOT
  /// guaranteed stable — only the ablation bench uses caps.
  size_t max_rounds = 0;

  /// Worker pool for per-round parallel signature computation; nullptr (or a
  /// pool with no workers) runs serially. The refined partition is
  /// byte-identical for every pool size: block ids are always assigned in
  /// first-occurrence order of the signatures over the vertex scan, which is
  /// invariant under the chunking the pool introduces.
  ExecutorPool* pool = nullptr;

  /// Minimum vertices per chunk before the pool is engaged; graphs smaller
  /// than two chunks run serially because the fan-out would cost more than
  /// the round. Tests lower it to force the chunked path on tiny graphs.
  size_t min_chunk_vertices = 2048;
};

/// Computes the maximal bisimulation summary of `g`.
BisimResult ComputeBisimulation(const Graph& g, const BisimOptions& options = {});

/// Verifies that `mapping` is a stable bisimulation partition of `g`:
/// members of a block share a label, and whenever u has an edge into block B,
/// every u' in u's block has an edge into B. Used by tests and the
/// maintenance path. O(|E| log |E|).
bool IsStableBisimulation(const Graph& g, const BisimMapping& mapping);

}  // namespace bigindex

#endif  // BIGINDEX_BISIM_BISIMULATION_H_

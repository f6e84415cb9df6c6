// Maximal bisimulation summarization (Sec. 2, "Graph bisimulation" and
// "Graph summarization Bisim(G)") — the one home of "summarize a graph under
// a labelling". The index function χ(G, C) = Bisim(Gen(G, C)) is one call:
// ComputeBisimulation(g, GeneralizedLabels(g, C, &storage)), which reads the
// generalized labels as a per-vertex view over g's structure, so no caller
// materializes Gen(G, C).
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
// {([u],[v]) | (u,v) in E}) by MaterializeQuotient, the one quotient builder
// (incremental maintenance uses it too); the hash-table reverse mapping
// Bisim^-1 of the paper is the BisimMapping CSR (supernode -> members).
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

/// Computes the maximal bisimulation summary of `g` with vertex v labelled
/// `labels[v]` (one entry per vertex): pass g.labels() to summarize g as it
/// is, or ontology/config.h's GeneralizedLabels view to summarize Gen(g, C).
BisimResult ComputeBisimulation(const Graph& g,
                                std::span<const LabelId> labels,
                                const BisimOptions& options = {});

/// The quotient of `g` under `partition` (one entry per vertex, arbitrary
/// ids < id_bound, label-uniform under `labels`): blocks are renumbered in
/// first-occurrence order over the vertex scan — the numbering
/// ComputeBisimulation's rounds produce — and each block's out-edges are fed
/// to the builder once, deduplicated with a stamp over its members. The
/// summary label of a block is its members' label. `old_to_final`, when
/// non-null, receives the id_bound-sized renumbering table (ids that occur
/// in no vertex map to UINT32_MAX). refinement_rounds is left 0.
BisimResult MaterializeQuotient(const Graph& g,
                                std::span<const LabelId> labels,
                                std::vector<uint32_t> partition,
                                size_t id_bound,
                                std::vector<uint32_t>* old_to_final = nullptr);

/// The quotient of the same graph under a coarser partition, built from
/// `fine`'s summary: `coarse` maps each supernode of `fine` to an id <
/// id_bound. Equal to MaterializeQuotient(g, labels, coarse ∘ fine, ...)
/// when fine's supernode ids are in first-occurrence order over g (every
/// MaterializeQuotient result qualifies), but costs O(|fine.summary|)
/// instead of O(|g|): it runs MaterializeQuotient on the summary and
/// composes the mappings. `old_to_final` is as for MaterializeQuotient,
/// over the coarse ids.
BisimResult CoarsenQuotient(const BisimResult& fine,
                            std::span<const uint32_t> coarse, size_t id_bound,
                            std::vector<uint32_t>* old_to_final = nullptr);

/// Verifies that `mapping` is a stable bisimulation partition of `g`:
/// members of a block share a label, and whenever u has an edge into block B,
/// every u' in u's block has an edge into B. Used by tests and the
/// maintenance path. O(|E| log |E|).
bool IsStableBisimulation(const Graph& g, const BisimMapping& mapping);

}  // namespace bigindex

#endif  // BIGINDEX_BISIM_BISIMULATION_H_

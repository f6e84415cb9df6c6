// Maximal bisimulation summarization (Sec. 2, "Graph bisimulation" and
// "Graph summarization Bisim(G)") — the one home of "summarize a graph under
// a labelling". The index function χ(G, C) = Bisim(Gen(G, C)) is one call:
// ComputeBisimulation(g, GeneralizedLabels(g, C, &storage)), which reads the
// generalized labels as a per-vertex view over g's structure, so no caller
// materializes Gen(G, C).
//
// Two vertices are bisimilar iff they carry the same label and their successor
// sets match up block-wise (the relation of Sec. 2; Example 2.1's "their child
// node is bisimilar"). We compute the *maximal* bisimulation: the coarsest
// stable partition refining the label partition.
//
// The kernel is rank-ordered (Hellings, Fletcher and Haverkort, arXiv
// 1112.0857; Dovier, Piazza and Policriti's rank-based bisimulation). A
// vertex from which no path reaches a cycle (a *well-founded* vertex) has a
// block that depends only on its label and its successors' blocks, so it is
// signed exactly once, after all of its successors, as
// (label, sorted unique successor blocks), and that block is final. Only the
// cyclic remainder (vertices that reach a cycle; self-loops count) is refined
// in rounds to a fixpoint, with the well-founded blocks pinned. The split is
// exact because a vertex that reaches a cycle is never bisimilar to a
// well-founded one. On a DAG the remainder is empty.
//
// Incremental maintenance runs the same signer on the *ancestor cone* of the
// vertices whose label or out-edges changed (ResignCone): every vertex outside
// the cone keeps its previous block, the previous summary serves as the
// signature table, and the summary is spliced from its unchanged rows
// (Luo, Fletcher et al.'s localized maintenance, arXiv 1210.0748).
//
// The quotient is materialized as another Graph (supernodes, edges
// {([u],[v]) | (u,v) in E}) by MaterializeQuotient, which numbers blocks in
// first-occurrence order over the vertex scan; the hash-table reverse mapping
// Bisim^-1 of the paper is the BisimMapping CSR (supernode -> members). The
// kernel is serial.

#ifndef BIGINDEX_BISIM_BISIMULATION_H_
#define BIGINDEX_BISIM_BISIMULATION_H_

#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace bigindex {

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
};

/// Computes the maximal bisimulation summary of `g` with vertex v labelled
/// `labels[v]` (one entry per vertex): pass g.labels() to summarize g as it
/// is, or ontology/config.h's GeneralizedLabels view to summarize Gen(g, C).
BisimResult ComputeBisimulation(const Graph& g,
                                std::span<const LabelId> labels);

/// Number of vertices of `g` from which no path reaches a cycle (self-loops
/// count as cycles): the vertices ComputeBisimulation signs exactly once.
size_t CountWellFounded(const Graph& g);

/// Outcome of ResignCone.
struct ConeResult {
  /// False when the cone held more than `max_cone` vertices; the caller
  /// then summarizes the graph from scratch. Only `cone` is set then (a
  /// lower bound: the walk stops at the limit).
  bool applied = false;

  /// Byte-identical to ComputeBisimulation(g, labels).
  BisimResult bisim;

  /// True when the cone held a cycle, so the whole kernel re-ran on g and
  /// the next layer's link was read off the members of its supernodes.
  bool rerun = false;

  /// True when bisim is `prior` itself, reused verbatim: the vertex
  /// numbering is the identity and no cone vertex moved.
  bool reused = false;

  /// The next layer's ResignCone inputs, over bisim.summary's vertices.
  /// `next_to_prior` maps each supernode to the previous supernode it stands
  /// in for, or kInvalidVertex (empty when it would be the identity); after
  /// a splice a new block stands in for the previous supernode of its own
  /// number if that one has no members any more. `next_changed` (ascending)
  /// lists the supernodes whose label or row, read through that map, is not
  /// their previous supernode's: after a splice, exactly the new blocks.
  std::vector<VertexId> next_to_prior;
  std::vector<VertexId> next_changed;

  size_t cone = 0;   // the changed vertices and their ancestors
  size_t moved = 0;  // vertices whose block differs from their previous one
};

/// The maximal bisimulation of `g` given that of a graph it was derived from:
/// `prior` (that graph's summary and mapping) and `to_prior` (g vertex ->
/// that graph's vertex; empty means the identity over the same vertex
/// count). `changed` must list every vertex of g whose label or out-edges
/// (read through to_prior) differ from its counterpart's, and every vertex
/// without a counterpart (to_prior value kInvalidVertex).
///
/// Only the ancestor cone of `changed` is re-signed, successors first; every
/// other vertex keeps its previous block, whose signature is its row in
/// prior.summary: (label(s), OutNeighbors(s)). A re-signed vertex that meets
/// a previous signature joins that block (a merge); one with a new signature
/// opens a block (a split). The summary is the previous one with the changed
/// blocks' rows spliced in, renumbered in one pass over g's vertices. Cost:
/// the cone's edges plus O(|V(g)| + |summary|), or only the cone when nothing
/// moved. A cone that holds a cycle cannot be signed successors first: then
/// ComputeBisimulation runs on g (`rerun`). InvalidArgument on malformed
/// input.
StatusOr<ConeResult> ResignCone(const Graph& g, std::span<const LabelId> labels,
                                const BisimResult& prior,
                                std::span<const VertexId> to_prior,
                                std::span<const VertexId> changed,
                                size_t max_cone);

/// The quotient of `g` under `partition` (one entry per vertex, arbitrary
/// ids < id_bound, label-uniform under `labels`): blocks are renumbered in
/// first-occurrence order over the vertex scan — the canonical numbering of
/// every summary — and each block's out-edges are fed to the builder once,
/// deduplicated with a stamp over its members. The summary label of a block
/// is its members' label. `old_to_final`, when non-null, receives the
/// id_bound-sized renumbering table (ids that occur in no vertex map to
/// UINT32_MAX).
BisimResult MaterializeQuotient(const Graph& g,
                                std::span<const LabelId> labels,
                                std::vector<uint32_t> partition,
                                size_t id_bound,
                                std::vector<uint32_t>* old_to_final = nullptr);

/// Verifies that `mapping` is a stable bisimulation partition of `g`:
/// members of a block share a label, and whenever u has an edge into block B,
/// every u' in u's block has an edge into B. Used by tests.
/// O(|E| log |E|).
bool IsStableBisimulation(const Graph& g, const BisimMapping& mapping);

}  // namespace bigindex

#endif  // BIGINDEX_BISIM_BISIMULATION_H_

// The keyword-cone kernel shared by the rooted semantics (bkws, Blinks and
// bidirectional expansion).
//
// All three answer the same query: distinct roots r that reach one vertex of
// every keyword within d_max hops, scored by Σ dist(r, kw_i). All three are
// built from one operation, the backward BFS from each keyword's vertex set
// V_qi along reversed edges, and they differ only in the order in which
// they advance the cones. KeywordCones owns that operation: it seeds one
// cone per keyword, expands a chosen cone by one whole BFS level, reports
// each cone's level, and assembles the answers. The algorithms are
// schedulers over it (bkws: every cone to d_max; Blinks: smallest frontier
// first with an exact top-k stop; bidirectional: highest activation first).
//
// One tie-break for every cone. A cone's (witness, parent) is the least fixed
// point over its shortest-path DAG: dist is the BFS distance, and (witness,
// parent) of a vertex at distance d > 0 is the least (witness[u], u) over
// its out-neighbours u at distance d - 1. So the witness is the smallest-id
// nearest keyword vertex — the one CompleteRootedAnswer picks as well — and
// answers, paths included, are a pure function of the graph, never of the
// expansion order: the three algorithms, and sharded and monolithic
// evaluation, agree answer for answer.
//
// Expansion tracks distances only: a whole level expands at a time, so every
// vertex of level d is final before level d expands and no vertex is queued
// twice. Only the emitted roots' paths read (witness, parent), so Answers
// resolves the fixed point lazily, for the roots that survive the top-k cut:
// a post-order walk down the shortest-path DAG below each root, memoized in
// the cone's scratch, with an explicit stack since d_max is the caller's.
//
// Cone arrays come from QueryContext cone slots [0, |Q|); the destructor
// releases them in O(touched).

#ifndef BIGINDEX_SEARCH_KEYWORD_CONES_H_
#define BIGINDEX_SEARCH_KEYWORD_CONES_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "engine/query_context.h"
#include "graph/graph.h"
#include "search/answer.h"

namespace bigindex {

/// Most distinct keywords one query may carry. The serving fronts reject
/// more with InvalidArgument; the library entry points return no answers.
inline constexpr size_t kMaxKeywords = 32;

/// One backward BFS cone per query keyword, expanded a level at a time.
class KeywordCones {
 public:
  /// Seeds cone i with the vertices labelled keywords[i] at level 0. A
  /// query with no keywords, more than kMaxKeywords of them, a keyword no
  /// vertex carries, or an empty graph has no answers: it seeds no cone and
  /// size() is 0.
  KeywordCones(const Graph& g, const std::vector<LabelId>& keywords,
               uint32_t d_max, QueryContext& ctx);
  ~KeywordCones();

  KeywordCones(const KeywordCones&) = delete;
  KeywordCones& operator=(const KeywordCones&) = delete;

  /// Number of cones: |Q|, or 0 for a query that has no answers.
  size_t size() const { return size_; }

  /// Distance of cone i's frontier from its keyword vertices.
  uint32_t level(size_t i) const { return cursors_[i].level; }

  /// Cone i's frontier: the vertices at distance level(i), in BFS order.
  std::span<const VertexId> Frontier(size_t i) const;

  /// True once cone i's frontier is empty or at d_max: every vertex within
  /// d_max of the keyword is known.
  bool Exhausted(size_t i) const {
    const Cursor& c = cursors_[i];
    return c.head == c.end || c.level >= d_max_;
  }

  /// Expands cone i (not Exhausted) by one level and returns the new
  /// frontier. Every distance it holds is final on return.
  std::span<const VertexId> ExpandLevel(size_t i);

  /// True iff cone i has reached v; its distance is then dist(i, v).
  bool Reached(size_t i, VertexId v) const {
    return cones_[i]->dist[v] != kInfDistance;
  }
  uint32_t dist(size_t i, VertexId v) const { return cones_[i]->dist[v]; }

  /// The answers so far: every root all cones have reached, with its path
  /// to each cone's witness, in SortAnswers order, cut to `top_k` (0 = all).
  /// Exact once every cone is Exhausted. Only the roots that survive the cut
  /// resolve witnesses and paths.
  std::vector<Answer> Answers(size_t top_k) const;

 private:
  // queue[head, end) of a cone is its frontier at distance `level`;
  // everything before `head` has been expanded.
  struct Cursor {
    size_t head = 0;
    size_t end = 0;
    uint32_t level = 0;
  };

  // One pending vertex of Witness's walk: its out-edges from `next` are not
  // scanned yet, and (witness, hop) is the least pair over those that are.
  struct Frame {
    VertexId v;
    uint64_t next;
    VertexId witness = kInvalidVertex;
    VertexId hop = kInvalidVertex;
  };

  // Cone i's witness of v (Reached): the smallest-id keyword vertex nearest
  // to v. Resolves, and memoizes with its next hop, every vertex of the
  // shortest-path DAG below v that is not resolved yet.
  VertexId Witness(size_t i, VertexId v) const;

  const CsrView in_;
  const CsrView out_;
  const uint32_t d_max_;
  size_t size_ = 0;
  std::array<ConeScratch*, kMaxKeywords> cones_{};
  std::array<Cursor, kMaxKeywords> cursors_{};
  mutable std::vector<Frame> stack_;
};

/// The exact best answer tree rooted at `root` — the VerifyCandidate of
/// every rooted semantics: one forward bounded BFS from the root, and per
/// keyword the nearest keyword vertex, ties to the smallest id (the cones'
/// witness). Returns nullopt if some keyword is unreachable within d_max.
/// Uses ctx cone slot 0.
std::optional<Answer> CompleteRootedAnswer(
    const Graph& g, const std::vector<LabelId>& keywords, VertexId root,
    uint32_t d_max, QueryContext& ctx);

}  // namespace bigindex

#endif  // BIGINDEX_SEARCH_KEYWORD_CONES_H_

// Per-query reusable scratch state (the engine layer's answer to "hot search
// loops must stop allocating per call").
//
// Every KeywordSearchAlgorithm entry point receives a QueryContext& and draws
// its working memory from it: BFS cone arrays (distance / witness memo / next
// hop / frontier queue), per-vertex mask and accumulator arrays, candidate
// vectors, dedup sets, and the r-clique verification ball cache. A context is NOT
// thread-safe — it is the unit of thread affinity: the engine hands each
// worker its own context, and within one context calls are strictly
// sequential. Contexts grow to the largest graph they have served and keep
// their capacity across queries, so steady-state query evaluation performs no
// per-call O(|V|) allocations.

#ifndef BIGINDEX_ENGINE_QUERY_CONTEXT_H_
#define BIGINDEX_ENGINE_QUERY_CONTEXT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/types.h"

namespace bigindex {

class Graph;

/// Scratch for one bounded BFS cone: persistent per-vertex arrays plus the
/// visit queue, which doubles as the touched list. Invariant between uses:
/// dist is kInfDistance and witness is kInvalidVertex everywhere, and queue
/// and resolved are empty. Release() restores it in O(touched) instead of
/// O(|V|). parent is not part of the invariant: every user writes a vertex's
/// parent before it reads it.
struct ConeScratch {
  std::vector<uint32_t> dist;      // kInfDistance = unreached
  std::vector<VertexId> witness;   // memo: keyword vertex the path leads to
  std::vector<VertexId> parent;    // predecessor / next hop on the path
  std::vector<VertexId> queue;     // visit order == exactly the dist writes
  std::vector<VertexId> resolved;  // exactly the witness writes

  /// Grows the arrays to cover `num_vertices`, preserving the invariant.
  void EnsureSize(size_t num_vertices);

  /// Restores the invariant by undoing the writes recorded in `queue` (dist)
  /// and `resolved` (witness). Every vertex whose dist was written MUST be in
  /// queue, and every vertex whose witness was written MUST be in resolved.
  void Release();
};

/// The r-clique verification ball cache (bounded undirected r-balls around
/// keyword vertices), formerly algorithm-level mutable state guarded by a
/// mutex; per-context it needs no locking and stops serializing verification.
struct BallCache {
  const Graph* graph = nullptr;    // balls are valid for this graph only
  std::unordered_map<VertexId, std::unordered_map<VertexId, uint32_t>> balls;

  /// Drops stale balls when the target graph (or radius) changes.
  void SwitchTo(const Graph* g, uint32_t radius);

 private:
  uint32_t radius_ = 0;
};

/// All scratch state one query evaluation needs. Owned by the caller (the
/// QueryEngine keeps a pool, one handed to each in-flight evaluation);
/// stateless algorithm objects stay const and re-entrant by writing only
/// here.
class QueryContext {
 public:
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// BFS scratch slot `i`, sized for `num_vertices`. Algorithms use slots
  /// [0, |Q|) for per-keyword cones; slot usage never nests across public
  /// entry points (every entry point Release()s what it acquired before
  /// returning).
  ConeScratch& Cone(size_t i, size_t num_vertices);

  /// Per-vertex uint32 array, zero-filled to `num_vertices` on every call
  /// (capacity is reused; the fill is a memset, not an allocation).
  std::vector<uint32_t>& ZeroedVertexArray(size_t slot, size_t num_vertices);

  /// Reusable vertex vector, cleared on every call.
  std::vector<VertexId>& VertexScratch(size_t slot);

  /// Reusable dedup set over vertices (evaluator root dedup), cleared.
  std::unordered_set<VertexId>& VertexSet();

  /// Reusable dedup set over string keys (evaluator r-clique dedup), cleared.
  std::unordered_set<std::string>& KeySet();

  /// Reusable key-assembly buffer.
  std::string& KeyBuffer();

  /// Reusable (distance, vertex) accumulator with one entry per query
  /// keyword, cleared on every call (rooted-answer completion).
  std::vector<std::pair<uint32_t, VertexId>>& BestPerKeyword();

  BallCache& Balls() { return balls_; }

 private:
  // Deques (and the unique_ptr indirection) keep the returned references
  // address-stable while later slots are acquired and the pools grow.
  std::vector<std::unique_ptr<ConeScratch>> bfs_;
  std::deque<std::vector<uint32_t>> vertex_arrays_;
  std::deque<std::vector<VertexId>> vertex_scratch_;
  std::unordered_set<VertexId> vertex_set_;
  std::unordered_set<std::string> key_set_;
  std::string key_buffer_;
  std::vector<std::pair<uint32_t, VertexId>> best_per_keyword_;
  BallCache balls_;
};

}  // namespace bigindex

#endif  // BIGINDEX_ENGINE_QUERY_CONTEXT_H_

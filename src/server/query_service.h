// QueryService — the narrow serving interface the protocol front ends
// (LineHandler, TcpServer) and the shard substrate are written against.
//
// Three classes implement it:
//   * SearchService — one QueryEngine behind admission control and a slot
//     gate; each query evaluates on its caller's thread.
//   * ServingStack (shard/serving_stack.h) — one served index, the whole
//     graph or one shard of a plan: a SearchService with its live updater
//     and, for a shard, the serving edge that rewrites shard-local vertex
//     ids to global ones. The monolithic server and every shard worker
//     serve through one, so everything downstream — the wire protocol, the
//     coordinator's merge — speaks global vertex ids only.
//   * ShardedSearchService — the scatter-gather coordinator in src/shard/,
//     which fans a query out to N shard substrates and merges top-k.
//
// Every call is synchronous and runs on the caller's thread: a TcpServer
// connection thread evaluates its own wire requests.

#ifndef BIGINDEX_SERVER_QUERY_SERVICE_H_
#define BIGINDEX_SERVER_QUERY_SERVICE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "server/service_stats.h"
#include "update/delta.h"
#include "util/status.h"

namespace bigindex {

/// A shard's boundary region, in GLOBAL vertex ids (the BOUNDARY verb
/// payload; DESIGN.md §9). The coordinator assembles the per-shard exports
/// into one region graph and evaluates cut-crossing answers on it.
struct BoundaryExport {
  /// The exporter's distance cap R = 2 * max locality radius: every owned
  /// vertex within undirected distance R of the cut is exported.
  uint32_t radius_cap = 0;
  /// Owned vertices with dist-to-cut <= R, ascending by global id, with
  /// their labels (the region graph needs labels for keyword matching).
  std::vector<std::pair<VertexId, LabelId>> vertices;
  /// Edges between two exported owned vertices, direction preserved.
  std::vector<std::pair<VertexId, VertexId>> edges;
  /// This shard's incident cut edges (exactly one endpoint owned here),
  /// direction preserved. Both incident shards export each cut edge; the
  /// region assembly dedups.
  std::vector<std::pair<VertexId, VertexId>> cut_edges;

  bool HasCut() const { return !cut_edges.empty(); }
};

/// The vertex an answer's dependence ball is centered on: the root for
/// rooted semantics, else the smallest keyword vertex. Both survive the
/// order-preserving remaps, so the workers' near-answer filter and the
/// coordinator's completion pass classify every answer the same way.
inline VertexId AnchorOf(const Answer& a) {
  if (a.root != kInvalidVertex) return a.root;
  if (a.keyword_vertices.empty()) return kInvalidVertex;
  return *std::min_element(a.keyword_vertices.begin(),
                           a.keyword_vertices.end());
}

/// What a service is serving: which index image (fingerprint), how deep
/// (layers), and which slice of the graph (shard id / count). The
/// coordinator checks these at attach time (protocol INFO verb) so a
/// misconfigured fleet fails fast instead of merging answers from
/// incompatible indexes. num_shards == 0 means monolithic.
struct ServiceIdentity {
  /// Index-image fingerprint (ImageInfo::fingerprint); 0 when the service
  /// is backed by an index built in memory rather than a loaded image.
  uint64_t fingerprint = 0;
  uint32_t num_layers = 0;
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;  // 0 = monolithic

  friend bool operator==(const ServiceIdentity&,
                         const ServiceIdentity&) = default;
};

/// What a service reports about itself: the INFO verb's payload, and what
/// a shard substrate returns per shard. The coordinator verifies these at
/// attach time: shard ids must form an exact cover 0..N-1 of a common
/// num_shards, and layer counts and algorithm sets must agree, so a
/// misassembled fleet fails fast instead of silently merging answers from
/// incompatible indexes.
struct ShardInfo {
  uint64_t epoch = 0;
  uint64_t fingerprint = 0;  // index-image checksum; 0 for built-in-memory
  uint32_t num_layers = 0;
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;  // 0 = the service is a monolithic index
  std::vector<std::string> algorithms;
};

/// Result of applying one edge-update batch through a service (the UPDATE
/// verb). `applied` counts net edge changes, `skipped` the rest of the
/// batch (redundant ops, and — on shard workers — edges owned by another
/// shard), so applied + skipped == batch size at every level; a coordinator
/// sums applied across shards (vertex ownership is disjoint).
struct UpdateOutcome {
  /// How the successor index was produced (worst layer for a monolithic
  /// service, worst shard for a coordinator).
  enum class Mode {
    kNone,         // batch had no net effect; no new index version
    kIncremental,  // every rebuilt layer took the cone re-sign
    kWholesale,    // >= 1 layer re-summarized wholesale
    kRebuild,      // full BigIndex::Build (greedy-config indexes)
  };

  uint64_t applied = 0;
  uint64_t skipped = 0;
  uint64_t layers_rebuilt = 0;
  /// Serving epoch after the apply (unchanged when mode == kNone).
  uint64_t epoch = 0;
  Mode mode = Mode::kNone;
};

/// Wire/logging name of an UpdateOutcome::Mode.
inline const char* UpdateModeName(UpdateOutcome::Mode mode) {
  switch (mode) {
    case UpdateOutcome::Mode::kNone: return "none";
    case UpdateOutcome::Mode::kIncremental: return "incremental";
    case UpdateOutcome::Mode::kWholesale: return "wholesale";
    case UpdateOutcome::Mode::kRebuild: return "rebuild";
  }
  return "unknown";
}

class QueryService {
 public:
  virtual ~QueryService() = default;

  /// Evaluates one query synchronously. Error statuses per the implementing
  /// service's contract (Unavailable on overload/shutdown, DeadlineExceeded,
  /// InvalidArgument, NotFound).
  virtual StatusOr<QueryResult> Query(EngineQuery query) = 0;

  /// Current index epoch (starts at 1).
  virtual uint64_t epoch() const = 0;

  /// Invalidates answer caches; returns the new epoch.
  virtual uint64_t BumpEpoch() = 0;

  /// Service counters snapshot.
  virtual ServiceStats Snapshot() const = 0;

  /// Registered algorithm names, sorted.
  virtual std::vector<std::string> AlgorithmNames() const = 0;

  /// The identity of the index behind this service (see ServiceIdentity).
  virtual ServiceIdentity Identity() const = 0;

  /// Applies an edge-update batch to the served index and publishes the
  /// successor under a new epoch (the UPDATE verb). Non-pure with an
  /// Unimplemented default: most services are read-only unless an embedder
  /// wires a write path (ServingStack, ShardedSearchService over updatable
  /// substrates).
  virtual StatusOr<UpdateOutcome> ApplyUpdate(
      std::span<const GraphUpdate> updates) {
    (void)updates;
    return Status::Unimplemented("service is read-only");
  }

  /// Re-publishes the previous retained index version (the ROLLBACK verb)
  /// and returns the new serving epoch. The backing version store keeps one
  /// generation of history (IndexVersionStore), so a bad update batch can be
  /// undone without a rebuild; a second consecutive rollback fails with
  /// FailedPrecondition. Unimplemented default for read-only services.
  virtual StatusOr<uint64_t> Rollback() {
    return Status::Unimplemented("service retains no previous version");
  }

  /// This shard's boundary region (the BOUNDARY verb). Shard workers over
  /// cut-incident plans return their export; everything else (monolithic
  /// services, ghost-free shards) returns an empty export, which the
  /// coordinator reads as "no completion needed".
  virtual StatusOr<BoundaryExport> Boundary() {
    return BoundaryExport{};
  }
};

/// `service`'s INFO payload: its epoch, identity and algorithm names.
inline ShardInfo InfoOf(const QueryService& service) {
  const ServiceIdentity id = service.Identity();
  return {service.epoch(), id.fingerprint, id.num_layers, id.shard_id,
          id.num_shards, service.AlgorithmNames()};
}

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_QUERY_SERVICE_H_

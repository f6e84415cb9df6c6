// QueryService — the narrow serving interface the protocol front ends
// (LineHandler, TcpServer) and the shard substrate are written against.
//
// Two families implement it:
//   * SearchService — one QueryEngine behind admission control and
//     micro-batching (the monolithic server, and each shard worker).
//   * ShardedSearchService — the scatter-gather coordinator in src/shard/,
//     which fans a query out to N shard substrates and merges top-k.
//
// The interface deliberately excludes SubmitAsync: futures are an
// implementation detail of SearchService's batcher; front ends only need
// the synchronous call (one blocked connection thread per in-flight wire
// request is the TcpServer model).
//
// ShardRemapService is the serving-edge adapter for shard workers: it
// translates answer vertex ids from shard-local to global using the index
// image's remap, so everything downstream — the wire protocol, the
// coordinator's merge — speaks global vertex ids only.

#ifndef BIGINDEX_SERVER_QUERY_SERVICE_H_
#define BIGINDEX_SERVER_QUERY_SERVICE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
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

/// Worker-side boundary state: the export above plus what the serving edge
/// needs to decide which local answers are shard-exact. Computed by
/// ComputeShardBoundary (shard/boundary.h) at build/swap time, installed
/// into the ShardRemapService, and immutable once published.
struct ShardBoundary {
  /// Undirected distance from each LOCAL vertex to the nearest cut
  /// endpoint, capped at radius_cap (kInfDistance beyond). Ghosts and
  /// owned cut endpoints are at distance 0.
  std::vector<uint32_t> dist_to_cut;
  /// Locality radius per registered algorithm name, ascending by name;
  /// 0 = unknown (no filtering, no completion for that algorithm).
  std::vector<std::pair<std::string, uint32_t>> algo_radius;
  BoundaryExport export_data;

  uint32_t RadiusOf(std::string_view algo) const {
    auto it = std::lower_bound(
        algo_radius.begin(), algo_radius.end(), algo,
        [](const auto& e, std::string_view a) { return e.first < a; });
    if (it == algo_radius.end() || it->first != algo) return 0;
    return it->second;
  }
};

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
    kIncremental,  // every rebuilt layer used seeded localized refinement
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
  /// wires a write path (SearchService::set_updater, ShardedSearchService
  /// over updatable substrates).
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

/// Adapter that makes a shard worker speak global vertex ids: forwards every
/// call to the wrapped (shard-local) service and rewrites answer vertices
/// through the shard's local->global remap. The remap is strictly ascending
/// (ExtractShard's order-preserving invariant), so rewritten vertex sets
/// stay sorted. With an empty remap the adapter is a transparent pass-through
/// (monolithic worker).
///
/// On cut-incident shards (ghosts non-empty) the adapter additionally
/// enforces the boundary contract (DESIGN.md §9): once a ShardBoundary is
/// installed, answers anchored within the queried algorithm's locality
/// radius of the cut are dropped from local results — those answers (and
/// only those) are re-derived exactly by the coordinator's completion pass
/// on the assembled boundary region, so the far/near split is a disjoint
/// partition of the monolithic answer set. Ghost-anchored answers are at
/// distance 0 and always fall in the near class.
class ShardRemapService : public QueryService {
 public:
  /// `inner` is borrowed and must outlive the adapter. `ghosts` are the
  /// shard's ghost local ids (ShardExtract::ghosts / ShardImageInfo::ghosts).
  ShardRemapService(QueryService* inner, std::vector<VertexId> global_of,
                    std::vector<VertexId> ghosts = {})
      : inner_(inner), global_of_(std::move(global_of)) {
    is_ghost_.assign(global_of_.size(), false);
    for (VertexId g : ghosts) is_ghost_[g] = true;
    has_ghosts_ = !ghosts.empty();
    // A 1-shard connectivity-closed plan maps every vertex to itself;
    // dropping an identity remap makes Query a pure pass-through instead of
    // rewriting every answer id per request. Ghost-bearing shards keep the
    // remap: ghosts must never pass as owned, identity or not.
    if (!has_ghosts_) {
      bool identity = true;
      for (size_t i = 0; i < global_of_.size(); ++i) {
        if (global_of_[i] != static_cast<VertexId>(i)) {
          identity = false;
          break;
        }
      }
      if (identity) global_of_.clear();
    }
  }

  /// Publishes the boundary state the near-answer filter and the BOUNDARY
  /// verb serve from. Called at startup and on every engine swap (the
  /// boundary is a function of the served graph). Thread-safe.
  void InstallBoundary(std::shared_ptr<const ShardBoundary> boundary) {
    std::lock_guard<std::mutex> lock(boundary_mutex_);
    boundary_ = std::move(boundary);
  }

  StatusOr<QueryResult> Query(EngineQuery query) override {
    const std::string algorithm = query.algorithm;
    StatusOr<QueryResult> result = inner_->Query(std::move(query));
    if (!result.ok() || global_of_.empty()) return result;
    if (auto boundary = CurrentBoundary();
        boundary != nullptr && boundary->export_data.HasCut()) {
      // Near answers (anchor within the algorithm's locality radius of the
      // cut) belong to the coordinator's completion pass; answers with an
      // anchor beyond it are provably shard-exact. Local ids here — the
      // filter runs before the remap.
      uint32_t rho = boundary->RadiusOf(algorithm);
      if (rho > 0) {
        auto& answers = result->answers;
        answers.erase(
            std::remove_if(answers.begin(), answers.end(),
                           [&](const Answer& a) {
                             VertexId anchor = AnchorOf(a);
                             return anchor != kInvalidVertex &&
                                    boundary->dist_to_cut[anchor] <= rho;
                           }),
            answers.end());
      }
    }
    for (Answer& a : result->answers) {
      if (a.root != kInvalidVertex) a.root = global_of_[a.root];
      for (VertexId& v : a.vertices) v = global_of_[v];
      for (VertexId& v : a.keyword_vertices) v = global_of_[v];
    }
    return result;
  }

  StatusOr<BoundaryExport> Boundary() override {
    auto boundary = CurrentBoundary();
    if (boundary == nullptr) return BoundaryExport{};
    return boundary->export_data;
  }

  uint64_t epoch() const override { return inner_->epoch(); }
  uint64_t BumpEpoch() override { return inner_->BumpEpoch(); }
  ServiceStats Snapshot() const override { return inner_->Snapshot(); }
  std::vector<std::string> AlgorithmNames() const override {
    return inner_->AlgorithmNames();
  }
  ServiceIdentity Identity() const override { return inner_->Identity(); }

  /// Translates global endpoints to shard-local ids and forwards only edges
  /// whose BOTH endpoints this shard owns; the rest count as skipped (the
  /// coordinator broadcasts a batch to every shard, and ownership is
  /// disjoint, so exactly one shard applies each intra-shard edge). Ghosts
  /// are present locally but NOT owned: ghost-incident ops are skipped
  /// everywhere — applying one would desync the replica from its owner and
  /// mutate the immutable cut manifest (see DESIGN.md §9 on replanning).
  StatusOr<UpdateOutcome> ApplyUpdate(
      std::span<const GraphUpdate> updates) override {
    if (global_of_.empty()) return inner_->ApplyUpdate(updates);
    std::vector<GraphUpdate> local;
    local.reserve(updates.size());
    uint64_t unowned = 0;
    for (const GraphUpdate& up : updates) {
      VertexId ls, lt;
      if (LocalOf(up.source, &ls) && !is_ghost_[ls] &&
          LocalOf(up.target, &lt) && !is_ghost_[lt]) {
        local.push_back({up.kind, ls, lt});
      } else {
        ++unowned;
      }
    }
    if (local.empty()) {
      UpdateOutcome outcome;
      outcome.skipped = updates.size();
      outcome.epoch = inner_->epoch();
      return outcome;
    }
    StatusOr<UpdateOutcome> outcome = inner_->ApplyUpdate(local);
    if (outcome.ok()) outcome->skipped += unowned;
    return outcome;
  }

  StatusOr<uint64_t> Rollback() override { return inner_->Rollback(); }

 private:
  /// global -> local via binary search: global_of_ is strictly ascending
  /// (ExtractShard's order-preserving invariant).
  bool LocalOf(VertexId global, VertexId* local) const {
    auto it = std::lower_bound(global_of_.begin(), global_of_.end(), global);
    if (it == global_of_.end() || *it != global) return false;
    *local = static_cast<VertexId>(it - global_of_.begin());
    return true;
  }

  std::shared_ptr<const ShardBoundary> CurrentBoundary() const {
    std::lock_guard<std::mutex> lock(boundary_mutex_);
    return boundary_;
  }

  QueryService* inner_;
  std::vector<VertexId> global_of_;
  std::vector<bool> is_ghost_;  // indexed by local id
  bool has_ghosts_ = false;
  mutable std::mutex boundary_mutex_;
  std::shared_ptr<const ShardBoundary> boundary_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_QUERY_SERVICE_H_

// ShardSubstrate — "where a shard lives" as an interface the coordinator is
// generic over (DESIGN.md §9).
//
// A substrate exposes N shards, each serving the BiG-index of one slice of
// the data graph. The coordinator (sharded_service.h) fans every query out
// to all shards through this interface and merges the per-shard top-k; it
// never knows whether a shard is a ServingStack in this process
// (InProcessSubstrate), a bigindex_serverd process on this machine,
// or a remote node across the network (RemoteSubstrate — the transport is
// the line protocol either way).
//
// Contracts every substrate implements:
//   * Answers are in GLOBAL vertex ids. In-process shards translate through
//     the shard's local->global remap (ServingStack); remote shard
//     workers translate server-side, so the wire only ever carries global
//     ids. Keyword label ids need no translation (ExtractShard preserves
//     labels).
//   * Query() is safe to call concurrently, for different shards and for
//     the same shard (the coordinator fans out from concurrent connection
//     threads). Implementations serialize internally where needed.
//   * Per-query failures are returned as statuses, never thrown; an
//     unreachable remote shard surfaces as kUnavailable.

#ifndef BIGINDEX_SHARD_SUBSTRATE_H_
#define BIGINDEX_SHARD_SUBSTRATE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "server/query_service.h"
#include "util/status.h"

namespace bigindex {

class ShardSubstrate {
 public:
  virtual ~ShardSubstrate() = default;

  virtual size_t num_shards() const = 0;

  /// Identity of shard `shard` (attach-time verification, epoch probes).
  virtual StatusOr<ShardInfo> Info(size_t shard) = 0;

  /// Evaluates `query` on shard `shard`. Answers use global vertex ids.
  virtual StatusOr<QueryResult> Query(size_t shard,
                                      const EngineQuery& query) = 0;

  /// Invalidates shard `shard`'s answer cache; returns its new epoch.
  virtual StatusOr<uint64_t> BumpEpoch(size_t shard) = 0;

  /// Applies an edge-update batch (GLOBAL vertex ids) to shard `shard`.
  /// The shard applies the ops whose edges it owns and counts the rest as
  /// skipped, so a coordinator can broadcast one batch to every shard and
  /// sum `applied` (vertex ownership is disjoint). Non-pure with an
  /// Unimplemented default: substrates without a write path stay valid.
  virtual StatusOr<UpdateOutcome> Update(size_t shard,
                                         std::span<const GraphUpdate> updates) {
    (void)shard;
    (void)updates;
    return Status::Unimplemented("substrate is read-only");
  }

  /// Re-publishes shard `shard`'s previous retained index version (the
  /// ROLLBACK verb) and returns its new epoch. Unimplemented default, like
  /// Update.
  virtual StatusOr<uint64_t> Rollback(size_t shard) {
    (void)shard;
    return Status::Unimplemented("substrate retains no previous version");
  }

  /// Shard `shard`'s boundary export (the BOUNDARY verb; DESIGN.md §9).
  /// Ghost-free shards return an empty export. The coordinator assembles
  /// the exports into the region its completion pass evaluates on.
  virtual StatusOr<BoundaryExport> Boundary(size_t shard) {
    (void)shard;
    return BoundaryExport{};
  }
};

}  // namespace bigindex

#endif  // BIGINDEX_SHARD_SUBSTRATE_H_

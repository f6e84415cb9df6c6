// InProcessSubstrate — every shard is a ServingStack (serving_stack.h)
// inside this process: a QueryEngine behind its own admission-controlled
// SearchService (per-shard slot gate), with a live updater, answers leaving in global vertex ids and, on a
// cut-incident shard, the near-cut answer filter. Shard stacks run without
// an answer cache: the coordinator in front of them caches each query's
// merged answer once (sharded_service.h).
//
// This is the single-process deployment of the shard substrate: the full
// scatter-gather pipeline — coordinator fan-out, per-shard admission,
// merge — with zero serialization cost, and the reference implementation
// the RemoteSubstrate differential tests compare against.

#ifndef BIGINDEX_SHARD_IN_PROCESS_SUBSTRATE_H_
#define BIGINDEX_SHARD_IN_PROCESS_SUBSTRATE_H_

#include <functional>
#include <memory>
#include <vector>

#include "engine/query_engine.h"
#include "server/query_service.h"
#include "shard/serving_stack.h"
#include "shard/shard_build.h"
#include "shard/substrate.h"

namespace bigindex {

struct InProcessSubstrateOptions {
  /// Per-shard concurrent evaluations, i.e. the slots of each shard
  /// service's gate (see QueryEngineOptions::num_threads).
  size_t engine_threads = 0;

  /// Optional hook run on each shard's engine after construction, before
  /// serving starts — e.g. to re-register algorithms with non-default
  /// options. Must configure every shard identically, or the merged answer
  /// set loses its equivalence to a monolithic evaluation. Live updates
  /// re-run the hook on each successor engine.
  std::function<void(QueryEngine&)> configure_engine;
};

class InProcessSubstrate : public ShardSubstrate {
 public:
  /// Takes ownership of the built shards (the plan is not needed for
  /// serving). The ontology the indexes borrow must outlive the substrate.
  static StatusOr<std::unique_ptr<InProcessSubstrate>> Create(
      std::vector<BuiltShard> shards, InProcessSubstrateOptions options = {});

  size_t num_shards() const override { return shards_.size(); }
  StatusOr<ShardInfo> Info(size_t shard) override;
  StatusOr<QueryResult> Query(size_t shard,
                              const EngineQuery& query) override;
  StatusOr<uint64_t> BumpEpoch(size_t shard) override;
  StatusOr<UpdateOutcome> Update(size_t shard,
                                 std::span<const GraphUpdate> updates) override;
  StatusOr<uint64_t> Rollback(size_t shard) override;
  StatusOr<BoundaryExport> Boundary(size_t shard) override;

  /// The shard's serving stack (global-id view), e.g. to front one shard of
  /// this substrate with a TcpServer in tests.
  QueryService* shard_service(size_t shard) { return shards_[shard].get(); }

 private:
  InProcessSubstrate() = default;
  Status CheckShard(size_t shard) const;

  std::vector<std::unique_ptr<ServingStack>> shards_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SHARD_IN_PROCESS_SUBSTRATE_H_

#include "shard/in_process_substrate.h"

#include <utility>

namespace bigindex {

StatusOr<std::unique_ptr<InProcessSubstrate>> InProcessSubstrate::Create(
    std::vector<BuiltShard> shards, InProcessSubstrateOptions options) {
  if (shards.empty()) {
    return Status::InvalidArgument("substrate needs at least one shard");
  }
  auto substrate = std::unique_ptr<InProcessSubstrate>(
      new InProcessSubstrate());
  for (size_t s = 0; s < shards.size(); ++s) {
    BuiltShard& built = shards[s];
    if (built.shard.shard_id != s ||
        built.shard.num_shards != shards.size()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " carries identity " +
          std::to_string(built.shard.shard_id) + "/" +
          std::to_string(built.shard.num_shards));
    }
    substrate->shards_.push_back(std::make_unique<ServingStack>(
        std::move(built), /*fingerprint=*/0, SearchServiceOptions{},
        LiveUpdaterOptions{
            .engine = {.num_threads = options.engine_threads},
            .configure_engine = options.configure_engine}));
  }
  return substrate;
}

Status InProcessSubstrate::CheckShard(size_t shard) const {
  if (shard >= shards_.size()) {
    return Status::OutOfRange("shard " + std::to_string(shard) +
                              " out of range (substrate has " +
                              std::to_string(shards_.size()) + ")");
  }
  return Status::OK();
}

StatusOr<ShardInfo> InProcessSubstrate::Info(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  return InfoOf(*shards_[shard]);
}

StatusOr<QueryResult> InProcessSubstrate::Query(size_t shard,
                                                const EngineQuery& query) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  return shards_[shard]->Query(query);
}

StatusOr<uint64_t> InProcessSubstrate::BumpEpoch(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  return shards_[shard]->BumpEpoch();
}

StatusOr<UpdateOutcome> InProcessSubstrate::Update(
    size_t shard, std::span<const GraphUpdate> updates) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  // The stack translates global -> local ids and skips edges this shard
  // does not own.
  return shards_[shard]->ApplyUpdate(updates);
}

StatusOr<uint64_t> InProcessSubstrate::Rollback(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  return shards_[shard]->Rollback();
}

StatusOr<BoundaryExport> InProcessSubstrate::Boundary(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  return shards_[shard]->Boundary();
}

}  // namespace bigindex

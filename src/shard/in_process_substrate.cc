#include "shard/in_process_substrate.h"

#include <utility>

#include "shard/boundary.h"

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
    auto shard = std::make_unique<Shard>();
    uint32_t num_layers =
        static_cast<uint32_t>(built.index.NumLayers());
    // The index is held behind a shared_ptr so the live updater can pin the
    // current generation while it builds a successor (RCU hand-off).
    auto index = std::make_shared<const BigIndex>(std::move(built.index));
    const QueryEngineOptions engine_opts{.num_threads =
                                             options.engine_threads};
    auto engine = std::make_unique<QueryEngine>(index, engine_opts);
    if (options.configure_engine) options.configure_engine(*engine);
    shard->engine = std::shared_ptr<const QueryEngine>(std::move(engine));
    shard->service = std::make_unique<SearchService>(
        shard->engine, SearchServiceOptions{.cache = {.capacity = 0}});
    shard->service->set_identity(ServiceIdentity{
        .fingerprint = 0,
        .num_layers = num_layers,
        .shard_id = built.shard.shard_id,
        .num_shards = built.shard.num_shards,
    });
    // The remap and ghost tables are shared with the engine-swap hook below
    // (the boundary is a function of the served graph, so every swap
    // recomputes it over the same tables).
    auto global_of = std::make_shared<const std::vector<VertexId>>(
        std::move(built.shard.global_of));
    auto ghosts = std::make_shared<const std::vector<VertexId>>(
        std::move(built.shard.ghosts));
    shard->remapped = std::make_unique<ShardRemapService>(
        shard->service.get(), *global_of, *ghosts);
    if (!ghosts->empty()) {
      shard->remapped->InstallBoundary(ComputeShardBoundary(
          shard->engine->index().base(), *global_of, *ghosts,
          AlgorithmRadii(*shard->engine)));
    }
    LiveUpdaterOptions updater_opts;
    updater_opts.engine = engine_opts;
    updater_opts.configure_engine = options.configure_engine;
    shard->updater = std::make_unique<LiveUpdater>(
        std::move(index), shard->engine, std::move(updater_opts));
    SearchService* service = shard->service.get();
    ShardRemapService* remapped = shard->remapped.get();
    shard->updater->set_swap(
        [service, remapped, global_of,
         ghosts](std::shared_ptr<const QueryEngine> engine) {
          // Install the successor's boundary before publishing the
          // engine: post-swap queries must see the matching filter (the
          // brief pre-swap window with the new boundary is invalidated
          // by the epoch bump anyway).
          if (!ghosts->empty()) {
            remapped->InstallBoundary(ComputeShardBoundary(
                engine->index().base(), *global_of, *ghosts,
                AlgorithmRadii(*engine)));
          }
          return service->SwapEngine(std::move(engine));
        });
    LiveUpdater* updater = shard->updater.get();
    service->set_updater([updater](std::span<const GraphUpdate> updates) {
      return updater->Apply(updates);
    });
    service->set_rollbacker([updater] { return updater->Rollback(); });
    substrate->shards_.push_back(std::move(shard));
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
  QueryService& service = *shards_[shard]->remapped;
  ServiceIdentity id = service.Identity();
  ShardInfo info;
  info.epoch = service.epoch();
  info.fingerprint = id.fingerprint;
  info.num_layers = id.num_layers;
  info.shard_id = id.shard_id;
  info.num_shards = id.num_shards;
  info.algorithms = service.AlgorithmNames();
  return info;
}

StatusOr<QueryResult> InProcessSubstrate::Query(size_t shard,
                                                const EngineQuery& query) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  return shards_[shard]->remapped->Query(query);
}

StatusOr<uint64_t> InProcessSubstrate::BumpEpoch(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  return shards_[shard]->remapped->BumpEpoch();
}

StatusOr<UpdateOutcome> InProcessSubstrate::Update(
    size_t shard, std::span<const GraphUpdate> updates) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  // The remapped service translates global -> local ids and skips edges this
  // shard does not own.
  return shards_[shard]->remapped->ApplyUpdate(updates);
}

StatusOr<uint64_t> InProcessSubstrate::Rollback(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  return shards_[shard]->remapped->Rollback();
}

StatusOr<BoundaryExport> InProcessSubstrate::Boundary(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  return shards_[shard]->remapped->Boundary();
}

}  // namespace bigindex

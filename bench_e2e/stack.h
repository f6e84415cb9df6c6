// The serving stacks bench_e2e hosts in its own process, wired the way
// bigindex_serverd ships them (same defaults), plus the bench's decorators
// that time every layer from outside the library:
//
//   monolithic:  TcpServer -> TimedService(front) -> SearchService
//                  -> QueryEngine;  LiveUpdater behind timed hooks
//   sharded:     TcpServer -> TimedService(front) -> ShardedSearchService
//                  -> TimedSubstrate -> RemoteSubstrate -> worker TcpServer
//                  -> TimedService(worker) -> ShardRemapService
//                  -> SearchService -> QueryEngine

#ifndef BENCH_E2E_STACK_H_
#define BENCH_E2E_STACK_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "bigindex.h"
#include "spans.h"

namespace bench_e2e {

/// The algorithms every workload draws from. r-clique is left out: its
/// lazily built neighbour lists dominate every other layer (see README).
inline constexpr std::array<const char*, 3> kAlgorithms = {
    "bkws", "blinks", "bidirectional"};

/// Layer cap of every hosted index (bigindex_serverd's --layers default);
/// queries can force layers 0..kLayers.
inline constexpr size_t kLayers = 4;

/// Index of `name` in kAlgorithms, or kNoAlgorithm.
uint8_t AlgorithmSlot(std::string_view name);

/// QueryService decorator: forwards every call and records a span around
/// Query and ApplyUpdate. With track_results it also remembers every
/// (epoch, cache key, engine wall) triple it has returned, so a span can say
/// whether its result was evaluated or replayed from a cache.
class TimedService : public bigindex::QueryService {
 public:
  TimedService(bigindex::QueryService* inner, SpanKind kind, uint32_t shard,
               bool track_results)
      : inner_(inner), kind_(kind), shard_(shard), track_(track_results) {}

  bigindex::StatusOr<bigindex::QueryResult> Query(
      bigindex::EngineQuery query) override;
  bigindex::StatusOr<bigindex::UpdateOutcome> ApplyUpdate(
      std::span<const bigindex::GraphUpdate> updates) override;

  uint64_t epoch() const override { return inner_->epoch(); }
  uint64_t BumpEpoch() override { return inner_->BumpEpoch(); }
  bigindex::ServiceStats Snapshot() const override {
    return inner_->Snapshot();
  }
  std::vector<std::string> AlgorithmNames() const override {
    return inner_->AlgorithmNames();
  }
  bigindex::ServiceIdentity Identity() const override {
    return inner_->Identity();
  }
  bigindex::StatusOr<uint64_t> Rollback() override {
    return inner_->Rollback();
  }
  bigindex::StatusOr<bigindex::BoundaryExport> Boundary() override {
    return inner_->Boundary();
  }

 private:
  bool FirstSighting(uint64_t triple_hash);

  bigindex::QueryService* inner_;
  SpanKind kind_;
  uint32_t shard_;
  bool track_;
  std::mutex seen_mutex_;
  std::unordered_set<uint64_t> seen_;  // guarded by seen_mutex_
};

/// ShardSubstrate decorator around the coordinator's RemoteSubstrate: times
/// each fan-out call and each boundary fetch.
class TimedSubstrate : public bigindex::ShardSubstrate {
 public:
  explicit TimedSubstrate(bigindex::ShardSubstrate* inner) : inner_(inner) {}

  size_t num_shards() const override { return inner_->num_shards(); }
  bigindex::StatusOr<bigindex::ShardInfo> Info(size_t shard) override {
    return inner_->Info(shard);
  }
  bigindex::StatusOr<bigindex::QueryResult> Query(
      size_t shard, const bigindex::EngineQuery& query) override;
  bigindex::StatusOr<uint64_t> BumpEpoch(size_t shard) override {
    return inner_->BumpEpoch(shard);
  }
  bigindex::StatusOr<bigindex::UpdateOutcome> Update(
      size_t shard, std::span<const bigindex::GraphUpdate> updates) override {
    return inner_->Update(shard, updates);
  }
  bigindex::StatusOr<uint64_t> Rollback(size_t shard) override {
    return inner_->Rollback(shard);
  }
  bigindex::StatusOr<bigindex::BoundaryExport> Boundary(size_t shard) override;

 private:
  bigindex::ShardSubstrate* inner_;
};

/// One hosted serving stack, listening on an ephemeral loopback port.
class Stack {
 public:
  /// Builds the index (or the 2-shard bfs plan, block 128, with workers
  /// behind their own TcpServers and an attached coordinator), starts every
  /// server, and sends one query per (algorithm, layer) for `sample`'s
  /// keywords over the wire so lazily built per-graph indexes exist.
  static bigindex::StatusOr<std::unique_ptr<Stack>> Build(
      const bigindex::Dataset& dataset, bool sharded, bool track_results,
      const std::vector<bigindex::LabelId>& sample);

  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  uint16_t port() const { return server_->port(); }
  bool sharded() const { return coordinator_ != nullptr; }
  size_t num_shards() const { return worker_fronts_.size(); }

  /// Counters of the service the clients talk to.
  bigindex::ServiceStats FrontStats() const { return front_->Snapshot(); }
  /// Counters of the SearchService(s) that evaluate: the monolithic service,
  /// or the workers' services summed.
  bigindex::ServiceStats EvalStats() const;

  /// Vertices the workers export for the coordinator's boundary region (the
  /// BOUNDARY verb, asked over the wire), as a share of the graph's
  /// vertices; 0 for the monolithic stack.
  double BoundaryVertexShare() const;

  /// The monolithic index (null for the sharded stack).
  std::shared_ptr<const bigindex::BigIndex> index() const { return index_; }

 private:
  Stack() = default;
  bigindex::Status StartMono(const bigindex::Dataset& dataset, bool track);
  bigindex::Status StartSharded(const bigindex::Dataset& dataset, bool track);

  // Members are declared in start-up order and destroyed in reverse: every
  // server stops before what it serves is freed, and the updater (whose
  // hooks hold raw pointers to service_) goes before the service.
  std::shared_ptr<const bigindex::BigIndex> index_;
  std::unique_ptr<bigindex::SearchService> service_;
  std::unique_ptr<bigindex::LiveUpdater> updater_;

  // Sharded members.
  std::unique_ptr<bigindex::InProcessSubstrate> workers_;
  std::vector<std::unique_ptr<TimedService>> worker_fronts_;
  std::vector<std::unique_ptr<bigindex::TcpServer>> worker_servers_;
  std::unique_ptr<bigindex::RemoteSubstrate> remote_;
  std::unique_ptr<TimedSubstrate> fanout_;
  std::unique_ptr<bigindex::ShardedSearchService> coordinator_;

  std::unique_ptr<TimedService> front_;
  std::unique_ptr<bigindex::TcpServer> server_;
  size_t graph_vertices_ = 0;
};

}  // namespace bench_e2e

#endif  // BENCH_E2E_STACK_H_

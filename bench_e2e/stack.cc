#include "stack.h"

#include <bit>
#include <cstdint>
#include <functional>
#include <utility>

namespace bench_e2e {

using namespace bigindex;

namespace {

/// Request number on the calling thread. A TcpServer runs one thread per
/// connection and the protocol is lockstep, so on a serving thread this is
/// the request number on its connection.
uint64_t NextThreadSeq() {
  thread_local uint64_t next = 0;
  return next++;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL + 0x9e3779b97f4a7c15ULL;
}

}  // namespace

uint8_t AlgorithmSlot(std::string_view name) {
  for (size_t i = 0; i < kAlgorithms.size(); ++i) {
    if (name == kAlgorithms[i]) return static_cast<uint8_t>(i);
  }
  return kNoAlgorithm;
}

bool TimedService::FirstSighting(uint64_t triple_hash) {
  std::lock_guard<std::mutex> lock(seen_mutex_);
  return seen_.insert(triple_hash).second;
}

StatusOr<QueryResult> TimedService::Query(EngineQuery query) {
  const uint64_t seq = NextThreadSeq();
  const bool record = SpanRecorder::Get().recording();
  if (!record && !track_) return inner_->Query(std::move(query));

  Span span;
  span.kind = kind_;
  span.shard = shard_;
  span.seq = seq;
  span.algorithm = AlgorithmSlot(query.algorithm);
  if (track_) {
    // The service keys its cache on the admission epoch and the normalized
    // query; reading the epoch just before the call matches it except when
    // a swap lands in between.
    EngineQuery normalized = query;
    normalized.NormalizeKeywords();
    span.epoch = inner_->epoch();
    span.key = std::hash<std::string>{}(
        SearchService::CacheKeyFor(span.epoch, normalized));
  }
  span.start_ns = NowNs();
  StatusOr<QueryResult> result = inner_->Query(std::move(query));
  span.end_ns = NowNs();
  span.ok = result.ok();
  if (result.ok()) {
    const EvalBreakdown& b = result->breakdown;
    span.wall_ms = result->wall_ms;
    span.layer = static_cast<uint8_t>(b.layer);
    span.ms[0] = b.explore_ms;
    span.ms[1] = b.specialize_ms;
    span.ms[2] = b.generate_ms;
    span.ms[3] = b.verify_ms;
    span.count[0] = static_cast<uint32_t>(b.generalized_answers);
    span.count[1] = static_cast<uint32_t>(b.pruned_answers);
    span.count[2] = static_cast<uint32_t>(b.candidate_roots);
    span.count[3] = static_cast<uint32_t>(result->answers.size());
    // A cache hit (or an in-batch duplicate) returns a copy of the result
    // it replays, wall_ms included; a fresh evaluation has a new triple.
    if (track_) {
      span.evaluated = FirstSighting(
          Mix(Mix(span.epoch, span.key), std::bit_cast<uint64_t>(span.wall_ms)));
    }
  }
  if (record) SpanRecorder::Get().Record(span);
  return result;
}

StatusOr<UpdateOutcome> TimedService::ApplyUpdate(
    std::span<const GraphUpdate> updates) {
  Span span;
  span.kind = SpanKind::kFrontUpdate;
  span.seq = NextThreadSeq();
  span.start_ns = NowNs();
  StatusOr<UpdateOutcome> outcome = inner_->ApplyUpdate(updates);
  span.end_ns = NowNs();
  span.ok = outcome.ok();
  if (outcome.ok()) span.epoch = outcome->epoch;
  SpanRecorder::Get().Record(span);
  return outcome;
}

StatusOr<QueryResult> TimedSubstrate::Query(size_t shard,
                                            const EngineQuery& query) {
  Span span;
  span.kind = SpanKind::kFanout;
  span.shard = static_cast<uint32_t>(shard);
  span.key = reinterpret_cast<uintptr_t>(&query);
  span.start_ns = NowNs();
  StatusOr<QueryResult> result = inner_->Query(shard, query);
  span.end_ns = NowNs();
  span.ok = result.ok();
  if (result.ok()) span.count[3] = static_cast<uint32_t>(result->answers.size());
  SpanRecorder::Get().Record(span);
  return result;
}

StatusOr<BoundaryExport> TimedSubstrate::Boundary(size_t shard) {
  Span span;
  span.kind = SpanKind::kBoundary;
  span.shard = static_cast<uint32_t>(shard);
  span.start_ns = NowNs();
  StatusOr<BoundaryExport> result = inner_->Boundary(shard);
  span.end_ns = NowNs();
  span.ok = result.ok();
  SpanRecorder::Get().Record(span);
  return result;
}

StatusOr<std::unique_ptr<Stack>> Stack::Build(
    const Dataset& dataset, bool sharded, bool track_results,
    const std::vector<LabelId>& sample) {
  std::unique_ptr<Stack> stack(new Stack());
  stack->graph_vertices_ = dataset.graph.NumVertices();
  Status started = sharded ? stack->StartSharded(dataset, track_results)
                           : stack->StartMono(dataset, track_results);
  if (!started.ok()) return started;

  ProtocolClient client("127.0.0.1", stack->port());
  for (const char* algorithm : kAlgorithms) {
    for (size_t layer = 0; layer <= kLayers; ++layer) {
      EngineQuery q{.keywords = sample,
                    .algorithm = algorithm,
                    .eval = {.forced_layer = static_cast<int>(layer),
                             .top_k = 10}};
      auto lines = client.Request(FormatQueryLine(q));
      if (!lines.ok()) return lines.status();
      if (lines->empty() || !lines->front().starts_with("OK")) {
        return Status::IOError("warm query failed: " +
                                (lines->empty() ? "" : lines->front()));
      }
    }
  }
  return stack;
}

Status Stack::StartMono(const Dataset& dataset, bool track) {
  auto built = BigIndex::Build(dataset.graph, &dataset.ontology.ontology,
                               {.max_layers = kLayers});
  if (!built.ok()) return built.status();
  index_ = std::make_shared<const BigIndex>(std::move(built).value());
  const QueryEngineOptions engine_opts{
      .num_threads = ExecutorPool::kHardwareConcurrency};
  auto engine = std::make_shared<const QueryEngine>(index_, engine_opts);
  service_ = std::make_unique<SearchService>(engine);

  // bigindex_serverd's WireLiveUpdater, with the bench's timing around the
  // two calls it makes into the write path.
  LiveUpdaterOptions updater_opts;
  updater_opts.engine = engine_opts;
  updater_ = std::make_unique<LiveUpdater>(index_, engine, updater_opts);
  SearchService* service = service_.get();
  LiveUpdater* updater = updater_.get();
  updater_->set_swap([service](std::shared_ptr<const QueryEngine> next) {
    Span span;
    span.kind = SpanKind::kSwap;
    span.start_ns = NowNs();
    const uint64_t epoch = service->SwapEngine(std::move(next));
    span.end_ns = NowNs();
    span.epoch = epoch;
    SpanRecorder::Get().Record(span);
    return epoch;
  });
  service_->set_updater([updater](std::span<const GraphUpdate> updates) {
    MaintainReport report;
    Span span;
    span.kind = SpanKind::kApply;
    span.start_ns = NowNs();
    StatusOr<UpdateOutcome> outcome = updater->Apply(updates, &report);
    span.end_ns = NowNs();
    span.ok = outcome.ok();
    for (const MaintainLayerReport& layer : report.layers) {
      span.ms[0] += layer.configure_ms;
      span.ms[1] += layer.generalize_ms;
      span.ms[2] += layer.correspondence_ms;
      span.ms[3] += layer.refine_ms;
      ++span.count[static_cast<size_t>(layer.mode)];
    }
    SpanRecorder::Get().Record(span);
    return outcome;
  });
  service_->set_rollbacker([updater] { return updater->Rollback(); });

  front_ = std::make_unique<TimedService>(service_.get(), SpanKind::kFront, 0,
                                          track);
  server_ = std::make_unique<TcpServer>(front_.get(), dataset.dict.get(),
                                        TcpServerOptions{.port = 0});
  return server_->Start();
}

Status Stack::StartSharded(const Dataset& dataset, bool track) {
  auto built = BuildShardedIndex(
      dataset.graph, &dataset.ontology.ontology,
      {.plan = {.num_shards = 2,
                .mode = ShardMode::kBfsBlocks,
                .bfs_block_size = 128},
       .index = {.max_layers = kLayers}});
  if (!built.ok()) return built.status();
  auto substrate = InProcessSubstrate::Create(
      std::move(built->shards),
      {.engine_threads = ExecutorPool::kHardwareConcurrency});
  if (!substrate.ok()) return substrate.status();
  workers_ = std::move(substrate).value();

  std::vector<ShardEndpoint> endpoints;
  for (size_t s = 0; s < workers_->num_shards(); ++s) {
    worker_fronts_.push_back(std::make_unique<TimedService>(
        workers_->shard_service(s), SpanKind::kWorker,
        static_cast<uint32_t>(s), track));
    worker_servers_.push_back(std::make_unique<TcpServer>(
        worker_fronts_.back().get(), dataset.dict.get(),
        TcpServerOptions{.port = 0}));
    Status started = worker_servers_.back()->Start();
    if (!started.ok()) return started;
    endpoints.push_back({"127.0.0.1", worker_servers_.back()->port()});
  }
  remote_ = std::make_unique<RemoteSubstrate>(std::move(endpoints));
  fanout_ = std::make_unique<TimedSubstrate>(remote_.get());
  // bigindex_serverd --coordinator: fan-out threads = engine threads, the
  // service's cache options for the per-shard caches.
  ShardedServiceOptions copts;
  copts.fanout_threads = ExecutorPool::kHardwareConcurrency;
  coordinator_ = std::make_unique<ShardedSearchService>(fanout_.get(), copts);
  Status attached = coordinator_->Attach();
  if (!attached.ok()) return attached;

  front_ = std::make_unique<TimedService>(coordinator_.get(),
                                          SpanKind::kFront, 0, track);
  server_ = std::make_unique<TcpServer>(front_.get(), dataset.dict.get(),
                                        TcpServerOptions{.port = 0});
  return server_->Start();
}

Stack::~Stack() = default;

double Stack::BoundaryVertexShare() const {
  if (!sharded() || graph_vertices_ == 0) return 0;
  size_t exported = 0;
  for (size_t s = 0; s < remote_->num_shards(); ++s) {
    auto ex = remote_->Boundary(s);
    if (ex.ok()) exported += ex->vertices.size();
  }
  return static_cast<double>(exported) / static_cast<double>(graph_vertices_);
}

ServiceStats Stack::EvalStats() const {
  if (!sharded()) return service_->Snapshot();
  ServiceStats sum;
  for (const auto& worker : worker_fronts_) {
    ServiceStats s = worker->Snapshot();
    sum.completed += s.completed;
    sum.rejected_overload += s.rejected_overload;
    sum.batches += s.batches;
    sum.batched_queries += s.batched_queries;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
    sum.cache_evictions += s.cache_evictions;
  }
  return sum;
}

}  // namespace bench_e2e

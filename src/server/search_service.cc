#include "server/search_service.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace bigindex {

SearchService::SearchService(std::shared_ptr<const QueryEngine> engine,
                             SearchServiceOptions options)
    : engine_(std::move(engine)),
      options_(options),
      cache_(options.cache),
      rejected_overload_("bigindex_server_rejected_overload_total",
                         "Requests shed by the overload policy", {}),
      batches_("bigindex_server_batches_total",
               "Engine evaluations dispatched by the strands", {}),
      batched_queries_("bigindex_server_batched_queries_total",
                       "Unique queries dispatched to engines or shards", {}),
      queue_depth_(MetricsRegistry::Global().GetGauge(
          "bigindex_server_queue_depth",
          "Requests in the admission queue right now")) {
  // Started here, not in the init list: the strands touch counters
  // declared after them.
  const size_t num_strands = engine_->num_slots();
  strands_.reserve(num_strands);
  for (size_t i = 0; i < num_strands; ++i) {
    strands_.emplace_back([this] { StrandLoop(); });
  }
}

SearchService::~SearchService() { Shutdown(); }

std::string SearchService::CacheKeyFor(uint64_t epoch,
                                       const EngineQuery& query) {
  // epoch | algorithm | keywords | semantic eval options. The deadline is
  // deliberately excluded: it bounds *when* the answer arrives, not *what*
  // the answer is.
  std::string key;
  key.reserve(64 + query.algorithm.size() + 8 * query.keywords.size());
  key += std::to_string(epoch);
  key += '|';
  key += query.algorithm;
  key += '|';
  for (LabelId k : query.keywords) {
    key += std::to_string(k);
    key += ',';
  }
  const EvalOptions& e = query.eval;
  key += '|';
  key += std::to_string(e.beta);
  key += '|';
  key += std::to_string(e.forced_layer);
  key += '|';
  key += std::to_string(e.top_k);
  key += '|';
  key += e.exact_verification ? '1' : '0';
  key += e.answer_gen.use_path_based ? '1' : '0';
  key += e.answer_gen.use_specialization_order ? '1' : '0';
  key += '|';
  key += std::to_string(e.answer_gen.max_partial_answers);
  return key;
}

std::future<StatusOr<QueryResult>> SearchService::SubmitAsync(
    EngineQuery query) {
  TRACE_SPAN("server/admit");
  std::promise<StatusOr<QueryResult>> promise;
  std::future<StatusOr<QueryResult>> future = promise.get_future();
  counters_.submitted.Inc();

  Status valid = engine_snapshot()->Validate(query);
  if (!valid.ok()) {
    counters_.rejected_invalid.Inc();
    promise.set_value(std::move(valid));
    return future;
  }
  query.NormalizeKeywords();
  if (options_.default_deadline_ms > 0 && query.eval.deadline.IsNever()) {
    query.eval.deadline = Deadline::After(options_.default_deadline_ms);
  }

  Pending pending;
  pending.query = std::move(query);
  pending.promise = std::move(promise);

  // A dead-on-arrival request is resolved here — it never reaches the
  // engine, so it can never produce (or cost) anything.
  if (pending.query.eval.deadline.Expired()) {
    CompleteDeadline(pending, "before admission");
    return future;
  }

  if (cache_.capacity() > 0) {
    pending.cache_key =
        CacheKeyFor(epoch_.load(std::memory_order_acquire), pending.query);
    std::shared_ptr<const QueryResult> hit = cache_.Lookup(pending.cache_key);
    counters_.CacheLookup(hit != nullptr);
    if (hit != nullptr) {
      CompleteOk(pending, QueryResult(*hit));
      return future;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      pending.promise.set_value(
          Status::Unavailable("search service is shut down"));
      return future;
    }
    if (queue_.size() >= options_.queue_capacity) {
      rejected_overload_.Inc();
      BIGINDEX_LOG_EVERY_N(kWarning, 1024)
          << "admission queue full (" << queue_.size() << "/"
          << options_.queue_capacity << "), shedding load ("
          << rejected_overload_.value()
          << " rejected so far)";
      if (options_.overload_policy == OverloadPolicy::kRejectNewest) {
        pending.promise.set_value(Status::Unavailable(
            "admission queue full (reject-newest overload policy)"));
        return future;
      }
      Pending oldest = std::move(queue_.front());
      queue_.pop_front();
      oldest.promise.set_value(Status::Unavailable(
          "displaced by a newer request (reject-oldest overload policy)"));
    }
    queue_.push_back(std::move(pending));
    queue_depth_.Set(static_cast<int64_t>(queue_.size()));
  }
  work_available_.notify_one();
  return future;
}

StatusOr<QueryResult> SearchService::Query(EngineQuery query) {
  return SubmitAsync(std::move(query)).get();
}

uint64_t SearchService::BumpEpoch() {
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  counters_.EpochChanged();
  return epoch;
}

uint64_t SearchService::SwapEngine(std::shared_ptr<const QueryEngine> engine) {
  {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    engine_ = std::move(engine);
  }
  // Publish-then-bump (see header): the new engine must be visible before
  // any cache entry can carry the new epoch.
  return BumpEpoch();
}

StatusOr<UpdateOutcome> SearchService::ApplyUpdate(
    std::span<const GraphUpdate> updates) {
  TRACE_SPAN("server/update");
  if (!updater_) {
    counters_.updates_rejected.Inc();
    return Status::Unimplemented("service has no update path wired");
  }
  StatusOr<UpdateOutcome> outcome = updater_(updates);
  if (!outcome.ok()) {
    counters_.updates_rejected.Inc();
    return outcome;
  }
  // A no-net-effect batch swaps nothing; report the unchanged epoch.
  if (outcome->epoch == 0) outcome->epoch = epoch();
  counters_.UpdateApplied(
      outcome->applied, outcome->mode >= UpdateOutcome::Mode::kWholesale);
  return outcome;
}

StatusOr<uint64_t> SearchService::Rollback() {
  TRACE_SPAN("server/rollback");
  if (!rollbacker_) {
    return Status::Unimplemented("service has no rollback path wired");
  }
  StatusOr<uint64_t> epoch = rollbacker_();
  if (!epoch.ok()) return epoch;
  counters_.rollbacks.Inc();
  return epoch;
}

std::vector<std::string> SearchService::AlgorithmNames() const {
  // Named pin: the returned string_views point into the engine's registry.
  std::shared_ptr<const QueryEngine> engine = engine_snapshot();
  std::vector<std::string> names;
  for (std::string_view name : engine->AlgorithmNames()) {
    names.emplace_back(name);
  }
  return names;
}

ServiceIdentity SearchService::Identity() const { return identity_; }

void SearchService::CompleteOk(Pending& p, QueryResult result) {
  counters_.Completed(p.queued.ElapsedMillis());
  p.promise.set_value(std::move(result));
}

void SearchService::CompleteDeadline(Pending& p, const char* stage) {
  counters_.deadline_misses.Inc();
  BIGINDEX_LOG_EVERY_N(kWarning, 1024)
      << "deadline miss " << stage << " ("
      << counters_.deadline_misses.value() << " total)";
  p.promise.set_value(Status::DeadlineExceeded(
      std::string("deadline expired ") + stage));
}

void SearchService::StrandLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) break;  // Shutdown() resolves whatever is still queued

    // The front request, plus every queued duplicate of it: one evaluation
    // answers them all.
    std::vector<Pending> group;
    group.push_back(std::move(queue_.front()));
    queue_.pop_front();
    if (!group.front().cache_key.empty()) {
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->cache_key == group.front().cache_key) {
          group.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    queue_depth_.Set(static_cast<int64_t>(queue_.size()));

    lock.unlock();
    EvaluateGroup(std::move(group));
    lock.lock();
  }
}

void SearchService::EvaluateGroup(std::vector<Pending> group) {
  TRACE_SPAN("server/batch");
  // Deadline sweep: anything that expired while queued is resolved without
  // touching the engine.
  std::vector<Pending> live;
  live.reserve(group.size());
  for (Pending& p : group) {
    if (p.query.eval.deadline.Expired()) {
      CompleteDeadline(p, "while queued");
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  // The leader runs with the *loosest* deadline of its group so a tight
  // member can never cancel work a looser member still wants.
  EngineQuery query = live.front().query;
  for (const Pending& p : live) {
    if (p.query.eval.deadline.RemainingMillis() >
        query.eval.deadline.RemainingMillis()) {
      query.eval.deadline = p.query.eval.deadline;
    }
  }
  batches_.Inc();
  batched_queries_.Inc();

  // Pin the engine AFTER dequeue: every member captured its cache-key epoch
  // at admission (before this point), so the snapshot is at least as new as
  // any epoch in the group — the other half of SwapEngine's
  // publish-then-bump ordering. The pin also keeps a concurrently
  // swapped-out engine alive until this evaluation completes (RCU grace
  // period).
  std::shared_ptr<const QueryEngine> engine = engine_snapshot();
  StatusOr<QueryResult> result = engine->Evaluate(query);
  if (!result.ok()) {
    const bool expired =
        result.status().code() == StatusCode::kDeadlineExceeded;
    for (Pending& p : live) {
      if (expired) {
        CompleteDeadline(p, "during evaluation");
      } else {
        // Unreachable after per-request Validate(); resolve, never wedge.
        p.promise.set_value(result.status());
      }
    }
    return;
  }

  if (cache_.capacity() > 0) cache_.Insert(live.front().cache_key, *result);
  for (Pending& p : live) CompleteOk(p, *result);
}

ServiceStats SearchService::Snapshot() const {
  ServiceStats s;
  counters_.Fill(&s, cache_.stats());
  s.rejected_overload = rejected_overload_.value();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.queue_depth = queue_.size();
  }
  s.queue_capacity = options_.queue_capacity;
  s.batches = batches_.value();
  s.batched_queries = batched_queries_.value();
  s.mean_batch_size =
      s.batches ? static_cast<double>(s.batched_queries) / s.batches : 0;
  s.epoch = epoch_.load(std::memory_order_acquire);
  return s;
}

void SearchService::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_available_.notify_all();
    for (std::thread& strand : strands_) strand.join();
    std::deque<Pending> drained;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      drained.swap(queue_);
    }
    for (Pending& p : drained) {
      p.promise.set_value(
          Status::Unavailable("search service shut down before evaluation"));
    }
  });
}

}  // namespace bigindex

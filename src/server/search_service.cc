#include "server/search_service.h"

#include <chrono>
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
      num_slots_(engine_->num_slots()),
      free_slots_(num_slots_),
      rejected_overload_("bigindex_server_rejected_overload_total",
                         "Requests refused because the slot gate's wait "
                         "bound was full",
                         {}),
      evaluations_("bigindex_server_batches_total",
                   "Engine evaluations run behind the slot gate", {}),
      queue_depth_(MetricsRegistry::Global().GetGauge(
          "bigindex_server_queue_depth",
          "Callers waiting for an evaluation slot right now")) {}

/// One evaluation slot of the gate, held from a successful Acquire() until
/// the lease is destroyed.
class SearchService::SlotLease {
 public:
  explicit SlotLease(SearchService& service) : service_(service) {}

  ~SlotLease() {
    if (!held_) return;
    std::lock_guard<std::mutex> lock(service_.gate_mutex_);
    ++service_.free_slots_;
    // Notified under the lock: once Shutdown() sees the last slot come
    // back, the service may be destroyed.
    if (service_.stop_) {
      service_.slot_freed_.notify_all();
    } else if (service_.waiting_ > 0) {
      service_.slot_freed_.notify_one();
    }
  }

  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;

  /// Takes a free slot, or waits for one as the header's contracts say.
  Status Acquire(const Deadline& deadline) {
    SearchService& s = service_;
    std::unique_lock<std::mutex> lock(s.gate_mutex_);
    auto ready = [&] { return s.stop_ || s.free_slots_ > 0; };
    if (!ready()) {
      if (s.waiting_ >= s.options_.queue_capacity) {
        s.rejected_overload_.Inc();
        BIGINDEX_LOG_EVERY_N(kWarning, 1024)
            << "slot gate full (" << s.waiting_ << " waiting), shedding load ("
            << s.rejected_overload_.value() << " rejected so far)";
        return Status::Unavailable("too many requests waiting for a slot");
      }
      s.queue_depth_.Set(static_cast<int64_t>(++s.waiting_));
      while (!ready() && !deadline.Expired()) {
        if (deadline.IsNever()) {
          s.slot_freed_.wait(lock);
        } else {
          s.slot_freed_.wait_for(lock,
                                 std::chrono::duration<double, std::milli>(
                                     deadline.RemainingMillis()));
        }
      }
      s.queue_depth_.Set(static_cast<int64_t>(--s.waiting_));
      if (s.stop_) {
        s.slot_freed_.notify_all();  // Shutdown() counts the waiters out
      } else if (deadline.Expired()) {
        // A slot this waiter was woken for goes to the next one.
        if (s.free_slots_ > 0) s.slot_freed_.notify_one();
        return s.DeadlineMiss("while queued");
      }
    }
    if (s.stop_) return Status::Unavailable("search service is shut down");
    --s.free_slots_;
    held_ = true;
    return Status::OK();
  }

 private:
  SearchService& service_;
  bool held_ = false;
};

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

StatusOr<QueryResult> SearchService::Query(EngineQuery query) {
  Timer admitted;  // admission → completion latency
  std::string cache_key;  // empty when the cache is disabled
  SlotLease slot(*this);
  {
    TRACE_SPAN("server/admit");
    counters_.submitted.Inc();
    Status valid = engine_snapshot()->Validate(query);
    if (!valid.ok()) {
      counters_.rejected_invalid.Inc();
      return valid;
    }
    query.NormalizeKeywords();
    if (options_.default_deadline_ms > 0 && query.eval.deadline.IsNever()) {
      query.eval.deadline = Deadline::After(options_.default_deadline_ms);
    }
    // A dead-on-arrival request never reaches the engine, so it can never
    // produce (or cost) anything.
    if (query.eval.deadline.Expired()) return DeadlineMiss("before admission");

    if (cache_.capacity() > 0) {
      cache_key = CacheKeyFor(epoch_.load(std::memory_order_acquire), query);
      std::shared_ptr<const QueryResult> hit = cache_.Lookup(cache_key);
      counters_.CacheLookup(hit != nullptr);
      if (hit != nullptr) {
        counters_.Completed(admitted.ElapsedMillis());
        return QueryResult(*hit);
      }
    }
    Status gate = slot.Acquire(query.eval.deadline);
    if (!gate.ok()) return gate;
  }
  evaluations_.Inc();

  // Pin the engine AFTER the gate: the cache key's epoch was taken before
  // this point, so the snapshot is at least as new as that epoch — the
  // other half of SwapEngine's publish-then-bump ordering. The pin also
  // keeps a concurrently swapped-out engine alive until this evaluation
  // completes (RCU grace period).
  std::shared_ptr<const QueryEngine> engine = engine_snapshot();
  StatusOr<QueryResult> result = engine->Evaluate(query);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      return DeadlineMiss("during evaluation");
    }
    return result;  // unreachable after Validate()
  }
  if (!cache_key.empty()) cache_.Insert(cache_key, *result);
  counters_.Completed(admitted.ElapsedMillis());
  return result;
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

Status SearchService::DeadlineMiss(const char* stage) {
  counters_.deadline_misses.Inc();
  BIGINDEX_LOG_EVERY_N(kWarning, 1024)
      << "deadline miss " << stage << " ("
      << counters_.deadline_misses.value() << " total)";
  return Status::DeadlineExceeded(std::string("deadline expired ") + stage);
}

ServiceStats SearchService::Snapshot() const {
  ServiceStats s;
  counters_.Fill(&s, cache_.stats());
  s.rejected_overload = rejected_overload_.value();
  {
    std::lock_guard<std::mutex> lock(gate_mutex_);
    s.queue_depth = waiting_;
  }
  s.queue_capacity = options_.queue_capacity;
  s.batches = s.batched_queries = evaluations_.value();
  s.mean_batch_size = s.batches > 0 ? 1 : 0;
  s.epoch = epoch_.load(std::memory_order_acquire);
  return s;
}

void SearchService::Shutdown() {
  std::unique_lock<std::mutex> lock(gate_mutex_);
  stop_ = true;
  slot_freed_.notify_all();
  slot_freed_.wait(
      lock, [this] { return waiting_ == 0 && free_slots_ == num_slots_; });
}

}  // namespace bigindex

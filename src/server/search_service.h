// SearchService — the admission-controlled, work-conserving front of the
// query path. It turns a (re-entrant but call-shaped) QueryEngine into a
// traffic-shaped component:
//
//   client → [validate + normalize + cache probe]          (caller's thread)
//          → bounded admission queue                        (backpressure)
//          → one dispatch strand per engine slot            (strand threads)
//          → QueryEngine::Evaluate on the strand's own thread
//          → answer cache fill + promise completion
//
// Contracts:
//   * Admission never blocks. A full queue resolves the request immediately
//     with Unavailable (kRejectNewest) or displaces the oldest queued
//     request (kRejectOldest) — the configurable overload policy.
//   * Malformed requests (empty keywords, unknown algorithm) are rejected at
//     the door with QueryEngine::Validate()'s status, before consuming queue
//     space.
//   * Deadlines are enforced cooperatively at every stage: an expired
//     request is dropped at admission, at dequeue, or at the evaluator's
//     next candidate-verification checkpoint — and always resolves to
//     DeadlineExceeded with no partial answers.
//   * The answer cache is keyed on (index epoch, algorithm, normalized
//     keywords, semantic eval options). BumpEpoch() invalidates the whole
//     cache in O(1) by making every live key unreachable. Queued requests
//     that share a key are evaluated once, by whichever strand dequeues
//     the first of them.
//
// Dispatch is work-conserving: engine->num_slots() strands (fixed at
// construction; 1 for a serial engine) each take the queue's front request
// the moment they are free and evaluate it alone. A request waits only for
// a free strand — never for more arrivals, and never for another request's
// evaluation.

#ifndef BIGINDEX_SERVER_SEARCH_SERVICE_H_
#define BIGINDEX_SERVER_SEARCH_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "server/answer_cache.h"
#include "server/query_service.h"
#include "server/service_stats.h"
#include "util/status.h"
#include "util/timer.h"

namespace bigindex {

/// What to do with a request that arrives while the admission queue is full.
enum class OverloadPolicy {
  /// Resolve the *arriving* request with Unavailable (classic backpressure;
  /// the default).
  kRejectNewest,
  /// Admit the arriving request and resolve the *oldest queued* request with
  /// Unavailable (freshness-first, for workloads where stale requests lose
  /// value while queued).
  kRejectOldest,
};

struct SearchServiceOptions {
  /// Admission queue bound; arrivals beyond it trigger overload_policy.
  size_t queue_capacity = 1024;

  OverloadPolicy overload_policy = OverloadPolicy::kRejectNewest;

  /// Answer cache sizing. capacity 0 switches the cache off, and with it
  /// the cache key and queued-duplicate dedup (requests lose their
  /// identity).
  AnswerCacheOptions cache;

  /// Deadline applied to requests that arrive without one; 0 = none.
  double default_deadline_ms = 0;
};

class SearchService : public QueryService {
 public:
  /// The engine must have its algorithm registry finalized before serving
  /// starts (Register() is not thread-safe against evaluation).
  SearchService(std::shared_ptr<const QueryEngine> engine,
                SearchServiceOptions options = {});

  /// Shuts down: in-flight evaluations complete, queued requests resolve
  /// with Unavailable.
  ~SearchService() override;

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Submits one request; never blocks. The future resolves with the result,
  /// or with Unavailable (overload / shutdown), DeadlineExceeded,
  /// InvalidArgument, or NotFound per the contracts above. The per-request
  /// deadline rides in query.eval.deadline.
  std::future<StatusOr<QueryResult>> SubmitAsync(EngineQuery query);

  /// Synchronous convenience: SubmitAsync + wait. Do not call from the
  /// service's own strands.
  StatusOr<QueryResult> Query(EngineQuery query) override;

  /// Current index epoch (starts at 1).
  uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Invalidates the entire answer cache (e.g. after the underlying index
  /// is rebuilt or the registry's algorithm options change) and returns the
  /// new epoch. Already-cached hits handed out before the bump are
  /// unaffected.
  uint64_t BumpEpoch() override;

  /// Coherent-enough snapshot of all counters (individual counters are
  /// exact; cross-counter relations may be mid-update).
  ServiceStats Snapshot() const override;

  /// The engine's registered algorithm names, sorted.
  std::vector<std::string> AlgorithmNames() const override;

  /// Identity of the served index; defaults to "monolithic, no image
  /// fingerprint". ServingStack stamps it with set_identity().
  ServiceIdentity Identity() const override;

  /// Not thread-safe against serving: call before traffic starts.
  void set_identity(const ServiceIdentity& identity) { identity_ = identity; }

  /// Wires the write path (a LiveUpdater::Apply in practice). Without one,
  /// ApplyUpdate returns Unimplemented. Not thread-safe against serving:
  /// call before traffic starts.
  using Updater =
      std::function<StatusOr<UpdateOutcome>(std::span<const GraphUpdate>)>;
  void set_updater(Updater updater) { updater_ = std::move(updater); }

  /// Applies one update batch through the wired updater and folds the
  /// outcome into the service counters. The updater itself is expected to
  /// call SwapEngine() once its successor engine is published (the
  /// publish-then-bump ordering documented on SwapEngine).
  StatusOr<UpdateOutcome> ApplyUpdate(
      std::span<const GraphUpdate> updates) override;

  /// Wires the rollback path (LiveUpdater::Rollback in practice; the
  /// embedder's hook must re-install the previous engine via SwapEngine and
  /// return the new epoch). Without one, Rollback returns Unimplemented.
  /// Not thread-safe against serving: call before traffic starts.
  using Rollbacker = std::function<StatusOr<uint64_t>()>;
  void set_rollbacker(Rollbacker rollbacker) {
    rollbacker_ = std::move(rollbacker);
  }

  /// Re-publishes the previous retained index version through the wired
  /// rollbacker and counts the swap (the ROLLBACK verb).
  StatusOr<uint64_t> Rollback() override;

  /// RCU swap: installs `engine` as the serving engine, then bumps the
  /// epoch, and returns the new epoch. The ordering is load-bearing for
  /// cache coherence: the engine is published BEFORE the bump, and readers
  /// pin their engine snapshot AFTER capturing their cache-key epoch — so a
  /// cache entry keyed with epoch E was always computed on the engine of
  /// epoch E or newer. In-flight evaluations keep running against the engine
  /// they pinned; the old engine is destroyed when the last of them drops
  /// its reference.
  uint64_t SwapEngine(std::shared_ptr<const QueryEngine> engine);

  /// Idempotent; also run by the destructor.
  void Shutdown();

  const SearchServiceOptions& options() const { return options_; }

  /// Pins the current serving engine. The snapshot stays valid (and
  /// immutable) for as long as the caller holds it, across any number of
  /// concurrent SwapEngine calls.
  std::shared_ptr<const QueryEngine> engine_snapshot() const {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    return engine_;
  }

  /// The cache key for `query` at `epoch` — the query's semantic identity.
  /// Exposed for tests; keywords must already be normalized.
  static std::string CacheKeyFor(uint64_t epoch, const EngineQuery& query);

 private:
  struct Pending {
    EngineQuery query;      // keywords normalized, deadline resolved
    std::string cache_key;  // empty when the cache is disabled
    Timer queued;           // admission → completion latency
    std::promise<StatusOr<QueryResult>> promise;
  };

  void StrandLoop();
  void EvaluateGroup(std::vector<Pending> group);
  void CompleteOk(Pending& p, QueryResult result);
  void CompleteDeadline(Pending& p, const char* stage);

  mutable std::mutex engine_mutex_;  // guards engine_ (swap vs snapshot)
  std::shared_ptr<const QueryEngine> engine_;
  SearchServiceOptions options_;
  ServiceIdentity identity_;
  Updater updater_;
  Rollbacker rollbacker_;
  AnswerCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  std::once_flag shutdown_once_;
  std::vector<std::thread> strands_;  // started last in the constructor body

  std::atomic<uint64_t> epoch_{1};
  ServiceCounters counters_;
  StatCounter rejected_overload_;
  StatCounter batches_;
  StatCounter batched_queries_;
  Gauge& queue_depth_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_SEARCH_SERVICE_H_

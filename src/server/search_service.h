// SearchService — the admission-controlled front of the query path. It
// turns a (re-entrant but call-shaped) QueryEngine into a traffic-shaped
// component, and does the whole request on the caller's thread:
//
//   client → validate + normalize + default deadline + cache probe
//          → slot gate: wait for one of engine->num_slots() slots
//          → pin the engine, QueryEngine::Evaluate
//          → answer cache fill, release the slot
//
// Contracts:
//   * The gate bounds concurrent evaluations (and so the engine's leased
//     QueryContexts) to num_slots() of the engine passed at construction.
//     A caller that finds every slot taken waits only while fewer than
//     queue_capacity callers are already waiting; otherwise it gets
//     Unavailable at once. The service starts no threads.
//   * Waiters are not served in arrival order: a freed slot goes to
//     whichever caller takes the gate's mutex first, a woken waiter or a
//     new arrival, so a waiter can be overtaken. What bounds a waiter's
//     wait is its deadline.
//   * Malformed requests (empty keywords, unknown algorithm) are rejected at
//     the door with QueryEngine::Validate()'s status, before the gate.
//   * Deadlines are enforced cooperatively at every stage: an expired
//     request is dropped at admission, while it waits for a slot, or at the
//     evaluator's next candidate-verification checkpoint — and always
//     resolves to DeadlineExceeded with no partial answers.
//   * The answer cache is keyed on (index epoch, algorithm, normalized
//     keywords, semantic eval options). BumpEpoch() invalidates the whole
//     cache in O(1) by making every live key unreachable.

#ifndef BIGINDEX_SERVER_SEARCH_SERVICE_H_
#define BIGINDEX_SERVER_SEARCH_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "server/answer_cache.h"
#include "server/query_service.h"
#include "server/service_stats.h"
#include "util/status.h"
#include "util/timer.h"

namespace bigindex {

struct SearchServiceOptions {
  /// Callers allowed to wait for a slot at once; one more gets Unavailable.
  size_t queue_capacity = 1024;

  /// Answer cache sizing. capacity 0 switches the cache off.
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

  /// Runs Shutdown().
  ~SearchService() override;

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Answers one request on the calling thread: the result, or Unavailable
  /// (overload / shutdown), DeadlineExceeded, InvalidArgument, or NotFound
  /// per the contracts above. The per-request deadline rides in
  /// query.eval.deadline.
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

  /// Refuses every later evaluation with Unavailable, wakes the waiters
  /// (they get Unavailable too), and returns once every caller holding or
  /// waiting for a slot has left. Idempotent; also run by the destructor.
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
  class SlotLease;

  /// Counts and logs one request that missed its deadline at `stage`.
  Status DeadlineMiss(const char* stage);

  mutable std::mutex engine_mutex_;  // guards engine_ (swap vs snapshot)
  std::shared_ptr<const QueryEngine> engine_;
  SearchServiceOptions options_;
  ServiceIdentity identity_;
  Updater updater_;
  Rollbacker rollbacker_;
  AnswerCache cache_;

  // The slot gate. slot_freed_ wakes waiters when a slot frees, and
  // Shutdown() when the last caller leaves.
  mutable std::mutex gate_mutex_;
  std::condition_variable slot_freed_;
  const size_t num_slots_;
  size_t free_slots_;
  size_t waiting_ = 0;
  bool stop_ = false;

  std::atomic<uint64_t> epoch_{1};
  ServiceCounters counters_;
  StatCounter rejected_overload_;
  StatCounter evaluations_;
  Gauge& queue_depth_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_SEARCH_SERVICE_H_

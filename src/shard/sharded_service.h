// ShardedSearchService — the scatter-gather coordinator (DESIGN.md §9).
//
// One QueryService over N shards of a ShardSubstrate:
//
//   client → [validate + normalize + deadline]          (caller's thread)
//          → answer-cache probe                         (epoch-keyed)
//          → fan-out to every shard                     (ExecutorPool)
//          → merge: concat + rank + top-k cut (+ boundary completion)
//          → cache fill with the merged answer
//
// Merge semantics: shard vertex sets are disjoint, so per-shard answer sets
// are disjoint and the merged set is their concatenation — no cross-shard
// dedup exists to do. Ranking uses the same deterministic AnswerLess order
// as a monolithic evaluation, then applies the top-k cut. Under the
// connectivity-closed shard mode no answer spans shards, so with top_k=0
// the merged set is *exactly* the monolithic answer set for every algorithm
// at every layer (the differential gate in tests/shard_test.cpp); with a
// top-k cut the merged ranking equals the monolithic ranking whenever
// scores are exact (layer 0, or exact mode's verified scores).
//
// Boundary completion (DESIGN.md §9): under bfs-mode plans the fleet has a
// cut, and workers withhold answers anchored within the algorithm's
// locality radius rho of it (ServingStack's near-answer filter — those
// answers could be wrong or missing locally). The coordinator lazily
// assembles the per-shard BoundaryExports into one region graph, evaluates
// the query on it with its own algorithm instances, and keeps exactly the
// answers anchored within rho of the cut; the region covers every vertex
// and edge within 2*rho, so those answers and scores are exact. Far worker
// answers plus near region answers partition the monolithic answer set, so
// bfs-mode serving is exact too. While a cut exists, fan-out queries are
// rewritten to top_k=0 (a per-shard cut could displace a cut-crossing
// answer) and the caller's top-k is applied after the merge. The region is
// invalidated by BumpEpoch/ApplyUpdate/Rollback — like the answer cache,
// mutate the fleet *through the coordinator*.
//
// The coordinator is the fleet's only answer cache: one epoch-keyed
// AnswerCache holding each query's final merged answer, keyed by
// SearchService::CacheKeyFor(epoch, caller's query). A hit returns before
// region assembly, fan-out and completion. Only complete merges are
// cached, never an allow_partial one. Attach, BumpEpoch, ApplyUpdate and
// Rollback advance the coordinator's epoch whenever the fleet may have
// changed, which makes every cached answer unreachable. Workers behind a
// coordinator run without a cache (InProcessSubstrate builds them that way;
// bigindex_serverd --shard-of refuses --cache). A worker changed behind
// the coordinator's back serves fresh answers to direct clients while the
// coordinator keeps handing out the old generation.
//
// Deadlines ride in EngineQuery::eval.deadline: every shard sees the same
// deadline, expired queries are rejected before fan-out, and one slow shard
// turns into DeadlineExceeded for the whole query (all-or-nothing; there
// are no partial answer sets unless allow_partial opts in).

#ifndef BIGINDEX_SHARD_SHARDED_SERVICE_H_
#define BIGINDEX_SHARD_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/search_algorithm.h"
#include "engine/executor.h"
#include "server/answer_cache.h"
#include "server/query_service.h"
#include "server/service_stats.h"
#include "shard/boundary.h"
#include "shard/substrate.h"

namespace bigindex {

struct ShardedServiceOptions {
  /// Fan-out pool threads. 0 = serial fan-out (still correct, just no
  /// overlap); ExecutorPool::kHardwareConcurrency = one per hardware
  /// thread. The pool is shared by concurrent coordinator queries
  /// (ParallelFor is re-entrant across threads).
  size_t fanout_threads = 0;

  /// The coordinator's answer cache of merged answers; capacity 0 switches
  /// it off.
  AnswerCacheOptions cache;

  /// Deadline applied to queries that arrive without one; 0 = none.
  double default_deadline_ms = 0;

  /// If true, a failed shard (unreachable, overloaded) is skipped and the
  /// merge proceeds over the shards that answered — availability over
  /// exactness, counted in stats. If false (default), any shard failure
  /// fails the query with that shard's status.
  bool allow_partial = false;

  /// Factory for the completion pass's algorithm instances, called once per
  /// fleet algorithm name when the boundary region is (re)assembled. MUST
  /// construct instances configured identically to the workers' (same
  /// options the workers' configure_engine applied), or the near answers
  /// re-derived on the region diverge from what the workers withheld.
  /// Unset = MakeDefaultAlgorithm, the engine's default registrations.
  /// Returning nullptr for a name
  /// fails that algorithm's queries whenever the fleet has a cut.
  std::function<std::unique_ptr<KeywordSearchAlgorithm>(
      const std::string& name)>
      make_algorithm;
};

class ShardedSearchService : public QueryService {
 public:
  /// `substrate` is borrowed and must outlive the service.
  explicit ShardedSearchService(ShardSubstrate* substrate,
                                ShardedServiceOptions options = {});

  /// Fetches every shard's Info and verifies the fleet is coherent: shard
  /// ids form the exact cover 0..N-1 of one num_shards (monolithic workers
  /// are accepted only for N=1) and algorithm sets agree. Layer counts may
  /// differ (a small shard can summarize away in fewer layers); Identity()
  /// reports the deepest. Must succeed before Query()/BumpEpoch();
  /// FailedPrecondition otherwise. Advances the epoch: a re-attach may
  /// follow a fleet rebuild, so no answer cached before it is served.
  Status Attach();

  // QueryService interface. Identity() presents the coordinator as a
  // whole-graph service (shard=0/0): clients are not supposed to care that
  // shards exist behind it.
  StatusOr<QueryResult> Query(EngineQuery query) override;
  uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }
  uint64_t BumpEpoch() override;
  ServiceStats Snapshot() const override;
  std::vector<std::string> AlgorithmNames() const override;
  ServiceIdentity Identity() const override;

  /// Broadcasts the batch to every shard in parallel (each shard applies
  /// only the edges it owns and skips the rest — see ShardSubstrate::Update),
  /// and advances the coordinator's epoch (which retires every cached
  /// answer) when anything changed.
  /// `applied` is summed across shards (vertex ownership is disjoint);
  /// `skipped` = batch size − applied, so the coordinator-level accounting
  /// matches a monolithic server's. Under wcc-mode plans a cross-shard edge
  /// add is owned by no shard and counts as skipped — a documented
  /// limitation (see DESIGN.md §"Live updates").
  ///
  /// On a shard failure the batch may be PARTIALLY applied across the fleet;
  /// the returned status names the failing shard. Re-sending the same batch
  /// is safe: updates are normalized against each shard's current graph, so
  /// already-applied ops become net no-ops on retry.
  StatusOr<UpdateOutcome> ApplyUpdate(
      std::span<const GraphUpdate> updates) override;

  /// Broadcasts ROLLBACK to every shard in parallel, then verifies fleet
  /// coherence: each rolled-back shard must still report the epoch its
  /// rollback returned (a concurrent update racing the broadcast would
  /// leave the fleet serving mixed generations — that surfaces as
  /// FailedPrecondition, and the cache/region are already invalidated so
  /// nothing stale is served either way). Shards that retain no previous
  /// version answer FailedPrecondition and are skipped — a single-shard
  /// update stays reversible fleet-wide; if NO shard rolled back the call
  /// itself returns FailedPrecondition. On success returns the
  /// coordinator's new epoch.
  /// A shard failure mid-broadcast leaves the fleet partially rolled back;
  /// the returned status names the first failing shard and a retry
  /// re-broadcasts (already-rolled-back shards are then skipped as above).
  StatusOr<uint64_t> Rollback() override;

  bool attached() const { return attached_.load(std::memory_order_acquire); }
  size_t num_shards() const { return substrate_->num_shards(); }

 private:
  /// Lazily assembled completion state: the region plus the coordinator's
  /// own algorithm instances (with their locality radii). Immutable once
  /// published; rebuilt after every invalidation.
  struct RegionState {
    BoundaryRegion region;
    std::vector<std::pair<std::string,
                          std::unique_ptr<KeywordSearchAlgorithm>>>
        algos;  // ascending by name

    const KeywordSearchAlgorithm* Find(const std::string& name) const;
  };

  /// Returns the current region state, fetching every shard's boundary and
  /// assembling on first use after an invalidation. Unavailable when a
  /// shard's boundary cannot be fetched.
  StatusOr<std::shared_ptr<const RegionState>> EnsureRegion();
  void InvalidateRegion();

  /// Evaluates `query` on the region and returns the near answers (anchor
  /// within the algorithm's locality radius of the cut), remapped to global
  /// ids — exactly the answers the workers withheld.
  StatusOr<std::vector<Answer>> CompleteAcrossCut(
      const RegionState& state, const EngineQuery& query) const;

  /// Advances the epoch (retiring every cached answer) and restarts the
  /// epoch-age clock; returns the new epoch.
  uint64_t AdvanceEpoch();

  ShardSubstrate* substrate_;
  ShardedServiceOptions options_;
  ExecutorPool pool_;
  AnswerCache cache_;

  std::atomic<bool> attached_{false};
  std::vector<std::string> algorithms_;  // common set, from Attach
  uint32_t num_layers_ = 0;              // deepest shard layer count

  std::atomic<uint64_t> epoch_{1};
  ServiceCounters counters_;
  StatCounter shard_queries_;    // fan-out requests actually sent
  StatCounter shard_failures_;   // failed shard requests
  StatCounter partial_results_;  // merges served with a shard missing

  mutable std::mutex region_mutex_;
  std::shared_ptr<const RegionState> region_;  // null = needs (re)assembly
};

}  // namespace bigindex

#endif  // BIGINDEX_SHARD_SHARDED_SERVICE_H_

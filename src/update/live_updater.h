// LiveUpdater — the writer side of live index maintenance.
//
// One updater owns the write path for one served index: it serializes update
// batches (single writer mutex), runs delta-propagating maintenance
// (update/maintain.h) against the pinned current version, builds a fresh
// QueryEngine over the successor, publishes it in the IndexVersionStore, and
// finally swaps it into the serving layer through the embedder-supplied swap
// callback (SearchService::SwapEngine in practice).
//
// Cache-race-freedom contract (satellite of the RCU design; tested in
// tests/server_update_test.cpp):
//
//   writer: Publish(successor)  →  swap_ = { publish engine, BumpEpoch }
//   reader: drain batch (capturing the epoch each query was admitted under)
//           →  pin engine snapshot  →  evaluate  →  cache under captured key
//
// Because the engine is published BEFORE the epoch bump, and readers pin the
// engine AFTER capturing their cache key, a cache entry keyed with epoch E
// was always computed on the engine of epoch E **or newer** — a post-swap
// query can never be answered from a pre-swap cached result.
//
// Layering: this header depends on server/query_service.h only for the
// UpdateOutcome wire struct; the serving layer itself depends on the updater
// solely through std::function (SearchService::set_updater), so there is no
// include cycle.

#ifndef BIGINDEX_UPDATE_LIVE_UPDATER_H_
#define BIGINDEX_UPDATE_LIVE_UPDATER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <span>

#include "core/big_index.h"
#include "engine/query_engine.h"
#include "server/query_service.h"
#include "update/delta.h"
#include "update/maintain.h"
#include "update/version_store.h"
#include "util/status.h"

namespace bigindex {

struct LiveUpdaterOptions {
  /// Options for each successor QueryEngine (slot count, default
  /// algorithm registration).
  QueryEngineOptions engine;

  /// Optional hook run on every freshly built engine before it is published
  /// (e.g. Register() algorithms with non-default options so successors
  /// serve the same algorithm set as the bootstrap engine).
  std::function<void(QueryEngine&)> configure_engine;
};

class LiveUpdater {
 public:
  /// Called with the successor engine right after Publish; must install it
  /// in the serving layer and return the new serving epoch
  /// (SearchService::SwapEngine has exactly this shape).
  using SwapFn = std::function<uint64_t(std::shared_ptr<const QueryEngine>)>;

  /// Seeds the store with generation 1. `initial_engine` may be null, in
  /// which case an engine is built here from `options.engine`.
  LiveUpdater(std::shared_ptr<const BigIndex> initial,
              std::shared_ptr<const QueryEngine> initial_engine,
              LiveUpdaterOptions options = {});

  /// Installs the serving-layer swap hook. Not thread-safe against
  /// concurrent Apply — wire before serving writes.
  void set_swap(SwapFn swap) { swap_ = std::move(swap); }

  /// Applies one batch: maintain → build engine → Publish → swap. Returns
  /// the outcome (applied/skipped accounting per UpdateOutcome's contract).
  /// On a no-net-effect batch nothing is published or swapped and
  /// outcome.epoch is 0 — the serving layer substitutes its current epoch.
  /// Thread-safe: concurrent callers serialize on the writer mutex.
  StatusOr<UpdateOutcome> Apply(std::span<const GraphUpdate> updates,
                                MaintainReport* report = nullptr);

  /// Re-publishes the previous generation and swaps it into serving.
  /// Returns the new serving epoch (or the new sequence when no swap hook
  /// is installed). FailedPrecondition when nothing is retained.
  StatusOr<uint64_t> Rollback();

  const IndexVersionStore& versions() const { return versions_; }

 private:
  std::shared_ptr<const QueryEngine> BuildEngine(
      std::shared_ptr<const BigIndex> index) const;

  std::mutex write_mutex_;
  IndexVersionStore versions_;
  LiveUpdaterOptions options_;
  SwapFn swap_;
};

}  // namespace bigindex

#endif  // BIGINDEX_UPDATE_LIVE_UPDATER_H_

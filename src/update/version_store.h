// IndexVersionStore — RCU-style epoch-versioned publication of index
// generations.
//
// Live maintenance (update/maintain.h) produces a *successor* index; it never
// mutates the one being served. The store makes that hand-off safe without a
// reader-side lock beyond one mutex-guarded shared_ptr copy:
//
//   * Readers call Current() once per request/batch and keep the returned
//     IndexVersion pinned for as long as the evaluation runs. A published
//     version is immutable, so an in-flight query completes against a fully
//     consistent index even if ten newer generations are published meanwhile.
//   * Writers build the successor off to the side (MaintainIndex + a fresh
//     QueryEngine over the new index) and Publish() it: one shared_ptr store
//     under the mutex. The previous generation is retained — Rollback()
//     re-publishes it, which is the operational escape hatch after a bad
//     batch (see OPERATIONS.md).
//
// Reclamation is shared_ptr reference counting: a superseded version is
// destroyed when the store drops its `previous_` slot AND the last in-flight
// reader releases its pin — the grace period of classic RCU, without a
// quiescent-state protocol.
//
// The store's `sequence` is a private generation counter; the *serving* epoch
// (the answer-cache key) is owned by the QueryService and bumped by the
// embedder right after Publish (see update/live_updater.h for the ordering
// that makes the cache race-free).

#ifndef BIGINDEX_UPDATE_VERSION_STORE_H_
#define BIGINDEX_UPDATE_VERSION_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "core/big_index.h"
#include "engine/query_engine.h"
#include "util/status.h"

namespace bigindex {

/// One published index generation. Immutable once published: readers pin it
/// with a shared_ptr snapshot and use it lock-free for the rest of their
/// evaluation.
struct IndexVersion {
  /// Monotone generation number, 1 for the first Publish.
  uint64_t sequence = 0;
  std::shared_ptr<const BigIndex> index;
  std::shared_ptr<const QueryEngine> engine;
};

class IndexVersionStore {
 public:
  /// Publishes a new current version and retains the old one for Rollback.
  /// Returns the new sequence number. `engine` must be built over `index`
  /// (not checked — the engine shares the index's shared_ptr in practice).
  uint64_t Publish(std::shared_ptr<const BigIndex> index,
                   std::shared_ptr<const QueryEngine> engine);

  /// The current version, or nullptr before the first Publish.
  std::shared_ptr<const IndexVersion> Current() const;

  /// The version superseded by the most recent Publish, or nullptr when
  /// fewer than two generations exist (also after a Rollback: rolling back
  /// consumes the retained slot so it cannot ping-pong).
  std::shared_ptr<const IndexVersion> Previous() const;

  /// Re-publishes the previous version under a NEW sequence number (history
  /// moves forward; readers pinned to the bad version are unaffected).
  /// FailedPrecondition when no previous version is retained.
  StatusOr<uint64_t> Rollback();

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const IndexVersion> current_;
  std::shared_ptr<const IndexVersion> previous_;
  uint64_t next_sequence_ = 1;
};

}  // namespace bigindex

#endif  // BIGINDEX_UPDATE_VERSION_STORE_H_

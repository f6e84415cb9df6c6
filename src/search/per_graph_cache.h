// Address-reuse-safe cache of per-graph derived structures.
//
// RCliqueAlgorithm builds an auxiliary index per graph (neighbor lists) and
// caches it so one algorithm object can serve many queries. Keying such a
// cache by `const Graph*` is a lifetime trap: graphs are values, and after
// one dies the allocator may hand its address to an unrelated graph,
// silently resurrecting a stale entry (the CsrDifferential suite hits
// exactly this by evaluating hundreds of short-lived graphs through one
// algorithm object).
//
// PerGraphCache instead keys on the graph's out-offsets array — stable under
// Graph moves/copies, distinct per layer even when layers share one storage
// arena — and validates each hit against a weak_ptr of the graph's storage
// handle. A recycled address therefore misses (the old storage is dead or a
// different owner) and the entry is rebuilt.

#ifndef BIGINDEX_SEARCH_PER_GRAPH_CACHE_H_
#define BIGINDEX_SEARCH_PER_GRAPH_CACHE_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "graph/graph.h"

namespace bigindex {

template <typename T>
class PerGraphCache {
 public:
  /// Returns the cached structure for `g`, building it with `build` on a
  /// miss (or a stale hit). `build` returns std::unique_ptr<T>; nullptr
  /// means "infeasible" and is returned without being cached, so a later
  /// call may retry. Thread-safe; the returned pointer stays valid while
  /// `g`'s storage is alive and this cache is not cleared.
  ///
  /// `build` runs without the cache mutex held, so a slow build never stalls
  /// lookups of other, already-cached graphs. Concurrent misses on one graph
  /// may each build; the first to insert wins, the others' copies are
  /// dropped, and every caller gets the winner.
  template <typename BuildFn>
  const T* GetOrBuild(const Graph& g, BuildFn&& build) {
    const void* key = g.OutOffsets().data();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (const T* hit = FindLocked(key, g)) return hit;
    }
    std::unique_ptr<T> value = build();
    if (value == nullptr) return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    if (const T* hit = FindLocked(key, g)) return hit;
    if (map_.size() >= kPruneThreshold) Prune();
    Entry& e = map_[key];
    e.storage = g.storage();
    e.value = std::move(value);
    return e.value.get();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
  }

 private:
  struct Entry {
    std::weak_ptr<const void> storage;
    std::unique_ptr<T> value;
  };

  // Entries whose graphs died are garbage; sweep them before growing past a
  // handful (real deployments cache one index's worth of layers).
  static constexpr size_t kPruneThreshold = 64;

  const T* FindLocked(const void* key, const Graph& g) const {
    auto it = map_.find(key);
    if (it == map_.end() || !SameOwner(it->second.storage, g.storage())) {
      return nullptr;
    }
    return it->second.value.get();
  }

  static bool SameOwner(const std::weak_ptr<const void>& a,
                        const StorageHandle& b) {
    return !a.owner_before(b) && !b.owner_before(a);
  }

  void Prune() {
    const std::weak_ptr<const void> null_owner;
    for (auto it = map_.begin(); it != map_.end();) {
      // expired() is also true for a null storage handle (default-constructed
      // Graph, no control block); those entries stay valid forever, so only
      // drop expired entries that had a real owner.
      const auto& s = it->second.storage;
      bool is_null = !s.owner_before(null_owner) && !null_owner.owner_before(s);
      if (s.expired() && !is_null) {
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::mutex mutex_;
  std::unordered_map<const void*, Entry> map_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SEARCH_PER_GRAPH_CACHE_H_

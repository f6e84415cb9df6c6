// Sharded LRU answer cache for the serving layer.
//
// Entries map a fully-qualified query identity — the cache *key* string the
// SearchService builds from (index epoch, algorithm name, normalized
// keywords, semantic EvalOptions fields) — to an immutable, shared
// QueryResult. Because the epoch is part of the key, invalidation is O(1):
// bumping the epoch makes every live entry unreachable and the LRU sweep
// reclaims the dead generation as new traffic fills the cache.
//
// Concurrency: the key space is split across `shards` independent LRU maps,
// each behind its own mutex, so concurrent clients on different shards never
// contend. Values are shared_ptr<const QueryResult>; a hit hands back a
// reference without copying the answer vectors.

#ifndef BIGINDEX_SERVER_ANSWER_CACHE_H_
#define BIGINDEX_SERVER_ANSWER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/query_engine.h"

namespace bigindex {

struct AnswerCacheOptions {
  /// Total entries across all shards; 0 disables the cache (every Lookup
  /// misses, Insert is a no-op).
  size_t capacity = 4096;

  /// Independent LRU shards (clamped to >= 1). More shards = less lock
  /// contention; each holds capacity/shards entries.
  size_t shards = 8;
};

/// Monotonic counters (since construction) plus the current entry count.
struct AnswerCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

class AnswerCache {
 public:
  explicit AnswerCache(AnswerCacheOptions options = {});

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// The cached result for `key`, refreshed to most-recently-used, or
  /// nullptr on a miss. Counted either way.
  std::shared_ptr<const QueryResult> Lookup(const std::string& key);

  /// Caches `result` under `key`, evicting the shard's least-recently-used
  /// entry when it is full. Re-inserting an existing key refreshes its value
  /// and recency.
  void Insert(const std::string& key, QueryResult result);

  AnswerCacheStats stats() const;

  size_t capacity() const { return capacity_; }

 private:
  struct Shard {
    std::mutex mutex;
    /// Front = most recently used. The list owns the key string; the map
    /// indexes into the list.
    std::list<std::pair<std::string, std::shared_ptr<const QueryResult>>> lru;
    std::unordered_map<std::string,
                       decltype(lru)::iterator> index;
  };

  Shard& ShardFor(const std::string& key);

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<size_t> entries_{0};
};

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_ANSWER_CACHE_H_

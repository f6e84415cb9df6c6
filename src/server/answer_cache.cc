#include "server/answer_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace bigindex {

AnswerCache::AnswerCache(AnswerCacheOptions options)
    : capacity_(options.capacity) {
  size_t num_shards = std::max<size_t>(1, options.shards);
  // A shard below one entry of capacity could never cache anything; keep
  // shards useful even for tiny test capacities.
  if (capacity_ > 0) num_shards = std::min(num_shards, capacity_);
  per_shard_capacity_ = capacity_ == 0 ? 0 : (capacity_ + num_shards - 1) /
                                                 num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

AnswerCache::Shard& AnswerCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const QueryResult> AnswerCache::Lookup(
    const std::string& key) {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void AnswerCache::Insert(const std::string& key, QueryResult result) {
  if (capacity_ == 0) return;
  auto value = std::make_shared<const QueryResult>(std::move(result));
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index.emplace(key, shard.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

AnswerCacheStats AnswerCache::stats() const {
  AnswerCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bigindex

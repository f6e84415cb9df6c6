#include "server/service_stats.h"

#include <cstdio>

#include "server/answer_cache.h"

namespace bigindex {

std::string ServiceStats::ToString() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "submitted=%llu rejected_invalid=%llu rejected_overload=%llu "
      "queue_depth=%zu/%zu completed=%llu deadline_misses=%llu "
      "batches=%llu mean_batch=%.2f cache_hits=%llu cache_misses=%llu "
      "cache_evictions=%llu cache_entries=%zu hit_ratio=%.3f "
      "p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f qps=%.1f uptime_s=%.1f epoch=%llu"
      " epoch_age_s=%.1f updates_applied=%llu updates_rejected=%llu"
      " update_fallbacks=%llu rollbacks=%llu shard_failures=%llu"
      " partial=%llu",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(rejected_invalid),
      static_cast<unsigned long long>(rejected_overload), queue_depth,
      queue_capacity, static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(deadline_misses),
      static_cast<unsigned long long>(batches), mean_batch_size,
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(cache_evictions), cache_entries,
      cache_hit_ratio, p50_ms, p95_ms, p99_ms, throughput_qps, uptime_s,
      static_cast<unsigned long long>(epoch), epoch_age_s,
      static_cast<unsigned long long>(updates_applied),
      static_cast<unsigned long long>(updates_rejected),
      static_cast<unsigned long long>(update_fallbacks),
      static_cast<unsigned long long>(rollbacks),
      static_cast<unsigned long long>(shard_failures),
      static_cast<unsigned long long>(partial_results));
  return buf;
}

ServiceCounters::ServiceCounters(std::string_view labels)
    : submitted("bigindex_server_requests_total",
                "Requests submitted to the service", labels),
      rejected_invalid("bigindex_server_rejected_invalid_total",
                       "Requests rejected by admission validation", labels),
      deadline_misses("bigindex_server_deadline_misses_total",
                      "Requests expired before or during evaluation", labels),
      updates_rejected("bigindex_server_updates_rejected_total",
                       "Update batches rejected (no updater or error)",
                       labels),
      rollbacks("bigindex_server_rollbacks_total",
                "Index versions rolled back through the ROLLBACK path",
                labels),
      completed_("bigindex_server_completed_total",
                 "Requests answered OK (cache hits included)", labels),
      updates_applied_("bigindex_server_updates_applied_total",
                       "Net edge changes applied through the UPDATE path",
                       labels),
      update_fallbacks_("bigindex_server_update_fallbacks_total",
                        "Update batches that fell back to wholesale or "
                        "full rebuild",
                        labels),
      cache_hits_(MetricsRegistry::Global().GetCounter(
          "bigindex_server_cache_hits_total", "Answer-cache hits at admission",
          labels)),
      cache_misses_(MetricsRegistry::Global().GetCounter(
          "bigindex_server_cache_misses_total",
          "Answer-cache misses at admission", labels)),
      request_ms_(MetricsRegistry::Global().GetHistogram(
          "bigindex_server_request_ms", "Admission-to-completion latency, ms",
          labels)) {}

void ServiceCounters::Fill(ServiceStats* s,
                           const AnswerCacheStats& cache) const {
  s->submitted = submitted.value();
  s->rejected_invalid = rejected_invalid.value();
  s->completed = completed_.value();
  s->deadline_misses = deadline_misses.value();
  s->cache_hits = cache.hits;
  s->cache_misses = cache.misses;
  s->cache_evictions = cache.evictions;
  s->cache_entries = cache.entries;
  s->cache_hit_ratio = (cache.hits + cache.misses)
                           ? static_cast<double>(cache.hits) /
                                 static_cast<double>(cache.hits + cache.misses)
                           : 0;
  s->p50_ms = latency_.Quantile(0.50);
  s->p95_ms = latency_.Quantile(0.95);
  s->p99_ms = latency_.Quantile(0.99);
  s->uptime_s = uptime_.ElapsedSeconds();
  s->throughput_qps =
      s->uptime_s > 0 ? static_cast<double>(s->completed) / s->uptime_s : 0;
  s->updates_applied = updates_applied_.value();
  s->updates_rejected = updates_rejected.value();
  s->update_fallbacks = update_fallbacks_.value();
  s->rollbacks = rollbacks.value();
  s->epoch_age_s =
      s->uptime_s - epoch_changed_at_s_.load(std::memory_order_relaxed);
  if (s->epoch_age_s < 0) s->epoch_age_s = 0;  // clock reads raced; clamp
}

}  // namespace bigindex

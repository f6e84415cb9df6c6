// Serving-layer observability: the ServiceStats snapshot the daemon's
// `stats` command and the load generator report, and the one counting path
// both QueryService fronts (SearchService, ShardedSearchService) record
// through.
//
// The latency histogram this file used to define now lives in
// obs/metrics.h as the general-purpose log-bucketed Histogram (same
// buckets: geometric bounds from 1 µs up at ~25% resolution, one relaxed
// atomic increment per record). LatencyHistogram remains as the
// serving-layer's name for a histogram of milliseconds.

#ifndef BIGINDEX_SERVER_SERVICE_STATS_H_
#define BIGINDEX_SERVER_SERVICE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "util/timer.h"

namespace bigindex {

/// Histogram of request latencies in milliseconds (see obs/metrics.h).
using LatencyHistogram = Histogram;

struct AnswerCacheStats;

/// One coherent snapshot of the service's counters. All counts are
/// cumulative since service construction.
struct ServiceStats {
  // Admission.
  uint64_t submitted = 0;          // Query calls
  uint64_t rejected_invalid = 0;   // failed Validate() at the door
  uint64_t rejected_overload = 0;  // refused: slot gate's wait bound full
  size_t queue_depth = 0;          // waiting for a slot right now
  size_t queue_capacity = 0;       // the wait bound

  // Completion.
  uint64_t completed = 0;          // answered OK (cache hits included)
  uint64_t deadline_misses = 0;    // expired before or during evaluation
  uint64_t batches = 0;            // engine evaluations run
  uint64_t batched_queries = 0;    // = batches
  double mean_batch_size = 0;      // batched_queries / batches (1 or 0)

  // Answer cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_entries = 0;
  double cache_hit_ratio = 0;      // hits / (hits + misses)

  // Latency of completed requests, admission to completion.
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;

  double uptime_s = 0;
  double throughput_qps = 0;       // completed / uptime
  uint64_t epoch = 0;              // current cache epoch

  // Live updates (UPDATE verb; zero on read-only services).
  uint64_t updates_applied = 0;    // net edge changes applied
  uint64_t updates_rejected = 0;   // batches rejected (no updater / error)
  uint64_t update_fallbacks = 0;   // batches served wholesale / full rebuild
  uint64_t rollbacks = 0;          // versions rolled back (ROLLBACK verb)
  double epoch_age_s = 0;          // seconds since the last epoch bump

  // Scatter-gather coordination (zero on non-sharded services). The
  // coordinator also repurposes batches/batched_queries as fan-out waves /
  // shard requests actually sent.
  uint64_t shard_failures = 0;     // failed per-shard requests
  uint64_t partial_results = 0;    // merges served with a shard missing

  /// One key=value line per field, for the daemon's `stats` command and
  /// human logs.
  std::string ToString() const;
};

/// One counted service event: the instance's own count (what Snapshot()
/// reports) plus the process registry series it feeds (what METRICS and
/// the Prometheus endpoint render, summed over every service with the same
/// labels). The series is resolved once at construction, so Inc() is two
/// relaxed atomic adds — no lock, no allocation.
class StatCounter {
 public:
  StatCounter(std::string_view name, std::string_view help,
              std::string_view labels)
      : series_(MetricsRegistry::Global().GetCounter(name, help, labels)) {}

  void Inc(uint64_t n = 1) {
    own_.Inc(n);
    series_.Inc(n);
  }
  uint64_t value() const { return own_.value(); }

 private:
  Counter own_;
  Counter& series_;
};

/// The counters every QueryService front keeps the same way: admission,
/// completion latency, deadlines, cache lookups, the update and rollback
/// paths, and the epoch-age clock. `labels` selects the registry series of
/// the bigindex_server_* families: empty for a SearchService,
/// `role="coordinator"` for the scatter-gather coordinator.
class ServiceCounters {
 public:
  explicit ServiceCounters(std::string_view labels = {});

  StatCounter submitted;
  StatCounter rejected_invalid;
  StatCounter deadline_misses;
  StatCounter updates_rejected;
  StatCounter rollbacks;

  /// One request answered OK after `ms` from admission.
  void Completed(double ms) {
    completed_.Inc();
    latency_.Record(ms);
    request_ms_.Record(ms);
  }

  /// One answer-cache probe. The cache keeps the per-instance hit/miss
  /// counts itself (AnswerCacheStats); this feeds the registry series.
  void CacheLookup(bool hit) { (hit ? cache_hits_ : cache_misses_).Inc(); }

  /// One update batch that reached the index: `applied` net edge changes,
  /// `fallback` when it was served wholesale or by a full rebuild.
  void UpdateApplied(uint64_t applied, bool fallback) {
    updates_applied_.Inc(applied);
    if (fallback) update_fallbacks_.Inc();
  }

  /// Restarts the epoch-age clock (call on every epoch advance).
  void EpochChanged() {
    epoch_changed_at_s_.store(uptime_.ElapsedSeconds(),
                              std::memory_order_relaxed);
  }

  /// Fills the fields both services share: admission, completion, latency
  /// quantiles, uptime and throughput, cache (from `cache`), the update
  /// counters and the epoch age. Service-specific fields are left as is.
  void Fill(ServiceStats* s, const AnswerCacheStats& cache) const;

 private:
  StatCounter completed_;
  StatCounter updates_applied_;
  StatCounter update_fallbacks_;
  Counter& cache_hits_;
  Counter& cache_misses_;
  Histogram& request_ms_;
  LatencyHistogram latency_;
  Timer uptime_;
  /// Uptime-relative seconds of the last epoch advance (0 = construction),
  /// so epoch age is two atomic reads instead of a racy shared Timer.
  std::atomic<double> epoch_changed_at_s_{0};
};

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_SERVICE_STATS_H_

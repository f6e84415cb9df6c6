// Serving-layer load generator: drives an in-process SearchService with
// closed-loop clients (each waits for its answer before sending the next)
// and an overload burst (more concurrent callers than slots and waiters),
// reporting throughput, tail latency, cache ratios, and the
// overload/deadline counters.
//
// Comparisons reported (ISSUE 3 acceptance):
//   1. answer cache ON vs OFF on a repeated-query workload — the cache
//      should win by >= 2x;
//   2. a burst from 32 callers against one slot, a wait bound of 2 and
//      tight deadlines — demonstrates backpressure (rejections and
//      deadline misses, no hangs, no partial answers);
//   3. mixed read/update serving: 95% reads / 5% single-edge
//      updates through the full LiveUpdater + RCU epoch-swap path — read
//      tail latency must stay bounded while writers churn epochs, and
//      every read completes against a consistent engine snapshot.
//
// `bench_server --smoke` shrinks every phase for CI (tools/ci.sh runs it on
// every pass).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

namespace {

struct LoadReport {
  double qps = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  ServiceStats stats;
};

/// `clients` closed-loop threads hammer the service for `seconds`, each
/// cycling through `queries` from its own offset.
LoadReport RunClosedLoop(SearchService& service,
                         const std::vector<EngineQuery>& queries,
                         size_t clients, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok{0}, errors{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t i = c * 3;  // de-phase the clients
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = service.Query(queries[i++ % queries.size()]);
        if (r.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Timer t;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& th : threads) th.join();
  LoadReport report;
  report.ok = ok.load();
  report.errors = errors.load();
  report.qps = report.ok / t.ElapsedSeconds();
  report.stats = service.Snapshot();
  return report;
}

/// Destructive percentile over raw latency samples (sorts in place).
double Pct(std::vector<double>& ms, double p) {
  if (ms.empty()) return 0;
  std::sort(ms.begin(), ms.end());
  return ms[static_cast<size_t>(p * (ms.size() - 1))];
}

void PrintReport(const char* name, const LoadReport& r) {
  std::printf("%-22s %10.1f q/s  ok=%-8llu err=%-6llu p50=%.3fms "
              "p95=%.3fms p99=%.3fms hit=%.2f mean_batch=%.1f\n",
              name, r.qps, static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.errors), r.stats.p50_ms,
              r.stats.p95_ms, r.stats.p99_ms, r.stats.cache_hit_ratio,
              r.stats.mean_batch_size);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double duration = smoke ? 0.25 : 2.0;
  // More clients than slots, so callers always wait at the slot gate and
  // every slot stays busy.
  const size_t clients = 32;

  PrintHeader("SearchService load generator",
              "serving layer (no paper figure; ISSUE 3 acceptance)");
  double scale = BenchScale();
  BenchInstance inst = MakeInstance("yago3", scale, /*max_layers=*/4);
  auto index =
      std::make_shared<const BigIndex>(std::move(inst.index).value());
  auto engine = std::make_shared<const QueryEngine>(
      index, QueryEngineOptions{.num_threads = 8});

  // Repeated-query workload: a bounded set of distinct queries the clients
  // cycle over — cache-friendly by construction, like real head traffic.
  std::vector<EngineQuery> queries;
  for (const QuerySpec& q : inst.workload) {
    queries.push_back({.keywords = q.keywords,
                       .algorithm = "bkws",
                       .eval = {.top_k = 10}});
    queries.push_back({.keywords = q.keywords,
                       .algorithm = "blinks",
                       .eval = {.top_k = 10, .exact_verification = false}});
    if (queries.size() >= 24) break;
  }
  std::printf("workload: %zu distinct queries, %zu closed-loop clients, "
              "%.2fs per config, 8 engine slots "
              "(hardware concurrency: %u)\n\n",
              queries.size(), clients, duration,
              std::thread::hardware_concurrency());

  // --- 1. cache ON vs OFF ------------------------------------------------
  double cached_qps = 0, uncached_qps = 0;
  {
    SearchService service(engine);
    for (const EngineQuery& q : queries) (void)service.Query(q);  // warm
    LoadReport r = RunClosedLoop(service, queries, clients, duration);
    PrintReport("cache on", r);
    cached_qps = r.qps;
  }
  {
    SearchService service(engine, {.cache = {.capacity = 0}});
    for (const EngineQuery& q : queries) (void)service.Query(q);  // warm
    LoadReport r = RunClosedLoop(service, queries, clients, duration);
    PrintReport("cache off", r);
    uncached_qps = r.qps;
  }
  std::printf("  -> cache speedup: %.2fx (target >= 2x on repeated "
              "queries)\n\n",
              uncached_qps > 0 ? cached_qps / uncached_qps : 0.0);

  // --- 2. overload burst: backpressure + deadlines ----------------------
  {
    // A serial engine (one slot) and a wait bound of 2: whenever the slot
    // is held and two callers wait, the other callers are refused at once.
    SearchService service(std::make_shared<const QueryEngine>(index),
                          {.queue_capacity = 2,
                           .cache = {.capacity = 0},
                           .default_deadline_ms = 25});
    const size_t burst = smoke ? 400 : 4000;
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> ok{0}, overload{0}, deadline{0}, other{0};
    std::vector<std::thread> callers;
    Timer t;
    for (size_t c = 0; c < clients; ++c) {
      callers.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < burst;) {
          auto r = service.Query(queries[i % queries.size()]);
          if (r.ok()) {
            ++ok;
          } else if (r.status().code() == StatusCode::kUnavailable) {
            ++overload;
          } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
            ++deadline;
          } else {
            ++other;
          }
        }
      });
    }
    for (auto& c : callers) c.join();
    std::printf("overload burst: %zu queries from %zu callers in %.1fms; "
                "ok=%llu overload=%llu deadline=%llu other=%llu\n",
                burst, clients, t.ElapsedMillis(),
                static_cast<unsigned long long>(ok.load()),
                static_cast<unsigned long long>(overload.load()),
                static_cast<unsigned long long>(deadline.load()),
                static_cast<unsigned long long>(other.load()));
    std::printf("final: %s\n", service.Snapshot().ToString().c_str());
  }

  // --- 3. mixed read/update serving (95/5) -------------------------------
  {
    std::printf("\nmixed read/update (95/5): each client issues 1 update "
                "per 20 ops; updates run delta maintenance + engine build "
                "+ RCU epoch swap behind the writer mutex\n");
    ServingStack service(BuiltShard{BigIndex(*index), {}}, /*fingerprint=*/0,
                         {}, {.engine = {.num_threads = 8}});

    const auto edges = index->base().Edges();
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> read_ok{0}, read_err{0};
    std::atomic<uint64_t> update_ok{0}, update_err{0};
    std::mutex lat_mutex;
    std::vector<double> update_ms;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        size_t i = c * 3;
        std::vector<double> local;
        // Each client toggles its own edge (distinct per client, so every
        // update has a net effect and runs the full maintenance path).
        auto [u, v] = edges[(c * 997) % edges.size()];
        bool removed = false;
        while (!stop.load(std::memory_order_relaxed)) {
          if (i++ % 20 == 19) {
            const GraphUpdate op{removed ? GraphUpdate::Kind::kAddEdge
                                         : GraphUpdate::Kind::kRemoveEdge,
                                 u, v};
            removed = !removed;
            Timer t;
            auto r = service.ApplyUpdate(std::span<const GraphUpdate>(&op, 1));
            local.push_back(t.ElapsedMillis());
            (r.ok() ? update_ok : update_err)
                .fetch_add(1, std::memory_order_relaxed);
          } else {
            auto r = service.Query(queries[i % queries.size()]);
            (r.ok() ? read_ok : read_err)
                .fetch_add(1, std::memory_order_relaxed);
          }
        }
        std::lock_guard<std::mutex> lock(lat_mutex);
        update_ms.insert(update_ms.end(), local.begin(), local.end());
      });
    }
    Timer t;
    std::this_thread::sleep_for(std::chrono::duration<double>(duration * 2));
    stop = true;
    for (auto& th : threads) th.join();
    const double secs = t.ElapsedSeconds();
    ServiceStats stats = service.Snapshot();
    std::printf("reads:   %10.1f q/s  ok=%-8llu err=%-6llu p50=%.3fms "
                "p95=%.3fms p99=%.3fms hit=%.2f\n",
                read_ok.load() / secs,
                static_cast<unsigned long long>(read_ok.load()),
                static_cast<unsigned long long>(read_err.load()), stats.p50_ms,
                stats.p95_ms, stats.p99_ms, stats.cache_hit_ratio);
    const double upd_p50 = Pct(update_ms, 0.5);
    const double upd_p95 = Pct(update_ms, 0.95);
    const double upd_max = update_ms.empty() ? 0.0 : update_ms.back();
    std::printf("updates: %10.1f u/s  ok=%-8llu err=%-6llu p50=%.1fms "
                "p95=%.1fms max=%.1fms (serialized on the writer mutex)\n",
                update_ok.load() / secs,
                static_cast<unsigned long long>(update_ok.load()),
                static_cast<unsigned long long>(update_err.load()), upd_p50,
                upd_p95, upd_max);
    std::printf("final: %s\n", stats.ToString().c_str());
  }
  return 0;
}

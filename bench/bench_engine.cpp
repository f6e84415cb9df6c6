// QueryEngine batch throughput: the same Table-4-style workload evaluated
// through EvaluateBatch at 1, 2, 4, and 8 worker threads over one shared
// BiG-index, plus the serial (0-thread) engine as the no-pool baseline.
//
// The shared state (index, algorithm registry, per-graph search indexes) is
// read-only or mutex-guarded during evaluation, and each worker slot owns a
// warm QueryContext — so throughput should scale with *physical* cores.
// The header prints std::thread::hardware_concurrency(): on a single-core
// host every thread count collapses onto one core and the speedup column
// reads ~1.0x by construction; the interesting columns there are that
// answers stay identical and overhead stays flat.

#include <thread>

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

int main() {
  PrintHeader("QueryEngine batch throughput",
              "engine layer (no paper figure; Sec. 6.2 workloads)");
  double scale = BenchScale();
  std::printf("hardware concurrency: %u\n",
              std::thread::hardware_concurrency());

  const char* datasets[] = {"yago3", "imdb"};
  for (const char* name : datasets) {
    BenchInstance inst = MakeInstance(name, scale, /*max_layers=*/4);
    auto index = std::make_shared<const BigIndex>(std::move(inst.index).value());

    // One batch = the workload repeated; enough queries that the pool's
    // dynamic load balancing has something to balance.
    std::vector<EngineQuery> batch;
    for (int rep = 0; rep < 8; ++rep) {
      for (const QuerySpec& q : inst.workload) {
        batch.push_back({.keywords = q.keywords,
                         .algorithm = "bkws",
                         .eval = {.top_k = 10}});
        batch.push_back({.keywords = q.keywords,
                         .algorithm = "blinks",
                         .eval = {.top_k = 10, .exact_verification = false}});
      }
    }

    std::printf("\n--- %s: %zu queries/batch ---\n", name, batch.size());
    std::printf("%8s %12s %14s %10s\n", "threads", "batch(ms)", "queries/s",
                "speedup");

    double baseline_ms = 0;
    for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{4},
                           size_t{8}}) {
      QueryEngine engine(index, {.num_threads = threads});
      // Warm: per-slot contexts.
      (void)engine.EvaluateBatch(batch);
      double ms = MedianMs(3, [&] {
        auto results = engine.EvaluateBatch(batch);
        if (!results.ok() || results->size() != batch.size()) std::exit(1);
      });
      if (threads <= 1 && baseline_ms == 0) baseline_ms = ms;
      std::printf("%8zu %12.2f %14.1f %9.2fx\n", threads, ms,
                  1000.0 * batch.size() / ms,
                  ms > 0 ? baseline_ms / ms : 0.0);
    }
  }
  std::printf("\n(speedup is vs the 0/1-thread baseline; ~1.0x expected on "
              "single-core hosts)\n");
  return 0;
}

// QueryEngine throughput under concurrent callers: the same Table-4-style
// workload evaluated by 1, 2, 4 and 8 ExecutorPool workers, each calling
// QueryEngine::Evaluate, over one shared BiG-index, plus 0 callers (the
// whole batch inline on the main thread) as the serial baseline. This is
// how the serving layer drives the engine too: the engine starts no threads,
// its callers bring them.
//
// The shared state (index, algorithm registry, per-graph search indexes) is
// read-only or mutex-guarded during evaluation, and each in-flight Evaluate
// leases its own warm QueryContext — so throughput should scale with
// *physical* cores. The header prints std::thread::hardware_concurrency();
// every row must return the serial answers exactly (the bench exits 1
// otherwise).

#include <thread>

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

namespace {

/// Evaluates `batch` on `pool`'s workers (inline with 0 workers); answers
/// in input order. Exits 1 on the first failed query.
std::vector<std::vector<Answer>> RunBatch(
    const QueryEngine& engine, ExecutorPool& pool,
    const std::vector<EngineQuery>& batch) {
  std::vector<std::vector<Answer>> answers(batch.size());
  std::vector<Status> failures(batch.size());
  pool.ParallelFor(batch.size(), [&](size_t, size_t i) {
    auto r = engine.Evaluate(batch[i]);
    if (r.ok()) {
      answers[i] = std::move(r->answers);
    } else {
      failures[i] = r.status();
    }
  });
  for (const Status& failure : failures) {
    if (!failure.ok()) {
      std::fprintf(stderr, "error: %s\n", failure.ToString().c_str());
      std::exit(1);
    }
  }
  return answers;
}

}  // namespace

int main() {
  PrintHeader("QueryEngine throughput under concurrent Evaluate callers",
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
    std::printf("%8s %12s %14s %10s\n", "callers", "batch(ms)", "queries/s",
                "speedup");

    std::vector<std::vector<Answer>> serial_answers;
    double baseline_ms = 0;
    for (size_t callers : {size_t{0}, size_t{1}, size_t{2}, size_t{4},
                           size_t{8}}) {
      QueryEngine engine(index);
      ExecutorPool pool(callers);
      // Warm: the per-graph search indexes and one context per caller.
      std::vector<std::vector<Answer>> answers = RunBatch(engine, pool, batch);
      if (serial_answers.empty()) serial_answers = answers;
      if (answers != serial_answers) {
        std::fprintf(stderr, "error: %zu callers changed the answers\n",
                     callers);
        return 1;
      }
      double ms = MedianMs(3, [&] { (void)RunBatch(engine, pool, batch); });
      if (baseline_ms == 0) baseline_ms = ms;
      std::printf("%8zu %12.2f %14.1f %9.2fx\n", callers, ms,
                  1000.0 * batch.size() / ms,
                  ms > 0 ? baseline_ms / ms : 0.0);
    }
  }
  std::printf("\n(speedup is vs the 0-caller serial baseline; answers match "
              "it at every caller count)\n");
  return 0;
}

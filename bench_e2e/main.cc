// bench_e2e — over-the-wire benchmark of the BiG-index serving stack, end to
// end and layer by layer.
//
// One process runs one workload. It generates yago3 at scale 0.01 (the
// repo's fixed deterministic generator), builds the stack bigindex_serverd
// ships five times (setup_s is the median build), warms it, drives it over
// loopback TCP from at most nproc client connections for --seconds, checks
// the answers that came over the wire against a reference engine, and prints
// every metric as "<workload> <name> <value> <unit>". The last stdout line
// is a one-line JSON summary.
//
//   bench_e2e --workload W --seed N [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--json FILE]
//   bench_e2e --smoke
//
// --trace 1 splits the window in halves: the first half untraced, the second
// with span recording on. It reports the per-layer metrics instead of the
// end-to-end ones, and trace.overhead_frac compares the halves' read rates.
// --smoke runs every workload briefly with all correctness checks, plus a
// negative control of the comparator and a seed-determinism check.
// README.md documents the workloads and the metric catalog.

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bigindex.h"
#include "checks.h"
#include "layers.h"
#include "load.h"
#include "report.h"
#include "spans.h"
#include "stack.h"
#include "util/logging.h"

namespace bench_e2e {
namespace {

using namespace bigindex;

constexpr double kScale = 0.01;
constexpr size_t kCheckKeys = 64;

/// Keys in the pool: four answer caches' worth (AnswerCacheOptions), so
/// uniform draws over it hit the cache about a quarter of the time.
constexpr size_t kPoolKeys = 16384;

struct Workload {
  const char* name;
  bool sharded;
  size_t readers;    // closed-loop read connections
  bool zipf;         // Zipf(1.0) by pool rank; uniform otherwise
  size_t hot_keys;   // draw from this many leading pool keys; 0 = all
  double write_hz;   // open-loop single-edge updates per second
};

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"mono-hot", false, 2, true, 1024, 0},
    {"mono-cold", false, 4, false, 0, 0},
    {"mixed-write", false, 3, true, 0, 20},
    {"sharded-bfs", true, 4, false, 0, 0},
};

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 6;
  bool traced = false;
  size_t setup_reps = 5;
  size_t pool_keys = kPoolKeys;
  size_t hot_keys = 0;   // 0 = the workload's own
  size_t warm_keys = 0;  // 0 = one answer cache's worth
  std::string trace_out;
};

struct RunOutcome {
  Report report;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// kCheckKeys seeded keys out of the first `key_count` (the keys the
/// workload draws), algorithms in turn so each is covered.
std::vector<CheckCase> MakeCheckCases(const KeyPool& pool, size_t key_count,
                                      bool sharded, uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<CheckCase> cases;
  for (size_t i = 0; i < kCheckKeys; ++i) {
    EngineQuery q;
    do {
      q = pool.queries[rng.Uniform(key_count)];
    } while (q.algorithm != kAlgorithms[i % kAlgorithms.size()]);
    if (!sharded) {
      cases.push_back({q, Compare::kFull});
      continue;
    }
    // Sharded against monolithic, as tests/shard_test.cpp compares them:
    // full answers at layer 0; above it witnesses are tie-break artifacts,
    // so identity and score over the whole answer set.
    q.eval.forced_layer = 0;
    cases.push_back({q, Compare::kFull});
    q.eval.forced_layer = static_cast<int>(1 + i % kLayers);
    q.eval.top_k = 0;
    cases.push_back({q, Compare::kIdentity});
  }
  return cases;
}

StatusOr<std::unique_ptr<QueryEngine>> BuildReference(const Graph& graph,
                                                      const Dataset& ds) {
  auto index = BigIndex::Build(graph, &ds.ontology.ontology,
                               {.max_layers = kLayers});
  if (!index.ok()) return index.status();
  return std::make_unique<QueryEngine>(std::move(index).value());
}

/// Answers over the wire against the workload's reference engine.
Status CheckAnswers(const Workload& w, const Dataset& ds, const Stack& stack,
                    const KeyPool& pool, const LoadSpec& spec,
                    const LoadResult& load, uint64_t seed) {
  const std::vector<CheckCase> cases =
      MakeCheckCases(pool, spec.key_count, w.sharded, seed);
  if (w.sharded) {
    auto mono = BuildReference(ds.graph, ds);
    if (!mono.ok()) return mono.status();
    return CheckOverWire(stack.port(), **mono, cases);
  }
  if (w.write_hz > 0) {
    // After the writer stopped: a from-scratch build of the final graph.
    auto final_graph = ApplyUpdates(ds.graph, load.ops);
    if (!final_graph.ok()) return final_graph.status();
    auto rebuilt = BuildReference(*final_graph, ds);
    if (!rebuilt.ok()) return rebuilt.status();
    return CheckOverWire(stack.port(), **rebuilt, cases);
  }
  return CheckOverWire(stack.port(), QueryEngine(stack.index()), cases);
}

RunOutcome RunWorkload(const Dataset& ds, const Workload& w,
                       const RunConfig& cfg) {
  RunOutcome out;
  auto fail = [&](const Status& s) {
    std::fprintf(stderr, "%s: %s\n", w.name, s.ToString().c_str());
    out.report = Report();
    out.correct = false;
    return out;
  };

  auto pool = MakeKeyPool(ds, cfg.seed, cfg.pool_keys);
  if (!pool.ok()) return fail(pool.status());
  const size_t hot_keys = cfg.hot_keys ? cfg.hot_keys : w.hot_keys;
  const LoadSpec spec{.readers = w.readers,
                      .key_count = hot_keys ? hot_keys : pool->queries.size(),
                      .zipf = w.zipf,
                      .write_hz = w.write_hz};

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (size_t rep = 0; rep < cfg.setup_reps; ++rep) {
    stack.reset();
    Timer timer;
    auto built = Stack::Build(ds, w.sharded, cfg.traced, pool->sample);
    if (!built.ok()) return fail(built.status());
    setup_s.push_back(timer.ElapsedSeconds());
    stack = std::move(built).value();
  }

  // Untimed warm phase. A hot key set goes into the cache whole; otherwise
  // the cache gets one capacity's worth of distinct keys, which under
  // uniform draws is already the LRU's steady state.
  const size_t warm_keys =
      hot_keys ? hot_keys
               : (cfg.warm_keys ? cfg.warm_keys : AnswerCacheOptions{}.capacity);
  std::vector<size_t> warm(std::min(warm_keys, pool->queries.size()));
  std::iota(warm.begin(), warm.end(), 0);
  Status warmed = WarmKeys(stack->port(), *pool, warm);
  if (!warmed.ok()) return fail(warmed);

  ServiceStats front_before, eval_before;
  auto at_split = [&] {
    front_before = stack->FrontStats();
    eval_before = stack->EvalStats();
    SpanRecorder::Get().SetRecording(true);
  };
  LoadResult load =
      RunLoad(stack->port(), *pool, spec, ds.graph, cfg.seed, cfg.seconds,
              cfg.traced ? std::function<void()>(at_split) : nullptr);
  SpanRecorder::Get().SetRecording(false);
  const ServiceStats front_after = stack->FrontStats();
  const ServiceStats eval_after = stack->EvalStats();
  out.attempted = load.attempted;
  out.failed = load.failed;

  Status checked = CheckAnswers(w, ds, *stack, *pool, spec, load, cfg.seed);
  if (!checked.ok()) return fail(checked);
  out.correct = true;

  size_t ok_reads = 0;
  for (double ms : load.read_ms) ok_reads += std::isfinite(ms) ? 1 : 0;
  if (cfg.traced) {
    TracedWindow tw;
    tw.spans = SpanRecorder::Get().Collect();
    tw.front_delta = StatsDelta(front_after, front_before);
    tw.eval_delta = StatsDelta(eval_after, eval_before);
    tw.sharded = w.sharded;
    tw.num_shards = stack->num_shards();
    tw.boundary_vertex_frac = stack->BoundaryVertexShare();
    tw.untraced_qps = load.reads_first_half / (cfg.seconds / 2);
    tw.traced_qps = (ok_reads - load.reads_first_half) / (cfg.seconds / 2);
    tw.requests = load.attempted;
    tw.read_ms = load.read_ms;
    tw.late_ms = load.late_ms;
    std::vector<std::string> request_of;
    AddPerLayerMetrics(tw, out.report, &request_of);
    if (!cfg.trace_out.empty() &&
        !WriteChromeTrace(cfg.trace_out, tw.spans, request_of)) {
      return fail(Status::IOError("cannot write " + cfg.trace_out));
    }
    SpanRecorder::Get().Clear();
  } else {
    out.report.AddSamples("setup_s", Median(setup_s), "s", setup_s);
    out.report.Add("read_qps", ok_reads / cfg.seconds, "1/s", ok_reads);
    out.report.AddSamples("read_p50_ms", Percentile(load.read_ms, 0.5), "ms",
                          load.read_ms);
    out.report.Add("heap_mb", load.heap_mb, "MiB");
  }
  return out;
}

StatusOr<Dataset> MakeBenchDataset() { return MakeDataset("yago3", kScale); }

/// Every workload for about a second with reduced pools and every check,
/// then the comparator's negative control and seed determinism.
int Smoke() {
  auto ds = MakeBenchDataset();
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    RunConfig cfg{.seed = 1,
                  .seconds = 1,
                  .traced = true,
                  .setup_reps = 1,
                  .pool_keys = 1200,
                  .hot_keys = w.hot_keys ? 256u : 0u,
                  .warm_keys = 300};
    RunOutcome r = RunWorkload(*ds, w, cfg);
    bool run_ok = r.correct && r.failed == 0 && r.attempted > 0;
    // Residuals are differences of nested intervals: never below zero
    // beyond timer resolution.
    for (const Metric& m : r.report.metrics()) {
      const bool residual = m.name == "server.wire_mean_ms" ||
                            m.name == "server.queue_mean_ms" ||
                            m.name == "shard.coord_self_mean_ms" ||
                            m.name == "shard.fanout_wire_mean_ms" ||
                            m.name == "update.queue_mean_ms" ||
                            m.name == "update.other_mean_ms";
      if (residual && m.value < -0.01) {
        std::fprintf(stderr, "%s: residual %s = %g < 0\n", w.name,
                     m.name.c_str(), m.value);
        run_ok = false;
      }
    }
    std::printf("smoke %-12s %s attempted=%llu failed=%llu\n", w.name,
                run_ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    ok = ok && run_ok;
  }

  auto pool = MakeKeyPool(*ds, 1, 256);
  auto reference = BuildReference(ds->graph, *ds);
  Status control = !pool.ok() ? pool.status()
                   : !reference.ok()
                       ? reference.status()
                       : NegativeControl(
                             **reference,
                             MakeCheckCases(*pool, pool->queries.size(),
                                            false, 1));
  std::printf("smoke negative-control %s\n",
              control.ok() ? "ok" : control.ToString().c_str());
  ok = ok && control.ok();

  const Workload& mixed = kWorkloads[2];
  auto hash_for = [&](uint64_t seed) -> uint64_t {
    auto p = MakeKeyPool(*ds, seed, 256);
    if (!p.ok()) return 0;
    const LoadSpec spec{.readers = mixed.readers,
                        .key_count = p->queries.size(),
                        .zipf = mixed.zipf,
                        .write_hz = mixed.write_hz};
    return RequestSequenceHash(*p, spec, ds->graph, seed, 1000);
  };
  const uint64_t a = hash_for(7), b = hash_for(7), c = hash_for(8);
  const bool deterministic = a != 0 && a == b && a != c;
  std::printf("smoke seed-determinism %s\n", deterministic ? "ok" : "FAILED");
  ok = ok && deterministic;
  std::printf("%s\n", ok ? "smoke OK" : "smoke FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload "
               "mono-hot|mono-cold|mixed-write|sharded-bfs --seed N\n"
               "                 [--seconds S] [--trace 0|1] "
               "[--trace-out FILE] [--json FILE]\n"
               "       bench_e2e --smoke\n");
  return 2;
}

int Main(int argc, char** argv) {
  // A peer closing its socket must surface as an I/O error, not a signal.
  std::signal(SIGPIPE, SIG_IGN);
  SetLogLevel(LogLevel::kWarning);  // keep per-server start/stop lines out
  const Workload* workload = nullptr;
  RunConfig cfg;
  std::string json_out;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") return Smoke();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) return Usage();
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
      seeded = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      cfg.traced = value[0] == '1';
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else if (flag == "--json") {
      json_out = value;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || !seeded || !(cfg.seconds > 0)) return Usage();

  auto ds = MakeBenchDataset();
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  RunOutcome r = RunWorkload(*ds, *workload, cfg);
  std::fputs(r.report.Table(workload->name).c_str(), stdout);
  if (!json_out.empty() &&
      !r.report.WriteJson(json_out,
                          {.workload = workload->name,
                           .seed = cfg.seed,
                           .scale = kScale,
                           .seconds = cfg.seconds,
                           .traced = cfg.traced},
                          r.correct, r.attempted, r.failed)) {
    std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("%s\n",
              r.report.SummaryLine(r.correct, r.attempted, r.failed).c_str());
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) { return bench_e2e::Main(argc, argv); }

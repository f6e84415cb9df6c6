// Metrics/tracing overhead smoke: proves the *disabled* observability hooks
// cost well under the budget relative to real query work.
//
// A two-build-tree wall-clock comparison (instrumented vs. stripped) would
// need a dedicated uninstrumented build and is hopelessly noisy on a shared
// CI host, where run-to-run variance alone exceeds 2%. Instead this bench
// measures what can be measured precisely — the per-operation cost of each
// disabled primitive (TRACE_SPAN with tracing off, Counter::Inc,
// Histogram::Record), tight-loop, best-of-several — and the instrumented
// operations the workload's queries actually execute, then prices those
// counts against the measured per-query evaluation time:
//
//   overhead% = (spans/query * span_ns + incs/query * inc_ns +
//                records/query * record_ns) / measured_query_ns
//
// The counts come from one pass over the same queries the time comes from:
// spans from the tracer's event total with tracing on, counter increments
// from the summed value deltas of every counter in the global registry (an
// upper bound: Inc(n) counts as n increments), and histogram records from
// the summed `_count` deltas. Both are read through the public surfaces —
// Tracer::GetStats and the Prometheus exposition — so a new span or metric
// on the query path is priced the moment it lands. The disabled span
// additionally gets an absolute ceiling: the whole design hinges on it
// staying a relaxed load + branch, so it must price like one (single-digit
// nanoseconds), not like a clock read or a lock.
//
//   bench_obs_overhead           print the table
//   bench_obs_overhead --check   exit 1 if overhead% > threshold (default 2;
//                                BIGINDEX_OBS_OVERHEAD_PCT overrides)
//
// tools/ci.sh runs `--check` on every pass.

#include <cstdio>
#include <cstring>

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

namespace {

// A disabled span is a relaxed atomic load and a branch. On any remotely
// modern core that is < 2 ns; 10 ns means something heavyweight crept into
// the disabled path.
constexpr double kMaxDisabledSpanNs = 10.0;

/// Best-of-5 nanoseconds per op of `fn` run `iters` times, tight-loop.
double BestNsPerOp(size_t iters, const std::function<void()>& fn) {
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    for (size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, t.ElapsedMillis() * 1e6 / iters);
  }
  return best;
}

/// Summed counter values and histogram sample counts of the global
/// registry, read from its Prometheus exposition.
struct RegistryTotals {
  double counter_incs = 0;
  double histogram_records = 0;
};

RegistryTotals ReadRegistryTotals() {
  RegistryTotals totals;
  std::istringstream in(MetricsRegistry::Global().RenderPrometheus());
  std::string line, family, kind;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream type(line.substr(7));
      type >> family >> kind;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    const double value = std::atof(line.c_str() + line.rfind(' ') + 1);
    if (kind == "counter") {
      totals.counter_incs += value;
    } else if (kind == "summary" && name == family + "_count") {
      totals.histogram_records += value;
    }
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  double threshold_pct = 2.0;
  if (const char* env = std::getenv("BIGINDEX_OBS_OVERHEAD_PCT")) {
    double v = std::atof(env);
    if (v > 0) threshold_pct = v;
  }

  PrintHeader("observability overhead smoke",
              "disabled-instrumentation budget (docs/OBSERVABILITY.md)");

  // --- primitive costs -----------------------------------------------------
  Tracer::Global().SetEnabled(false);
  constexpr size_t kIters = 2'000'000;

  volatile uint64_t sink = 0;
  double baseline_ns = BestNsPerOp(kIters, [&] { sink = sink + 1; });

  double span_ns = BestNsPerOp(kIters, [&] {
    TRACE_SPAN("bench/disabled");
    sink = sink + 1;
  });

  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("bench_total", "bench");
  double inc_ns = BestNsPerOp(kIters, [&] {
    counter.Inc();
    sink = sink + 1;
  });

  Histogram& hist = registry.GetHistogram("bench_ms", "bench");
  double record_ns = BestNsPerOp(kIters, [&] {
    hist.Record(1.5);
    sink = sink + 1;
  });

  // Net primitive costs; clamp at zero (a primitive can measure marginally
  // below baseline in the noise).
  span_ns = std::max(0.0, span_ns - baseline_ns);
  inc_ns = std::max(0.0, inc_ns - baseline_ns);
  record_ns = std::max(0.0, record_ns - baseline_ns);

  std::printf("primitive costs (net of %.2f ns loop baseline):\n",
              baseline_ns);
  std::printf("  disabled TRACE_SPAN   %8.2f ns/op\n", span_ns);
  std::printf("  Counter::Inc          %8.2f ns/op\n", inc_ns);
  std::printf("  Histogram::Record     %8.2f ns/op\n", record_ns);

  // --- real per-query time -------------------------------------------------
  BenchInstance inst = MakeInstance("yago3", BenchScale(), 4);
  QueryEngine engine(std::move(inst.index).value(),
                     {.num_threads = 0});  // serial: per-query time, no pool

  std::vector<EngineQuery> queries;
  for (const QuerySpec& spec : inst.workload) {
    EngineQuery q;
    q.keywords = spec.keywords;
    q.algorithm = "bkws";
    queries.push_back(std::move(q));
    if (queries.size() == 16) break;
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no workload queries generated\n");
    return 1;
  }
  for (const EngineQuery& q : queries) (void)engine.Evaluate(q);  // warm
  double batch_ms = MedianMs(5, [&] {
    for (const EngineQuery& q : queries) (void)engine.Evaluate(q);
  });
  double query_ns = batch_ms * 1e6 / queries.size();

  // --- what the queries execute --------------------------------------------
  // One more pass with tracing on counts the spans; the registry deltas of
  // the same pass count the increments and records.
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  const RegistryTotals before = ReadRegistryTotals();
  for (const EngineQuery& q : queries) (void)engine.Evaluate(q);
  const RegistryTotals after = ReadRegistryTotals();
  tracer.SetEnabled(false);
  const Tracer::Stats trace = tracer.GetStats();
  tracer.Clear();
  const double n = static_cast<double>(queries.size());
  const double spans_per_query =
      static_cast<double>(trace.events + trace.dropped) / n;
  const double incs_per_query =
      (after.counter_incs - before.counter_incs) / n;
  const double records_per_query =
      (after.histogram_records - before.histogram_records) / n;

  // --- the overhead --------------------------------------------------------
  double per_query_ns = spans_per_query * span_ns + incs_per_query * inc_ns +
                        records_per_query * record_ns;
  double overhead_pct = 100.0 * per_query_ns / query_ns;

  std::printf("\nper-query instrumentation (counted over %zu queries):\n",
              queries.size());
  std::printf("  %5.1f spans + %5.1f incs + %5.1f records = %10.1f ns\n",
              spans_per_query, incs_per_query, records_per_query,
              per_query_ns);
  std::printf("  measured query time (bkws, serial)      = %10.1f ns\n",
              query_ns);
  std::printf("  estimated disabled-instrumentation overhead: %.3f%% "
              "(threshold %.1f%%)\n",
              overhead_pct, threshold_pct);

  bool failed = false;
  if (span_ns > kMaxDisabledSpanNs) {
    std::fprintf(stderr,
                 "FAIL: disabled TRACE_SPAN costs %.2f ns (ceiling %.0f ns) "
                 "— the disabled path must stay a load + branch\n",
                 span_ns, kMaxDisabledSpanNs);
    failed = true;
  }
  if (overhead_pct > threshold_pct) {
    std::fprintf(stderr,
                 "FAIL: disabled instrumentation overhead %.3f%% exceeds "
                 "%.1f%%\n",
                 overhead_pct, threshold_pct);
    failed = true;
  }
  if (check && failed) return 1;
  std::printf("%s\n", check ? "overhead check OK" : "(informational run)");
  return 0;
}

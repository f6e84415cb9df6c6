// Shared plumbing for the reproduction benches (one binary per paper
// table/figure — see DESIGN.md's per-experiment index).
//
// Scale: every bench sizes its datasets as paper_size * scale, with scale
// from the BIGINDEX_BENCH_SCALE environment variable (default 0.01 — yago3
// lands at ~26k vertices so the full suite finishes in minutes on one core).
// Raising the scale raises fidelity; shapes are stable across scales.

#ifndef BIGINDEX_BENCH_BENCH_UTIL_H_
#define BIGINDEX_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bigindex.h"

namespace bigindex {
namespace bench {

inline double BenchScale() {
  const char* env = std::getenv("BIGINDEX_BENCH_SCALE");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 0.01;
}

/// Median wall-clock milliseconds of `runs` executions of fn.
inline double MedianMs(size_t runs, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(runs);
  for (size_t i = 0; i < runs; ++i) {
    Timer t;
    fn();
    times.push_back(t.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// The index's flat-image bytes (WriteIndexImage), for byte-equality gates;
/// exits on a write failure.
inline std::string SerializeIndex(const BigIndex& index,
                                  const LabelDictionary& dict) {
  std::ostringstream out;
  Status s = WriteIndexImage(index, dict, out);
  if (!s.ok()) {
    std::fprintf(stderr, "serialize: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return std::move(out).str();
}

/// A dataset with its index and Table-4-style workload, ready to query.
struct BenchInstance {
  Dataset dataset;
  StatusOr<BigIndex> index = Status::FailedPrecondition("not built");
  std::vector<QuerySpec> workload;
};

/// Builds dataset + index + workload. `max_layers` defaults to the paper's 7.
inline BenchInstance MakeInstance(const std::string& name, double scale,
                                  size_t max_layers = 7) {
  BenchInstance inst;
  auto ds = MakeDataset(name, scale);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", name.c_str(),
                 ds.status().ToString().c_str());
    std::exit(1);
  }
  inst.dataset = std::move(ds).value();
  inst.index = BigIndex::Build(inst.dataset.graph,
                               &inst.dataset.ontology.ontology,
                               {.max_layers = max_layers});
  if (!inst.index.ok()) {
    std::fprintf(stderr, "index %s: %s\n", name.c_str(),
                 inst.index.status().ToString().c_str());
    std::exit(1);
  }

  QueryGenOptions qopt;
  // The paper's floor was >3000 matches on the full graphs; scale it.
  qopt.min_count = std::max<size_t>(
      10, static_cast<size_t>(3000 * scale));
  inst.workload = GenerateQueryWorkload(inst.dataset, qopt);
  return inst;
}

/// Prints the standard bench header.
inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: %.4f (BIGINDEX_BENCH_SCALE to change)\n", BenchScale());
  std::printf("==========================================================\n");
}

}  // namespace bench
}  // namespace bigindex

#endif  // BIGINDEX_BENCH_BENCH_UTIL_H_

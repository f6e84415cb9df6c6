// Exp-3 "Construction time": BiG-index build times per dataset (all layers),
// the share of well-founded vertices the summarization kernel signs once,
// a per-layer phase split, and the Algorithm-1 thread sweep
// (BuildOptions).
//
// Paper reference: 20 minutes for YAGO3, 6.4 h for Dbpedia, 6.6 h for IMDB,
// 3 h for the largest synthetic graph — on a 2.93 GHz / 64 GB server at full
// dataset size. At bench scale the absolute numbers shrink accordingly; the
// shape to check is the relative ordering (dbpedia slowest per vertex, yago3
// fastest) and that construction is dominated by the first layers.
//
// The kernel (bisim/bisimulation.h) signs every well-founded vertex (one
// from which no path reaches a cycle) exactly once and refines only the
// cyclic remainder in rounds, so the wf-share column says how much of each
// graph takes the one-pass path. The generated stand-ins are mostly acyclic;
// the "random-cyc" row keeps yago3's vertices and labels but draws the same
// number of edges uniformly at random, which puts most vertices on or above
// one large cycle.
//
// The per-layer split traces serial builds of yago3, dbpedia, imdb, synt-1m
// and random-cyc at the bench scale (4 layers) and attributes each layer's
// time from the build spans: configuration (build/config), the generalized label
// view (build/generalize), the kernel (bisim/compute minus its
// bisim/materialize) and the quotient build (bisim/materialize).
//
// The thread sweep uses a fixed-size preset (independent of
// BIGINDEX_BENCH_SCALE): yago3 at scale 0.01, Algorithm 1 with 200
// samples, whose cost-model sampling and candidate scoring run on the build
// pool. Summarization itself is serial. Speedups only materialize with real
// cores; the preamble prints the hardware concurrency.
//
//   bench_construction [--smoke]
//
// --smoke: tiny preset, 2 build threads; verifies the 2-thread build is
// byte-identical to the serial one and exits non-zero if not. Used by
// tools/ci.sh.

#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

namespace {

double BuildMs(const Dataset& ds, const BigIndexOptions& opt,
               size_t* layers = nullptr) {
  Timer t;
  auto index = BigIndex::Build(ds.graph, &ds.ontology.ontology, opt);
  double ms = t.ElapsedMillis();
  if (!index.ok()) {
    std::fprintf(stderr, "build: %s\n", index.status().ToString().c_str());
    std::exit(1);
  }
  if (layers != nullptr) *layers = index->NumLayers();
  return ms;
}

int RunSmoke() {
  auto ds = MakeDataset("yago3", 0.0025);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  BigIndexOptions opt;
  opt.max_layers = 3;
  auto serial = BigIndex::Build(ds->graph, &ds->ontology.ontology, opt);
  opt.build.num_threads = 2;
  auto parallel = BigIndex::Build(ds->graph, &ds->ontology.ontology, opt);
  if (!serial.ok() || !parallel.ok()) {
    std::fprintf(stderr, "smoke build failed\n");
    return 1;
  }
  if (SerializeIndex(*serial, *ds->dict) !=
      SerializeIndex(*parallel, *ds->dict)) {
    std::fprintf(stderr,
                 "FAIL: parallel build differs from serial build "
                 "(|V|=%zu, 2 threads)\n",
                 ds->graph.NumVertices());
    return 1;
  }
  std::printf("construction smoke OK: serial == 2-thread build "
              "(|V|=%zu, %zu layers)\n",
              ds->graph.NumVertices(), serial->NumLayers());
  return 0;
}

// yago3's vertices and labels with the same number of edges drawn uniformly
// at random: a cyclic random graph the ontology still generalizes.
Dataset RandomCyclic(const Dataset& ds) {
  Rng rng(11);
  GraphBuilder b;
  const size_t n = ds.graph.NumVertices();
  for (LabelId l : ds.graph.labels()) b.AddVertex(l);
  for (size_t i = 0; i < ds.graph.NumEdges(); ++i) {
    b.AddEdge(static_cast<VertexId>(rng.Uniform(n)),
              static_cast<VertexId>(rng.Uniform(n)));
  }
  Dataset cyclic;
  cyclic.graph = std::move(b.Build()).value();
  cyclic.ontology = ds.ontology;
  return cyclic;
}

double WellFoundedShare(const Graph& g) {
  return g.NumVertices() == 0 ? 1.0
                              : static_cast<double>(CountWellFounded(g)) /
                                    static_cast<double>(g.NumVertices());
}

// Per-layer phase times (ms) of one traced build, read from the spans in
// close order: a layer's phases all close before its build/layer span.
struct LayerSplit {
  double config = 0, label_view = 0, refine = 0, quotient = 0, total = 0;
};

std::vector<LayerSplit> TracedLayerSplit(const Dataset& ds,
                                         const BigIndexOptions& opt) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  BuildMs(ds, opt);
  tracer.SetEnabled(false);
  const std::string json = tracer.DumpJson();

  std::vector<LayerSplit> layers;
  LayerSplit cur;
  constexpr std::string_view kName = "{\"name\":\"";
  constexpr std::string_view kDur = "\"dur\":";
  for (size_t at = json.find(kName); at != std::string::npos;
       at = json.find(kName, at + 1)) {
    const size_t begin = at + kName.size();
    const std::string_view name(json.data() + begin,
                                json.find('"', begin) - begin);
    const size_t dur_at = json.find(kDur, begin) + kDur.size();
    const double ms = std::strtod(json.c_str() + dur_at, nullptr) / 1000.0;
    if (name == "build/config") cur.config += ms;
    if (name == "build/generalize") cur.label_view += ms;
    if (name == "bisim/compute") cur.refine += ms;
    if (name == "bisim/materialize") cur.quotient += ms;
    if (name == "build/layer") {
      cur.refine -= cur.quotient;  // bisim/materialize nests in compute
      cur.total = ms;
      layers.push_back(cur);
      cur = {};
    }
  }
  tracer.Clear();
  return layers;
}

void RunLayerSplit(const std::string& name, const Dataset& ds) {
  constexpr int kRuns = 7;
  BigIndexOptions opt;
  opt.max_layers = 4;
  std::vector<std::vector<LayerSplit>> runs;
  for (int r = 0; r < kRuns; ++r) runs.push_back(TracedLayerSplit(ds, opt));
  auto index = BigIndex::Build(ds.graph, &ds.ontology.ontology, opt);
  if (!index.ok()) return;
  std::printf("\n--- per-layer split: %s |V|=%zu, serial default build, "
              "4 layers, median of %d traced builds (ms) ---\n",
              name.c_str(), ds.graph.NumVertices(), kRuns);
  std::printf("  %5s %8s %8s %11s %8s %9s %8s\n", "layer", "wf-share",
              "config", "label-view", "refine", "quotient", "layer");
  auto median = [&](size_t layer, double LayerSplit::*field) {
    std::vector<double> v;
    for (const auto& run : runs) v.push_back(run[layer].*field);
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  for (size_t l = 0; l < runs.front().size(); ++l) {
    std::printf("  %5zu %8.3f %8.2f %11.2f %8.2f %9.2f %8.2f\n", l + 1,
                WellFoundedShare(index->LayerGraph(l)),
                median(l, &LayerSplit::config),
                median(l, &LayerSplit::label_view),
                median(l, &LayerSplit::refine),
                median(l, &LayerSplit::quotient),
                median(l, &LayerSplit::total));
  }
}

void RunSpeedup() {
  std::printf("\n--- parallel construction (BuildOptions::num_threads) ---\n");
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  auto ds = MakeDataset("yago3", 0.01);
  if (!ds.ok()) return;
  std::printf("greedy preset: yago3 |V|=%zu, Algorithm 1, 2 layers, "
              "200 samples\n",
              ds->graph.NumVertices());
  BigIndexOptions opt;
  opt.max_layers = 2;
  opt.use_greedy_config = true;
  opt.config_search.theta = 0.9;
  opt.config_search.cost.sample_count = 200;
  double serial_ms = BuildMs(*ds, opt);
  std::printf("  %8s %12s %9s\n", "threads", "build(ms)", "speedup");
  std::printf("  %8s %12.1f %9s\n", "serial", serial_ms, "1.00x");
  for (size_t threads : {size_t{2}, size_t{4}}) {
    opt.build.num_threads = threads;
    double ms = BuildMs(*ds, opt);
    std::printf("  %8zu %12.1f %8.2fx\n", threads, ms, serial_ms / ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return RunSmoke();

  PrintHeader("Exp-3 — index construction time", "Sec. 6.2 Exp-3, Fig. 9");
  double scale = BenchScale();

  std::printf("%-10s %9s %9s %8s %8s %12s %14s %12s\n", "dataset", "|V|",
              "|E|", "wf-share", "layers", "build(ms)", "us-per-vertex",
              "index/|G|");
  auto row = [](const std::string& name, const Dataset& ds) {
    Timer t;
    auto index = BigIndex::Build(ds.graph, &ds.ontology.ontology,
                                 {.max_layers = 7});
    double ms = t.ElapsedMillis();
    if (!index.ok()) return;
    std::printf("%-10s %9zu %9zu %8.3f %8zu %12.1f %14.2f %12.3f\n",
                name.c_str(), ds.graph.NumVertices(), ds.graph.NumEdges(),
                WellFoundedShare(ds.graph), index->NumLayers(), ms,
                1000.0 * ms / ds.graph.NumVertices(),
                static_cast<double>(index->TotalSummarySize()) /
                    ds.graph.Size());
  };
  for (const std::string& name : DatasetNames()) {
    auto ds = MakeDataset(name, scale);
    if (ds.ok()) row(name, *ds);
  }
  auto yago = MakeDataset("yago3", scale);
  if (yago.ok()) row("random-cyc", RandomCyclic(*yago));

  // Greedy (Algorithm 1) construction as a contrast on one dataset.
  {
    auto ds = MakeDataset("yago3", scale);
    if (ds.ok()) {
      BigIndexOptions opt;
      opt.max_layers = 2;
      opt.use_greedy_config = true;
      opt.config_search.theta = 0.9;
      opt.config_search.cost.sample_count = 100;
      Timer t;
      auto index =
          BigIndex::Build(ds->graph, &ds->ontology.ontology, opt);
      if (index.ok()) {
        std::printf("\nAlgorithm-1 greedy construction (yago3, 2 layers, "
                    "theta 0.9, 100 samples): %.1f ms, layer-1 ratio %.3f\n",
                    t.ElapsedMillis(), index->LayerCompressionRatio(1));
      }
    }
  }

  for (const char* name : {"yago3", "dbpedia", "imdb", "synt-1m"}) {
    auto ds = MakeDataset(name, scale);
    if (ds.ok()) RunLayerSplit(name, *ds);
  }
  if (yago.ok()) RunLayerSplit("random-cyc", RandomCyclic(*yago));
  RunSpeedup();
  return 0;
}

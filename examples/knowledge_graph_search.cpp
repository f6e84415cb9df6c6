// Knowledge-graph search: Blinks with and without BiG-index on a YAGO3-like
// generated knowledge graph — the Fig. 10 scenario as a runnable program.
//
//   ./knowledge_graph_search [scale]     (default scale 0.01, ~26k vertices)

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bigindex.h"

using namespace bigindex;

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.01;

  std::printf("Generating yago3-like knowledge graph (scale %.4f)...\n",
              scale);
  auto ds = MakeDataset("yago3", scale);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  std::printf("  |V| = %zu, |E| = %zu, |V_ont| = %zu, |E_ont| = %zu\n",
              ds->graph.NumVertices(), ds->graph.NumEdges(),
              ds->ontology.ontology.NumTypes(),
              ds->ontology.ontology.NumEdges());

  Timer build_timer;
  auto index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                               {.max_layers = 5});
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("BiG-index built in %.1f ms: %zu layers, layer-1 ratio %.3f\n",
              build_timer.ElapsedMillis(), index->NumLayers(),
              index->LayerCompressionRatio(1));

  // Table-4-style workload.
  QueryGenOptions qopt;
  qopt.min_count = static_cast<size_t>(3000 * scale) + 5;
  auto workload = GenerateQueryWorkload(*ds, qopt);
  std::printf("\nWorkload (Table 4 style):\n%s\n",
              WorkloadToString(*ds, workload).c_str());

  // Direct queries ask for top-10; the index route evaluates the summary
  // with a 5x candidate multiplier for progressive specialization
  // (Sec. 4.3.4), exactly as the reproduction benches do. Both routes run
  // through one QueryEngine: "blinks" is the summary-tuned instance the
  // hierarchical evaluator uses, and direct evaluation calls the
  // direct-tuned instance on the base graph.
  QueryEngine engine(std::move(index).value(),
                     {.register_default_algorithms = false});
  engine.Register(std::make_unique<BlinksAlgorithm>(
      BlinksOptions{.d_max = 5, .top_k = 50}));
  BlinksAlgorithm blinks({.d_max = 5, .top_k = 10});
  const Graph& base = engine.index().base();
  if (!workload.empty()) {  // warm scratch buffers before timing
    (void)blinks.Evaluate(base, workload[0].keywords);
    (void)engine.Evaluate(
        {.keywords = workload[0].keywords,
         .algorithm = "blinks",
         .eval = {.top_k = 10, .exact_verification = false}});
  }

  std::printf("%-4s %10s %12s %14s %8s %s\n", "id", "answers",
              "direct(ms)", "bigindex(ms)", "layer", "speedup");
  double total_direct = 0, total_big = 0;
  for (const QuerySpec& q : workload) {
    Timer t;
    auto direct = blinks.Evaluate(base, q.keywords);
    double direct_ms = t.ElapsedMillis();

    // exact_verification = false is the paper's answer-generation mode.
    auto hier = engine.Evaluate(
        {.keywords = q.keywords,
         .algorithm = "blinks",
         .eval = {.top_k = 10, .exact_verification = false}});
    if (!hier.ok()) {
      std::fprintf(stderr, "%s\n", hier.status().ToString().c_str());
      return 1;
    }
    double big_ms = hier->wall_ms;

    total_direct += direct_ms;
    total_big += big_ms;
    std::printf("%-4s %10zu %12.2f %14.2f %8zu %6.2fx\n", q.id.c_str(),
                hier->answers.size(), direct_ms, big_ms, hier->breakdown.layer,
                big_ms > 0 ? direct_ms / big_ms : 0.0);
  }
  std::printf("\nTotal: direct %.1f ms, BiG-index %.1f ms (%.1f%% reduction; "
              "paper reports 61.8%% on YAGO3)\n",
              total_direct, total_big,
              total_direct > 0
                  ? 100.0 * (total_direct - total_big) / total_direct
                  : 0.0);
  return 0;
}

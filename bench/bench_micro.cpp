// Google-benchmark microbenchmarks for the library's building blocks:
// bisimulation refinement, generalization, BFS cones, partitioning, r-clique
// neighbor index construction, and end-to-end index build. These are not
// paper artifacts; they track the per-operation costs the paper benches
// compose.

#include <benchmark/benchmark.h>

#include "bigindex.h"

namespace bigindex {
namespace {

const Dataset& SharedDataset() {
  static const Dataset* ds = [] {
    auto made = MakeDataset("yago3", 0.005);  // ~13k vertices
    if (!made.ok()) std::abort();
    return new Dataset(std::move(made).value());
  }();
  return *ds;
}

void BM_Bisimulation(benchmark::State& state) {
  const Graph& g = SharedDataset().graph;
  for (auto _ : state) {
    BisimResult r = ComputeBisimulation(g, g.labels());
    benchmark::DoNotOptimize(r.summary.NumVertices());
  }
  state.SetItemsProcessed(state.iterations() * g.Size());
}
BENCHMARK(BM_Bisimulation);

void BM_Generalize(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  GeneralizationConfig config =
      FullOneStepConfiguration(ds.graph, ds.ontology.ontology);
  for (auto _ : state) {
    Graph gen = Generalize(ds.graph, config);
    benchmark::DoNotOptimize(gen.NumVertices());
  }
  state.SetItemsProcessed(state.iterations() * ds.graph.NumVertices());
}
BENCHMARK(BM_Generalize);

void BM_BackwardCone(benchmark::State& state) {
  const Graph& g = SharedDataset().graph;
  LabelId hot = g.DistinctLabels()[0];
  size_t best = 0;
  for (LabelId l : g.DistinctLabels()) {
    if (g.LabelCount(l) > best) {
      best = g.LabelCount(l);
      hot = l;
    }
  }
  BfsScratch scratch;
  for (auto _ : state) {
    auto seeds = g.VerticesWithLabel(hot);
    auto cone = scratch.BoundedDistancesMulti(
        g, {seeds.begin(), seeds.end()}, 5, Direction::kBackward);
    benchmark::DoNotOptimize(cone.size());
  }
}
BENCHMARK(BM_BackwardCone);

void BM_Partition(benchmark::State& state) {
  const Graph& g = SharedDataset().graph;
  for (auto _ : state) {
    Partition p = PartitionGraph(g, state.range(0));
    benchmark::DoNotOptimize(p.NumBlocks());
  }
}
BENCHMARK(BM_Partition)->Arg(100)->Arg(1000);

void BM_NeighborIndexBuild(benchmark::State& state) {
  const Graph& g = SharedDataset().graph;
  for (auto _ : state) {
    auto index = NeighborIndex::Build(g, 2);
    benchmark::DoNotOptimize(index.ok());
  }
}
BENCHMARK(BM_NeighborIndexBuild);

void BM_BigIndexBuild(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  for (auto _ : state) {
    auto index = BigIndex::Build(ds.graph, &ds.ontology.ontology,
                                 {.max_layers = 3});
    benchmark::DoNotOptimize(index.ok());
  }
}
BENCHMARK(BM_BigIndexBuild);

void BM_SampledCompressEstimate(benchmark::State& state) {
  const Dataset& ds = SharedDataset();
  CostModel model(ds.graph, {.sample_count = 400});
  GeneralizationConfig config =
      FullOneStepConfiguration(ds.graph, ds.ontology.ontology);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.EstimateCompress(config));
  }
}
BENCHMARK(BM_SampledCompressEstimate);

}  // namespace
}  // namespace bigindex

BENCHMARK_MAIN();

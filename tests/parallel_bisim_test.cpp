// Randomized differential tests for parallel index construction.
//
// The contract under test (BisimOptions::pool, BuildOptions): parallel and
// serial construction are *byte-identical* — same quotient graphs, same
// Bisim^-1 mappings, same serialized index — for every thread count. The
// harness drives both paths over many seeded random graphs
// (tests/testing/random_graph.h) plus the degenerate corners, so any
// scheduling-dependent divergence (chunk-order id drift, RNG stream mixups,
// FP reduction reordering) shows up as a concrete failing seed.
//
// These suites are in the TSan preset of tools/ci.sh: the same runs that
// check equivalence also check freedom from data races.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bisim/bisimulation.h"
#include "core/big_index.h"
#include "core/index_image.h"
#include "engine/executor.h"
#include "testing/random_graph.h"
#include "update/delta.h"
#include "workload/datasets.h"

namespace bigindex {
namespace {

using bigindex::testing::MakeRandomGraph;
using bigindex::testing::RandomGraphOptions;

// Mappings must agree vertex-for-vertex, not just up to renaming: the
// deterministic block-id contract is exact equality.
void ExpectSameBisim(const BisimResult& serial, const BisimResult& parallel,
                     const std::string& context) {
  EXPECT_TRUE(GraphsIdentical(serial.summary, parallel.summary)) << context;
  ASSERT_EQ(serial.mapping.NumVertices(), parallel.mapping.NumVertices())
      << context;
  ASSERT_EQ(serial.mapping.NumSupernodes(), parallel.mapping.NumSupernodes())
      << context;
  for (VertexId v = 0; v < serial.mapping.NumVertices(); ++v) {
    ASSERT_EQ(serial.mapping.SuperOf(v), parallel.mapping.SuperOf(v))
        << context << " vertex " << v;
  }
  // Bisim^-1 (member lists) follows from SuperOf equality, but check a layer
  // of it anyway — it is what specialization actually reads.
  for (VertexId s = 0; s < serial.mapping.NumSupernodes(); ++s) {
    auto a = serial.mapping.Members(s);
    auto b = parallel.mapping.Members(s);
    ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()))
        << context << " supernode " << s;
  }
  EXPECT_EQ(serial.refinement_rounds, parallel.refinement_rounds) << context;
}

TEST(ParallelBisimTest, MatchesSerialOnRandomGraphs) {
  // >= 100 random graphs, each checked at 1, 2, and 8 threads. Sizes, edge
  // densities, label alphabets and skews all cycle with the seed;
  // min_chunk_vertices is lowered so even the small graphs take the
  // multi-chunk path.
  ExecutorPool pool1(1), pool2(2), pool8(8);
  ExecutorPool* pools[] = {&pool1, &pool2, &pool8};
  for (uint64_t seed = 0; seed < 100; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 20 + (seed * 37) % 400;
    opt.edge_density = 0.5 + static_cast<double>(seed % 7);
    opt.num_labels = 1 + seed % 12;
    opt.label_skew = (seed % 3) * 0.6;
    Graph g = MakeRandomGraph(opt);

    BisimResult serial = ComputeBisimulation(g, g.labels());
    EXPECT_TRUE(IsStableBisimulation(g, serial.mapping)) << "seed " << seed;

    for (ExecutorPool* pool : pools) {
      BisimOptions par;
      par.pool = pool;
      par.min_chunk_vertices = 16;
      BisimResult parallel = ComputeBisimulation(g, g.labels(), par);
      ExpectSameBisim(serial, parallel,
                      "seed " + std::to_string(seed) + " threads " +
                          std::to_string(pool->num_workers()));
    }
  }
}

TEST(ParallelBisimTest, MatchesSerialAtDefaultChunkThreshold) {
  // One graph big enough to engage the production chunking (>= 2 * 2048
  // vertices) without any test-only knobs.
  RandomGraphOptions opt;
  opt.seed = 17;
  opt.num_vertices = 6000;
  opt.edge_density = 3.0;
  opt.num_labels = 10;
  opt.label_skew = 0.8;
  Graph g = MakeRandomGraph(opt);

  BisimResult serial = ComputeBisimulation(g, g.labels());
  ExecutorPool pool(8);
  BisimResult parallel = ComputeBisimulation(g, g.labels(), {.pool = &pool});
  ExpectSameBisim(serial, parallel, "default-threshold 6000 vertices");
}

TEST(ParallelBisimTest, EdgeCases) {
  ExecutorPool pool(8);
  struct Case {
    const char* name;
    RandomGraphOptions opt;
  };
  std::vector<Case> cases;
  {
    Case empty{"empty", {}};
    empty.opt.num_vertices = 0;
    cases.push_back(empty);
    Case single{"single-node", {}};
    single.opt.num_vertices = 1;
    single.opt.edge_density = 0.0;
    cases.push_back(single);
    Case single_loop{"single-node-self-loop", {}};
    single_loop.opt.num_vertices = 1;
    single_loop.opt.edge_density = 2.0;
    single_loop.opt.self_loop_fraction = 1.0;
    cases.push_back(single_loop);
    Case same_label{"all-same-label", {}};
    same_label.opt.num_vertices = 150;
    same_label.opt.num_labels = 1;
    same_label.opt.edge_density = 2.5;
    same_label.opt.seed = 5;
    cases.push_back(same_label);
    Case no_edges{"no-edges", {}};
    no_edges.opt.num_vertices = 64;
    no_edges.opt.edge_density = 0.0;
    no_edges.opt.num_labels = 4;
    no_edges.opt.seed = 6;
    cases.push_back(no_edges);
  }
  for (const Case& c : cases) {
    Graph g = MakeRandomGraph(c.opt);
    BisimResult serial = ComputeBisimulation(g, g.labels());
    BisimOptions par;
    par.pool = &pool;
    par.min_chunk_vertices = 1;
    BisimResult parallel = ComputeBisimulation(g, g.labels(), par);
    ExpectSameBisim(serial, parallel, c.name);
  }
}

// ---- whole-build determinism ----

std::string SerializeBuild(const Dataset& ds, size_t num_threads,
                           uint64_t seed) {
  BigIndexOptions opt;
  opt.max_layers = 3;
  // Greedy configuration search exercises the full parallel surface:
  // sampling, baseline estimation, and candidate scoring, on top of Bisim.
  opt.use_greedy_config = true;
  opt.config_search.theta = 0.9;
  opt.config_search.cost.sample_count = 40;
  opt.build.num_threads = num_threads;
  opt.config_search.cost.seed = seed;
  auto index = BigIndex::Build(ds.graph, &ds.ontology.ontology, opt);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  std::ostringstream out;
  EXPECT_TRUE(WriteIndexImage(*index, *ds.dict, out).ok());
  return std::move(out).str();
}

TEST(BuildDeterminismTest, ByteIdenticalAcrossRunsAndThreadCounts) {
  auto ds = MakeDataset("yago3", 0.002);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  const std::string serial = SerializeBuild(*ds, 0, 123);
  ASSERT_FALSE(serial.empty());
  // Same options, fresh run: bit-for-bit identical.
  EXPECT_EQ(serial, SerializeBuild(*ds, 0, 123));
  // Any thread count: still identical.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    EXPECT_EQ(serial, SerializeBuild(*ds, threads, 123))
        << threads << " threads";
  }
  // The seed is load-bearing: a different master seed may legitimately pick
  // different samples (this guards against the seed being ignored — equality
  // here would be suspicious, but is not *impossible*, so only check that
  // the build still succeeds).
  EXPECT_FALSE(SerializeBuild(*ds, 2, 999).empty());
}

TEST(BuildDeterminismTest, DefaultConfigBuildIdenticalAcrossThreadCounts) {
  // The experiments' default (one-step generalization, no sampling) must be
  // thread-count invariant too — this isolates the Bisim contract inside a
  // multi-layer build.
  auto ds = MakeDataset("dbpedia", 0.001);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  BigIndexOptions opt;
  opt.max_layers = 4;
  auto reference = BigIndex::Build(ds->graph, &ds->ontology.ontology, opt);
  ASSERT_TRUE(reference.ok());
  std::ostringstream ref_out;
  ASSERT_TRUE(WriteIndexImage(*reference, *ds->dict, ref_out).ok());

  opt.build.num_threads = 4;
  auto parallel = BigIndex::Build(ds->graph, &ds->ontology.ontology, opt);
  ASSERT_TRUE(parallel.ok());
  std::ostringstream par_out;
  ASSERT_TRUE(WriteIndexImage(*parallel, *ds->dict, par_out).ok());
  EXPECT_EQ(ref_out.str(), par_out.str());
}

}  // namespace
}  // namespace bigindex

// Differential tests for the summarization kernel χ(G, C) = Bisim(Gen(G, C)).
//
// The index summarizes each layer graph under the GeneralizedLabels view and
// never builds Gen(G, C). The graph-level Generalize stays as the reference:
// summarizing g under the view must give exactly what summarizing the
// materialized Gen(g, C) gives (summary CSR arrays, labels and mapping
// arrays), serially and through the chunked parallel rounds. The quotient
// builder is checked against a plain all-edges materialization written here,
// and coarsening a quotient against materializing the composed partition.
//
// SummarizeKernelTest is in the TSan preset of tools/ci.sh: its pooled case
// runs the chunked rounds over the label view.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "bisim/bisimulation.h"
#include "engine/executor.h"
#include "ontology/config.h"
#include "testing/random_graph.h"
#include "util/random.h"

namespace bigindex {
namespace {

using bigindex::testing::MakeRandomGraph;
using bigindex::testing::MakeRandomOntologyDag;
using bigindex::testing::RandomGraphOptions;

template <typename T>
std::vector<T> Vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

// Array-for-array equality of two summaries: the flat CSR arrays, labels and
// label index of the quotient, and the three mapping arrays.
void ExpectSameResult(const BisimResult& want, const BisimResult& got,
                      const std::string& context) {
  const Graph& a = want.summary;
  const Graph& b = got.summary;
  EXPECT_EQ(Vec(a.labels()), Vec(b.labels())) << context;
  EXPECT_EQ(Vec(a.OutOffsets()), Vec(b.OutOffsets())) << context;
  EXPECT_EQ(Vec(a.OutTargets()), Vec(b.OutTargets())) << context;
  EXPECT_EQ(Vec(a.InOffsets()), Vec(b.InOffsets())) << context;
  EXPECT_EQ(Vec(a.InSources()), Vec(b.InSources())) << context;
  EXPECT_EQ(Vec(a.LabelOffsets()), Vec(b.LabelOffsets())) << context;
  EXPECT_EQ(Vec(a.LabelVertices()), Vec(b.LabelVertices())) << context;
  const BisimMapping& x = want.mapping;
  const BisimMapping& y = got.mapping;
  EXPECT_EQ(Vec(x.VertexToSuper()), Vec(y.VertexToSuper())) << context;
  EXPECT_EQ(Vec(x.MemberOffsets()), Vec(y.MemberOffsets())) << context;
  EXPECT_EQ(Vec(x.MembersArray()), Vec(y.MembersArray())) << context;
}

// A random one-step configuration over g's labels: each occurring label with
// a supertype is mapped to one of its direct supertypes with probability
// `p` (p = 0 gives the empty config).
GeneralizationConfig RandomOneStepConfig(const Graph& g,
                                         const Ontology& ontology, double p,
                                         Rng& rng) {
  GeneralizationConfig config;
  for (LabelId l : g.DistinctLabels()) {
    auto supers = ontology.Supertypes(l);
    if (supers.empty() || !rng.Bernoulli(p)) continue;
    EXPECT_TRUE(config.AddMapping(l, supers[rng.Uniform(supers.size())]).ok());
  }
  return config;
}

TEST(SummarizeKernelTest, LabelViewMatchesGeneralizedGraph) {
  ExecutorPool pool(4);
  const double probabilities[] = {0.0, 0.3, 0.7, 1.0};
  for (uint64_t seed = 0; seed < 60; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 1 + (seed * 53) % 300;
    opt.edge_density = 0.5 + static_cast<double>(seed % 5);
    opt.num_labels = 1 + seed % 10;
    opt.label_skew = (seed % 3) * 0.5;
    Graph g = MakeRandomGraph(opt);
    Ontology ontology = MakeRandomOntologyDag(
        {.num_leaves = opt.num_labels, .height = 3, .seed = seed + 1000});
    Rng rng(seed);
    GeneralizationConfig config =
        RandomOneStepConfig(g, ontology, probabilities[seed % 4], rng);
    ASSERT_TRUE(config.Validate(ontology).ok());

    Graph gen = Generalize(g, config);
    std::vector<LabelId> storage;
    std::span<const LabelId> view = GeneralizedLabels(g, config, &storage);
    EXPECT_EQ(Vec(view), Vec(gen.labels()));

    const std::string context = "seed " + std::to_string(seed) + " |C| " +
                                std::to_string(config.size());
    BisimResult reference = ComputeBisimulation(gen, gen.labels());
    ExpectSameResult(reference, ComputeBisimulation(g, view),
                     context + " serial");
    BisimOptions pooled{.pool = &pool, .min_chunk_vertices = 8};
    ExpectSameResult(reference, ComputeBisimulation(g, view, pooled),
                     context + " pooled");
  }
}

TEST(SummarizeKernelTest, EmptyConfigViewIsTheGraphsOwnLabels) {
  Graph g = MakeRandomGraph({.num_vertices = 40, .seed = 3});
  std::vector<LabelId> storage;
  std::span<const LabelId> view =
      GeneralizedLabels(g, GeneralizationConfig{}, &storage);
  EXPECT_EQ(view.data(), g.labels().data());
  EXPECT_TRUE(storage.empty());
}

// The quotient written the plain way: first-occurrence renumbering, then
// every vertex-level edge handed to the builder.
BisimResult AllEdgesQuotient(const Graph& g, std::vector<uint32_t> partition,
                             size_t id_bound,
                             std::vector<uint32_t>* old_to_final) {
  std::vector<uint32_t> dense(id_bound, std::numeric_limits<uint32_t>::max());
  uint32_t blocks = 0;
  std::vector<LabelId> block_label;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    uint32_t& d = dense[partition[v]];
    if (d == std::numeric_limits<uint32_t>::max()) {
      d = blocks++;
      block_label.push_back(g.label(v));
    }
    partition[v] = d;
  }
  GraphBuilder b;
  for (LabelId l : block_label) b.AddVertex(l);
  for (const auto& [u, v] : g.Edges()) b.AddEdge(partition[u], partition[v]);
  BisimResult r;
  r.summary = std::move(b.Build()).value();
  r.mapping = BisimMapping(partition, blocks);
  *old_to_final = std::move(dense);
  return r;
}

TEST(SummarizeKernelTest, QuotientBuilderMatchesAllEdgesMaterialization) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = (seed * 41) % 250;  // includes the empty graph
    opt.edge_density = static_cast<double>(seed % 6);
    opt.num_labels = 1 + seed % 7;
    Graph g = MakeRandomGraph(opt);

    // A random label-uniform partition with sparse ids: vertices of one
    // label spread over `split` blocks at random, so the partition is
    // neither maximal nor stable, and ids skip values and start high.
    Rng rng(seed + 77);
    const size_t split = 1 + seed % 5;
    const size_t stride = 3;
    const size_t id_bound = (opt.num_labels * split + 1) * stride;
    std::vector<uint32_t> partition(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const size_t slot = g.label(v) * split + rng.Uniform(split);
      partition[v] = static_cast<uint32_t>(id_bound - 1 - slot * stride);
    }

    std::vector<uint32_t> want_table, got_table;
    BisimResult want = AllEdgesQuotient(g, partition, id_bound, &want_table);
    BisimResult got =
        MaterializeQuotient(g, g.labels(), partition, id_bound, &got_table);
    const std::string context = "seed " + std::to_string(seed);
    ExpectSameResult(want, got, context);
    EXPECT_EQ(want_table, got_table) << context;

    // Coarsening that quotient by a random label-uniform grouping of its
    // blocks equals materializing the composed partition from g.
    std::vector<uint32_t> coarse(got.summary.NumVertices());
    for (VertexId s = 0; s < coarse.size(); ++s) {
      const size_t slot = got.summary.label(s) * split + rng.Uniform(split);
      coarse[s] = static_cast<uint32_t>(id_bound - 1 - slot * stride);
    }
    std::vector<uint32_t> composed(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      composed[v] = coarse[got.mapping.SuperOf(v)];
    }
    std::vector<uint32_t> coarse_table, composed_table;
    ExpectSameResult(
        MaterializeQuotient(g, g.labels(), composed, id_bound,
                            &composed_table),
        CoarsenQuotient(got, coarse, id_bound, &coarse_table),
        context + " coarsened");
    EXPECT_EQ(composed_table, coarse_table) << context;
  }
}

}  // namespace
}  // namespace bigindex

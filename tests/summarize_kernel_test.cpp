// Differential tests for the summarization kernel χ(G, C) = Bisim(Gen(G, C)).
//
// The index summarizes each layer graph under the GeneralizedLabels view and
// never builds Gen(G, C). The graph-level Generalize stays as the reference:
// summarizing g under the view must give exactly what summarizing the
// materialized Gen(g, C) gives (summary CSR arrays, labels and mapping
// arrays). The quotient builder is checked on stable partitions against a
// plain all-edges materialization written here.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bisim/bisimulation.h"
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
    ExpectSameResult(reference, ComputeBisimulation(g, view), context);
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

// `blocks` dense block ids (one per vertex) relabelled to sparse, shuffled
// ids: a random permutation spaced by a stride, so ids skip values, start
// away from 0 and occur in no particular order. `*id_bound` receives the
// bound.
std::vector<uint32_t> SparseShuffledIds(std::span<const VertexId> blocks,
                                        size_t num_blocks, Rng& rng,
                                        size_t* id_bound) {
  std::vector<uint32_t> id(num_blocks);
  std::iota(id.begin(), id.end(), 0u);
  for (size_t i = num_blocks; i > 1; --i) {
    std::swap(id[i - 1], id[rng.Uniform(i)]);
  }
  const size_t stride = 3;
  *id_bound = (num_blocks + 1) * stride;
  std::vector<uint32_t> partition(blocks.size());
  for (size_t v = 0; v < blocks.size(); ++v) {
    partition[v] = static_cast<uint32_t>(stride + id[blocks[v]] * stride);
  }
  return partition;
}

// MaterializeQuotient's contract is a stable, label-uniform partition: the
// maximal bisimulation (what the kernel and the cone re-sign hand it) and
// the discrete partition are both stable, so each is checked under sparse,
// shuffled ids against the all-edges quotient, renumbering table included.
TEST(SummarizeKernelTest, QuotientBuilderMatchesAllEdgesMaterialization) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = (seed * 41) % 250;  // includes the empty graph
    opt.edge_density = static_cast<double>(seed % 6);
    opt.num_labels = 1 + seed % 7;
    Graph g = MakeRandomGraph(opt);
    Rng rng(seed + 77);

    const BisimResult maximal = ComputeBisimulation(g, g.labels());
    std::vector<VertexId> discrete(g.NumVertices());
    std::iota(discrete.begin(), discrete.end(), 0u);
    const std::pair<const char*, std::span<const VertexId>> partitions[] = {
        {"maximal", maximal.mapping.VertexToSuper()}, {"discrete", discrete}};
    for (const auto& [name, blocks] : partitions) {
      const size_t num_blocks =
          blocks.empty() ? 0 : *std::ranges::max_element(blocks) + 1;
      size_t id_bound = 0;
      std::vector<uint32_t> partition =
          SparseShuffledIds(blocks, num_blocks, rng, &id_bound);

      std::vector<uint32_t> want_table, got_table;
      BisimResult want =
          AllEdgesQuotient(g, partition, id_bound, &want_table);
      BisimResult got =
          MaterializeQuotient(g, g.labels(), partition, id_bound, &got_table);
      const std::string context = "seed " + std::to_string(seed) + " " + name;
      ExpectSameResult(want, got, context);
      EXPECT_EQ(want_table, got_table) << context;
    }
  }
}

}  // namespace
}  // namespace bigindex

// Differential lockdown of the flat-CSR graph and the index image.
//
// Two properties over 100 seeds of adversarially unstructured inputs:
//
//  1. The CSR Graph agrees accessor-by-accessor with a naive set-based
//     adjacency reference built from the same vertex/edge stream.
//  2. Every registered search algorithm returns identical answers on every
//     layer whether the index was built in memory or loaded zero-copy from
//     a flat image — i.e. builder-backed and image-backed structures are
//     indistinguishable to the hot paths.
//
// Suite name is CsrDifferential* so tools/ci.sh can select it for the
// sanitizer runs.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bigindex.h"
#include "testing/random_graph.h"

namespace bigindex {
namespace {

constexpr int kSeeds = 100;

/// Interns "L0".."L<count-1>" so ids 0..count-1 exist in insertion order.
void InternDenseLabels(LabelDictionary& dict, size_t count) {
  for (size_t i = 0; i < count; ++i) dict.Intern("L" + std::to_string(i));
}

/// The naive reference: labels plus set-based adjacency, filled from the
/// same stream of AddVertex/AddEdge calls the GraphBuilder consumes.
struct ReferenceAdjacency {
  std::vector<LabelId> labels;
  std::vector<std::set<VertexId>> out, in;
  std::map<LabelId, std::vector<VertexId>> by_label;

  VertexId AddVertex(LabelId l) {
    labels.push_back(l);
    out.emplace_back();
    in.emplace_back();
    by_label[l].push_back(static_cast<VertexId>(labels.size() - 1));
    return static_cast<VertexId>(labels.size() - 1);
  }
  void AddEdge(VertexId u, VertexId v) {
    out[u].insert(v);
    in[v].insert(u);
  }
  size_t NumEdges() const {
    size_t m = 0;
    for (const auto& s : out) m += s.size();
    return m;
  }
};

TEST(CsrDifferentialTest, StructureMatchesReferenceAdjacency) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(static_cast<uint64_t>(seed));
    // Degenerate corners on early seeds, then growing random soups.
    const size_t n = seed == 1 ? 0 : seed == 2 ? 1 : 3 + rng.Uniform(80);
    const size_t num_labels = seed <= 3 ? 1 : 1 + rng.Uniform(9);
    const size_t target_edges =
        n == 0 ? 0 : static_cast<size_t>(rng.Uniform(3 * n + 1));

    ReferenceAdjacency ref;
    GraphBuilder b;
    for (size_t i = 0; i < n; ++i) {
      LabelId l = static_cast<LabelId>(rng.Uniform(num_labels));
      b.AddVertex(l);
      ref.AddVertex(l);
    }
    for (size_t i = 0; i < target_edges; ++i) {
      VertexId u = static_cast<VertexId>(rng.Uniform(n));
      VertexId v = rng.Bernoulli(0.05) ? u
                                       : static_cast<VertexId>(rng.Uniform(n));
      b.AddEdge(u, v);
      ref.AddEdge(u, v);
    }
    auto built = b.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const Graph& g = *built;

    ASSERT_EQ(g.NumVertices(), n);
    ASSERT_EQ(g.NumEdges(), ref.NumEdges());
    const CsrView out = g.Out(), in = g.In();
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(g.label(v), ref.labels[v]);
      // Span accessor vs reference.
      std::vector<VertexId> got_out(g.OutNeighbors(v).begin(),
                                    g.OutNeighbors(v).end());
      std::vector<VertexId> want_out(ref.out[v].begin(), ref.out[v].end());
      ASSERT_EQ(got_out, want_out) << "out-neighbors of " << v;
      std::vector<VertexId> got_in(g.InNeighbors(v).begin(),
                                   g.InNeighbors(v).end());
      std::vector<VertexId> want_in(ref.in[v].begin(), ref.in[v].end());
      ASSERT_EQ(got_in, want_in) << "in-neighbors of " << v;
      // HalfInterval accessor vs the same reference.
      const auto oi = out[v];
      ASSERT_EQ(oi.size(), want_out.size());
      for (uint64_t i = 0; i < oi.size(); ++i) {
        EXPECT_EQ(out.Slot(oi.begin + i), want_out[i]);
      }
      const auto ii = in[v];
      ASSERT_EQ(ii.size(), want_in.size());
      for (uint64_t i = 0; i < ii.size(); ++i) {
        EXPECT_EQ(in.Slot(ii.begin + i), want_in[i]);
      }
      EXPECT_EQ(g.OutDegree(v), want_out.size());
      EXPECT_EQ(g.InDegree(v), want_in.size());
      for (VertexId w : want_out) EXPECT_TRUE(g.HasEdge(v, w));
    }
    // Inverted label index vs reference.
    std::vector<LabelId> want_distinct;
    for (const auto& [label, vertices] : ref.by_label) {
      want_distinct.push_back(label);
      std::vector<VertexId> sorted = vertices;
      std::sort(sorted.begin(), sorted.end());
      std::vector<VertexId> got(g.VerticesWithLabel(label).begin(),
                                g.VerticesWithLabel(label).end());
      EXPECT_EQ(got, sorted) << "vertices with label " << label;
    }
    std::vector<LabelId> got_distinct(g.DistinctLabels().begin(),
                                      g.DistinctLabels().end());
    EXPECT_EQ(got_distinct, want_distinct);
  }
}

/// One test instance: graph + ontology + dictionary covering all type ids.
struct Instance {
  Graph graph;
  Ontology ontology;
  LabelDictionary dict;
};

Instance MakeInstance(uint64_t seed) {
  Instance inst;
  testing::RandomGraphOptions gopt;
  gopt.num_vertices = 24 + seed % 48;
  gopt.edge_density = 1.5 + 0.02 * static_cast<double>(seed % 30);
  gopt.num_labels = 6;
  gopt.label_skew = seed % 3 == 0 ? 0.8 : 0.0;
  gopt.seed = seed;
  testing::RandomOntologyOptions oopt;
  oopt.num_leaves = gopt.num_labels;
  oopt.seed = seed;
  inst.graph = testing::MakeRandomGraph(gopt);
  inst.ontology = testing::MakeRandomOntologyDag(oopt);
  InternDenseLabels(inst.dict, inst.ontology.LabelSlots());
  return inst;
}

StatusOr<BigIndex> BuildIndex(const Instance& inst) {
  return BigIndex::Build(inst.graph, &inst.ontology, {.max_layers = 3});
}

std::string ImageBytes(const BigIndex& index, const LabelDictionary& dict) {
  std::ostringstream out(std::ios::binary);
  Status st = WriteIndexImage(index, dict, out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out.str();
}

/// The registered algorithm set, configured as the CLI configures them.
std::vector<std::unique_ptr<KeywordSearchAlgorithm>> AllAlgorithms() {
  std::vector<std::unique_ptr<KeywordSearchAlgorithm>> algos;
  algos.push_back(std::make_unique<BkwsAlgorithm>(BkwsOptions{.d_max = 4}));
  algos.push_back(
      std::make_unique<BlinksAlgorithm>(BlinksOptions{.d_max = 4}));
  algos.push_back(
      std::make_unique<RCliqueAlgorithm>(RCliqueOptions{.r = 3}));
  algos.push_back(std::make_unique<BidirectionalAlgorithm>(
      BidirectionalOptions{.d_max = 4}));
  return algos;
}

TEST(CsrDifferentialTest, AlgorithmsAgreeAcrossIndexRepresentations) {
  auto algos = AllAlgorithms();
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Instance inst = MakeInstance(static_cast<uint64_t>(seed));
    auto built = BuildIndex(inst);
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    // Flat image, loaded zero-copy from an in-memory buffer.
    auto image = std::make_shared<const std::string>(
        ImageBytes(*built, inst.dict));
    auto from_image =
        LoadIndexImageFromBuffer(image, inst.dict, &inst.ontology);
    ASSERT_TRUE(from_image.ok()) << from_image.status().ToString();
    ASSERT_EQ(from_image->NumLayers(), built->NumLayers());

    // Two queries per seed over labels that occur in the graph.
    Rng rng(static_cast<uint64_t>(seed) * 7919);
    auto distinct = inst.graph.DistinctLabels();
    ASSERT_FALSE(distinct.empty());
    std::vector<std::vector<LabelId>> queries;
    for (size_t nq : {2u, 3u}) {
      std::vector<LabelId> q;
      for (size_t i = 0; i < nq; ++i) {
        q.push_back(distinct[rng.Uniform(distinct.size())]);
      }
      queries.push_back(std::move(q));
    }

    for (const auto& algo : algos) {
      for (size_t layer = 0; layer <= built->NumLayers(); ++layer) {
        EvalOptions eval;
        eval.forced_layer = static_cast<int>(layer);
        for (const auto& q : queries) {
          auto a = EvaluateWithIndex(*built, *algo, q, eval);
          auto c = EvaluateWithIndex(*from_image, *algo, q, eval);
          EXPECT_EQ(a, c) << algo->Name() << " built vs image, layer "
                          << layer;
        }
      }
    }
  }
}

TEST(CsrDifferentialTest, ImageRoundTripsThroughFileAndBuffer) {
  Instance inst = MakeInstance(7);
  auto built = BuildIndex(inst);
  ASSERT_TRUE(built.ok());
  auto image = std::make_shared<const std::string>(
      ImageBytes(*built, inst.dict));

  std::string path = ::testing::TempDir() + "/csr_diff_roundtrip.img";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image->data(), static_cast<std::streamsize>(image->size()));
    ASSERT_TRUE(out.good());
  }
  auto from_file = LoadIndexImage(path, inst.dict, &inst.ontology);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();

  // Re-serializing the loaded index reproduces the image byte for byte:
  // load really is a view of the file, not a rebuild.
  EXPECT_EQ(ImageBytes(*from_file, inst.dict), *image);

  // A fresh dictionary is populated by the load and yields the same ids.
  LabelDictionary fresh;
  auto from_buffer = LoadIndexImageFromBuffer(image, fresh, &inst.ontology);
  ASSERT_TRUE(from_buffer.ok()) << from_buffer.status().ToString();
  EXPECT_EQ(fresh.size(), inst.dict.size());
  EXPECT_EQ(ImageBytes(*from_buffer, fresh), *image);

  // A conflicting dictionary (different string at an interned id) is
  // rejected: silently aliasing label ids would corrupt query results.
  LabelDictionary wrong;
  wrong.Intern("not-the-first-label");
  auto mismatch = LoadIndexImageFromBuffer(image, wrong, &inst.ontology);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bigindex

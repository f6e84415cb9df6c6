// Tests for the workload module: ontology/graph generators, the dataset
// registry, and the query workload generator.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_set>

#include "bisim/bisimulation.h"
#include "core/big_index.h"
#include "core/config_search.h"
#include "core/cost_model.h"
#include "search/bkws.h"
#include "workload/datasets.h"
#include "workload/graph_gen.h"
#include "workload/ontology_gen.h"
#include "workload/query_gen.h"

namespace bigindex {
namespace {

TEST(OntologyGenTest, RespectsShapeParameters) {
  LabelDictionary dict;
  OntologyGenOptions opt;
  opt.height = 5;
  opt.branching = 4.0;
  opt.num_roots = 2;
  opt.max_leaf_types = 200;
  opt.seed = 1;
  GeneratedOntology g = GenerateOntology(dict, opt);
  EXPECT_GT(g.leaf_types.size(), 100u);
  EXPECT_LE(g.leaf_types.size(), 220u);  // near the budget
  // Every leaf sits `height` supertype steps below a root.
  for (size_t i = 0; i < 10; ++i) {
    LabelId leaf = g.leaf_types[i * g.leaf_types.size() / 10];
    EXPECT_EQ(g.ontology.HeightAbove(leaf), opt.height);
  }
}

TEST(OntologyGenTest, LeavesReachRootsInHeightSteps) {
  LabelDictionary dict;
  OntologyGenOptions opt;
  opt.height = 4;
  opt.num_roots = 3;
  opt.max_leaf_types = 100;
  GeneratedOntology g = GenerateOntology(dict, opt);
  // Walking up from any leaf terminates within `height` steps.
  for (LabelId leaf : g.leaf_types) {
    LabelId cur = leaf;
    uint32_t steps = 0;
    while (g.ontology.HasSupertype(cur) && steps <= opt.height) {
      cur = g.ontology.Supertypes(cur).front();
      ++steps;
    }
    ASSERT_LE(steps, opt.height);
    EXPECT_FALSE(g.ontology.HasSupertype(cur));  // reached a root
  }
}

TEST(OntologyGenTest, DeterministicForSeed) {
  LabelDictionary d1, d2;
  OntologyGenOptions opt;
  opt.seed = 42;
  GeneratedOntology a = GenerateOntology(d1, opt);
  GeneratedOntology b = GenerateOntology(d2, opt);
  EXPECT_EQ(a.leaf_types, b.leaf_types);
  EXPECT_EQ(a.ontology.NumEdges(), b.ontology.NumEdges());
}

TEST(OntologyGenTest, SiblingFamiliesAreNontrivial) {
  // The generalization story needs families of >= 2 siblings at the leaf
  // level for a decent share of parents.
  LabelDictionary dict;
  OntologyGenOptions opt;
  opt.height = 6;
  opt.max_leaf_types = 300;
  GeneratedOntology g = GenerateOntology(dict, opt);
  std::unordered_map<LabelId, size_t> family_size;
  for (LabelId leaf : g.leaf_types) {
    family_size[g.ontology.Supertypes(leaf).front()]++;
  }
  size_t with_siblings = 0;
  for (const auto& [parent, count] : family_size) {
    if (count >= 2) ++with_siblings;
  }
  EXPECT_GT(with_siblings, family_size.size() / 3);
}

TEST(GraphGenTest, ProducesRequestedShape) {
  LabelDictionary dict;
  GeneratedOntology ont = GenerateOntology(dict, {.max_leaf_types = 100});
  GraphGenOptions opt;
  opt.num_vertices = 2000;
  opt.num_edges = 6000;
  Graph g = GenerateKnowledgeGraph(ont, opt);
  EXPECT_EQ(g.NumVertices(), 2000u);
  // Edge budget is approximate (duplicates collapse) but close.
  EXPECT_GT(g.NumEdges(), 4000u);
  EXPECT_LE(g.NumEdges(), 6000u);
  // All labels come from the ontology's leaves.
  std::unordered_set<LabelId> leaves(ont.leaf_types.begin(),
                                     ont.leaf_types.end());
  for (LabelId l : g.DistinctLabels()) EXPECT_TRUE(leaves.count(l));
}

TEST(GraphGenTest, DeterministicForSeed) {
  LabelDictionary dict;
  GeneratedOntology ont = GenerateOntology(dict, {.max_leaf_types = 80});
  GraphGenOptions opt;
  opt.num_vertices = 500;
  opt.num_edges = 1500;
  Graph a = GenerateKnowledgeGraph(ont, opt);
  Graph b = GenerateKnowledgeGraph(ont, opt);
  EXPECT_EQ(a.Edges(), b.Edges());
  EXPECT_TRUE(std::equal(a.labels().begin(), a.labels().end(),
                         b.labels().begin(), b.labels().end()));
}

TEST(GraphGenTest, NoiseDegradesCompression) {
  // The central generator property: more noise, less layer-1 compression.
  LabelDictionary dict;
  GeneratedOntology ont = GenerateOntology(dict, {.max_leaf_types = 150});
  auto layer1_ratio = [&](double noise) {
    GraphGenOptions opt;
    opt.num_vertices = 3000;
    opt.num_edges = 9000;
    opt.noise_fraction = noise;
    Graph g = GenerateKnowledgeGraph(ont, opt);
    GeneralizationConfig c = FullOneStepConfiguration(g, ont.ontology);
    return CostModel::ExactCompress(g, c);
  };
  double low_noise = layer1_ratio(0.05);
  double high_noise = layer1_ratio(0.6);
  EXPECT_LT(low_noise, high_noise);
}

TEST(GraphGenTest, GeneralizationUnlocksCompression) {
  // Sibling-family slots: plain bisimulation compresses less than
  // generalize-then-summarize (the paper's core premise).
  LabelDictionary dict;
  GeneratedOntology ont = GenerateOntology(dict, {.max_leaf_types = 150});
  GraphGenOptions opt;
  opt.num_vertices = 3000;
  opt.num_edges = 9000;
  opt.noise_fraction = 0.1;
  Graph g = GenerateKnowledgeGraph(ont, opt);
  BisimResult plain = ComputeBisimulation(g, g.labels());
  double plain_ratio = static_cast<double>(plain.summary.Size()) / g.Size();
  GeneralizationConfig c = FullOneStepConfiguration(g, ont.ontology);
  double gen_ratio = CostModel::ExactCompress(g, c);
  EXPECT_LT(gen_ratio, plain_ratio);
}

TEST(DatasetsTest, AllRegisteredNamesBuild) {
  for (const std::string& name : DatasetNames()) {
    auto ds = MakeDataset(name, 0.001);
    ASSERT_TRUE(ds.ok()) << name;
    EXPECT_GT(ds->graph.NumVertices(), 0u);
    EXPECT_GT(ds->ontology.ontology.NumTypes(), 0u);
    EXPECT_EQ(ds->name, name);
    EXPECT_GT(ds->paper_vertices, 0u);
  }
}

TEST(DatasetsTest, UnknownNameRejected) {
  EXPECT_FALSE(MakeDataset("freebase", 0.01).ok());
  EXPECT_EQ(MakeDataset("freebase", 0.01).status().code(),
            StatusCode::kNotFound);
}

TEST(DatasetsTest, BadScaleRejected) {
  EXPECT_FALSE(MakeDataset("yago3", 0.0).ok());
  EXPECT_FALSE(MakeDataset("yago3", -1.0).ok());
}

TEST(DatasetsTest, ScaleControlsSize) {
  auto small = MakeDataset("yago3", 0.001);
  auto large = MakeDataset("yago3", 0.004);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LT(small->graph.NumVertices() * 3, large->graph.NumVertices());
}

TEST(DatasetsTest, CompressionOrderingMatchesPaper) {
  // Tab. 3 ordering at layer 1: yago3 < imdb < dbpedia (smaller = more
  // compression).
  std::map<std::string, double> ratio;
  for (const char* name : {"yago3", "imdb", "dbpedia"}) {
    auto ds = MakeDataset(name, 0.005);
    ASSERT_TRUE(ds.ok());
    auto index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                                 {.max_layers = 1});
    ASSERT_TRUE(index.ok());
    ratio[name] = index->LayerCompressionRatio(1);
  }
  EXPECT_LT(ratio["yago3"], ratio["imdb"]);
  EXPECT_LT(ratio["imdb"], ratio["dbpedia"]);
}

TEST(QueryGenTest, GeneratesRequestedSizes) {
  auto ds = MakeDataset("yago3", 0.005);
  ASSERT_TRUE(ds.ok());
  QueryGenOptions opt;
  opt.sizes = {2, 3, 4};
  opt.min_count = 5;
  auto workload = GenerateQueryWorkload(*ds, opt);
  ASSERT_EQ(workload.size(), 3u);
  EXPECT_EQ(workload[0].keywords.size(), 2u);
  EXPECT_EQ(workload[1].keywords.size(), 3u);
  EXPECT_EQ(workload[2].keywords.size(), 4u);
}

TEST(QueryGenTest, KeywordsAreDistinctAndFrequent) {
  auto ds = MakeDataset("imdb", 0.005);
  ASSERT_TRUE(ds.ok());
  QueryGenOptions opt;
  opt.min_count = 8;
  auto workload = GenerateQueryWorkload(*ds, opt);
  for (const QuerySpec& q : workload) {
    std::set<LabelId> distinct(q.keywords.begin(), q.keywords.end());
    EXPECT_EQ(distinct.size(), q.keywords.size()) << q.id;
    ASSERT_EQ(q.counts.size(), q.keywords.size());
    for (size_t i = 0; i < q.keywords.size(); ++i) {
      EXPECT_EQ(ds->graph.LabelCount(q.keywords[i]), q.counts[i]);
      // The floor may have been relaxed, but never below 1.
      EXPECT_GE(q.counts[i], 1u);
    }
  }
}

TEST(QueryGenTest, DeterministicForSeed) {
  auto ds = MakeDataset("yago3", 0.003);
  ASSERT_TRUE(ds.ok());
  QueryGenOptions opt;
  opt.min_count = 5;
  auto w1 = GenerateQueryWorkload(*ds, opt);
  auto w2 = GenerateQueryWorkload(*ds, opt);
  ASSERT_EQ(w1.size(), w2.size());
  for (size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].keywords, w2[i].keywords);
  }
}

TEST(QueryGenTest, QueriesHaveAnswers) {
  // Keywords come from one vertex's neighborhood, so a search should find
  // connections for at least most queries.
  auto ds = MakeDataset("yago3", 0.005);
  ASSERT_TRUE(ds.ok());
  QueryGenOptions opt;
  opt.sizes = {2, 2, 3};
  opt.min_count = 5;
  auto workload = GenerateQueryWorkload(*ds, opt);
  size_t with_answers = 0;
  for (const QuerySpec& q : workload) {
    auto answers = BackwardKeywordSearch(ds->graph, q.keywords, {.d_max = 6});
    if (!answers.empty()) ++with_answers;
  }
  EXPECT_GE(with_answers, workload.size() / 2);
}

TEST(QueryGenTest, WorkloadToStringRendersAllQueries) {
  auto ds = MakeDataset("yago3", 0.002);
  ASSERT_TRUE(ds.ok());
  QueryGenOptions opt;
  opt.sizes = {2, 2};
  opt.min_count = 2;
  auto workload = GenerateQueryWorkload(*ds, opt);
  std::string rendered = WorkloadToString(*ds, workload);
  for (const QuerySpec& q : workload) {
    EXPECT_NE(rendered.find(q.id), std::string::npos);
  }
}

}  // namespace
}  // namespace bigindex

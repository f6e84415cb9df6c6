// Tests for the BiG-index core: cost model (Formula 3), configuration search
// (Algorithm 1), hierarchy construction (Def 3.1), query-layer selection
// (Formula 4 / Def 4.1), and maintenance.

#include <gtest/gtest.h>

#include "core/big_index.h"
#include "core/config_search.h"
#include "core/cost_model.h"
#include "core/query.h"
#include "update/maintain.h"
#include "util/random.h"
#include "workload/datasets.h"
#include "workload/graph_gen.h"
#include "workload/ontology_gen.h"

namespace bigindex {
namespace {

// A two-level ontology over 6 leaf labels: {0,1,2}->6, {3,4}->7, {5}->8,
// and 6,7,8 -> 9 ("Thing").
struct Fixture {
  Ontology ont;

  Fixture() {
    OntologyBuilder b;
    b.AddSupertypeEdge(0, 6);
    b.AddSupertypeEdge(1, 6);
    b.AddSupertypeEdge(2, 6);
    b.AddSupertypeEdge(3, 7);
    b.AddSupertypeEdge(4, 7);
    b.AddSupertypeEdge(5, 8);
    b.AddSupertypeEdge(6, 9);
    b.AddSupertypeEdge(7, 9);
    b.AddSupertypeEdge(8, 9);
    ont = std::move(b.Build()).value();
  }
};

Graph MotifGraph(uint64_t seed, size_t n, size_t m) {
  Rng rng(seed);
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) {
    b.AddVertex(static_cast<LabelId>(rng.Uniform(6)));
  }
  // Fan-in motifs for compressibility.
  size_t made = 0;
  while (made < m) {
    VertexId hub = static_cast<VertexId>(rng.Uniform(n));
    size_t batch = rng.UniformRange(3, 10);
    for (size_t i = 0; i < batch && made < m; ++i) {
      VertexId src = static_cast<VertexId>(rng.Uniform(n));
      if (src != hub) {
        b.AddEdge(src, hub);
        ++made;
      }
    }
  }
  return std::move(b.Build()).value();
}

// ---- cost model ----

TEST(CostModelTest, EmptyConfigHasZeroDistort) {
  Fixture f;
  Graph g = MotifGraph(1, 200, 400);
  CostModel model(g, {.sample_count = 50});
  GeneralizationConfig empty;
  EXPECT_DOUBLE_EQ(model.Distort(empty), 0.0);
}

TEST(CostModelTest, DistortGrowsWithFamilySize) {
  Fixture f;
  Graph g = MotifGraph(2, 200, 400);
  CostModel model(g, {.sample_count = 50});

  GeneralizationConfig lone;  // only label 5 -> 8: family of 1, distort 0
  ASSERT_TRUE(lone.AddMapping(5, 8).ok());
  EXPECT_DOUBLE_EQ(model.Distort(lone), 0.0);

  GeneralizationConfig family;  // {0,1,2} -> 6: families of 3
  ASSERT_TRUE(family.AddMapping(0, 6).ok());
  ASSERT_TRUE(family.AddMapping(1, 6).ok());
  ASSERT_TRUE(family.AddMapping(2, 6).ok());
  EXPECT_GT(model.Distort(family), 0.0);
  EXPECT_LT(model.Distort(family), 1.0);
}

TEST(CostModelTest, DistortExampleFromPaper) {
  // Example 3.1: two labels generalized to the same supertype each have
  // distort 1/2.
  Graph g = MotifGraph(3, 100, 200);
  CostModel model(g, {.sample_count = 10});
  GeneralizationConfig c;
  ASSERT_TRUE(c.AddMapping(0, 6).ok());
  ASSERT_TRUE(c.AddMapping(1, 6).ok());
  // distort(ℓ) = 1 - 1/2 for both; weighted normalization over |X| = 2 with
  // equal per-label formula gives 0.5 / 2 = 0.25.
  EXPECT_NEAR(model.Distort(c), 0.25, 1e-9);
}

TEST(CostModelTest, GeneralizationImprovesCompress) {
  Graph g = MotifGraph(4, 400, 1200);
  CostModel model(g, {.sample_count = 100, .seed = 5});
  GeneralizationConfig none;
  GeneralizationConfig all;
  for (LabelId l = 0; l < 6; ++l) {
    ASSERT_TRUE(all.AddMapping(l, l < 3 ? 6 : (l < 5 ? 7 : 8)).ok());
  }
  // Merging labels can only increase bisimilarity.
  EXPECT_LE(model.EstimateCompress(all), model.EstimateCompress(none) + 1e-9);
}

TEST(CostModelTest, EstimateTracksExactCompress) {
  Graph g = MotifGraph(5, 500, 1500);
  CostModel model(g, {.sample_radius = 2, .sample_count = 300, .seed = 7});
  GeneralizationConfig all;
  for (LabelId l = 0; l < 6; ++l) {
    ASSERT_TRUE(all.AddMapping(l, l < 3 ? 6 : (l < 5 ? 7 : 8)).ok());
  }
  double estimated = model.EstimateCompress(all);
  double exact = CostModel::ExactCompress(g, all);
  // The estimator indicates the ballpark (the paper validates *relative*
  // ordering, Fig 16); allow generous tolerance.
  EXPECT_NEAR(estimated, exact, 0.35);
}

TEST(CostModelTest, CostCombinesTerms) {
  Graph g = MotifGraph(6, 100, 200);
  CostModelOptions opt{.alpha = 1.0, .sample_count = 30};
  CostModel compress_only(g, opt);
  GeneralizationConfig c;
  ASSERT_TRUE(c.AddMapping(0, 6).ok());
  ASSERT_TRUE(c.AddMapping(1, 6).ok());
  EXPECT_DOUBLE_EQ(compress_only.Cost(c), compress_only.EstimateCompress(c));
  opt.alpha = 0.0;
  CostModel distort_only(g, opt);
  EXPECT_DOUBLE_EQ(distort_only.Cost(c), distort_only.Distort(c));
}

// ---- config search ----

TEST(ConfigSearchTest, FullOneStepMapsEveryLabelWithSupertype) {
  Fixture f;
  Graph g = MotifGraph(7, 100, 200);
  GeneralizationConfig c = FullOneStepConfiguration(g, f.ont);
  EXPECT_TRUE(c.Validate(f.ont).ok());
  for (LabelId l : g.DistinctLabels()) {
    if (f.ont.HasSupertype(l)) {
      EXPECT_TRUE(c.Maps(l)) << "label " << l;
    } else {
      EXPECT_FALSE(c.Maps(l));
    }
  }
}

TEST(ConfigSearchTest, GreedyRespectsBudgetPi) {
  Fixture f;
  Graph g = MotifGraph(8, 200, 500);
  ConfigSearchOptions opt;
  opt.pi = 2;
  opt.theta = 10.0;  // no cost limit
  opt.cost.sample_count = 30;
  GeneralizationConfig c = FindConfiguration(g, f.ont, opt);
  EXPECT_LE(c.size(), 2u);
  EXPECT_TRUE(c.Validate(f.ont).ok());
}

TEST(ConfigSearchTest, GreedyRespectsThetaZero) {
  Fixture f;
  Graph g = MotifGraph(9, 200, 500);
  ConfigSearchOptions opt;
  opt.theta = 0.0;  // nothing is cheap enough
  opt.cost.sample_count = 30;
  GeneralizationConfig c = FindConfiguration(g, f.ont, opt);
  EXPECT_TRUE(c.empty());
}

TEST(ConfigSearchTest, GreedyProducesValidLowCostConfig) {
  Fixture f;
  Graph g = MotifGraph(10, 300, 900);
  ConfigSearchOptions opt;
  opt.theta = 0.9;
  opt.cost.sample_count = 50;
  GeneralizationConfig c = FindConfiguration(g, f.ont, opt);
  EXPECT_TRUE(c.Validate(f.ont).ok());
  CostModel model(g, opt.cost);
  if (!c.empty()) {
    EXPECT_LE(model.Cost(c), opt.theta + 1e-9);
  }
}

// ---- BigIndex construction ----

TEST(BigIndexTest, BuildsLayersAndShrinks) {
  Fixture f;
  Graph g = MotifGraph(11, 500, 1500);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 4});
  ASSERT_TRUE(index.ok());
  EXPECT_GE(index->NumLayers(), 1u);
  // Summary layers never grow.
  for (size_t m = 1; m <= index->NumLayers(); ++m) {
    EXPECT_LE(index->LayerGraph(m).Size(), index->LayerGraph(m - 1).Size());
  }
  EXPECT_LT(index->LayerCompressionRatio(index->NumLayers()), 1.0);
}

TEST(BigIndexTest, NullOntologyRejected) {
  Graph g = MotifGraph(12, 50, 100);
  EXPECT_FALSE(BigIndex::Build(std::move(g), nullptr, {}).ok());
}

TEST(BigIndexTest, MapUpAndSpecializeAreInverse) {
  Fixture f;
  Graph g = MotifGraph(13, 300, 900);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  for (size_t m = 1; m <= index->NumLayers(); ++m) {
    const Graph& lower = index->LayerGraph(m - 1);
    for (VertexId v = 0; v < lower.NumVertices(); ++v) {
      VertexId super = index->MapUp(v, m - 1, m);
      auto members = index->SpecializeVertex(super, m);
      EXPECT_TRUE(std::find(members.begin(), members.end(), v) !=
                  members.end());
    }
  }
}

TEST(BigIndexTest, LayerLabelsAreGeneralizations) {
  Fixture f;
  Graph g = MotifGraph(14, 200, 600);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  const Graph& base = index->base();
  for (size_t m = 1; m <= index->NumLayers(); ++m) {
    const Graph& layer = index->LayerGraph(m);
    for (VertexId v = 0; v < base.NumVertices(); ++v) {
      VertexId super = index->MapUp(v, 0, m);
      EXPECT_EQ(layer.label(super),
                index->GeneralizeLabel(base.label(v), m));
    }
  }
}

TEST(BigIndexTest, PathPreservationAcrossLayers) {
  // Prop 5.1 lifted through the whole hierarchy: every base edge maps to an
  // edge at every layer.
  Fixture f;
  Graph g = MotifGraph(15, 300, 900);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  for (size_t m = 1; m <= index->NumLayers(); ++m) {
    const Graph& layer = index->LayerGraph(m);
    for (const auto& [u, v] : index->base().Edges()) {
      EXPECT_TRUE(
          layer.HasEdge(index->MapUp(u, 0, m), index->MapUp(v, 0, m)));
    }
  }
}

TEST(BigIndexTest, GeneralizeKeywordsChainsConfigs) {
  Fixture f;
  Graph g = MotifGraph(16, 200, 400);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  ASSERT_GE(index->NumLayers(), 2u);
  // Layer 1 lifts leaves to mid types; layer 2 lifts mids to the root type.
  EXPECT_EQ(index->GeneralizeLabel(0, 1), 6u);
  EXPECT_EQ(index->GeneralizeLabel(0, 2), 9u);
  auto q = index->GeneralizeKeywords({0, 3}, 1);
  EXPECT_EQ(q, (std::vector<LabelId>{6, 7}));
}

TEST(BigIndexTest, StopsWhenNothingToGain) {
  // All labels already roots: configs are empty; an incompressible graph
  // (distinct labels) stops layering immediately.
  OntologyBuilder ob;
  ob.AddSupertypeEdge(100, 101);  // unrelated to the graph's labels
  Ontology ont = std::move(ob.Build()).value();
  GraphBuilder b;
  for (int i = 0; i < 10; ++i) b.AddVertex(static_cast<LabelId>(i));
  for (int i = 0; i + 1 < 10; ++i) {
    b.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  auto index = BigIndex::Build(std::move(b.Build()).value(), &ont,
                               {.max_layers = 5});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->NumLayers(), 0u);
}

TEST(BigIndexTest, GreedyConfigModeBuilds) {
  Fixture f;
  Graph g = MotifGraph(17, 200, 600);
  BigIndexOptions opt;
  opt.max_layers = 2;
  opt.use_greedy_config = true;
  opt.config_search.theta = 0.95;
  opt.config_search.cost.sample_count = 30;
  auto index = BigIndex::Build(std::move(g), &f.ont, opt);
  ASSERT_TRUE(index.ok());
  for (size_t m = 1; m <= index->NumLayers(); ++m) {
    EXPECT_TRUE(index->Layer(m).config.Validate(f.ont).ok());
  }
}

TEST(BigIndexTest, TotalSummarySize) {
  Fixture f;
  Graph g = MotifGraph(18, 200, 600);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  size_t total = 0;
  for (size_t m = 1; m <= index->NumLayers(); ++m) {
    total += index->LayerGraph(m).Size();
  }
  EXPECT_EQ(index->TotalSummarySize(), total);
}

// ---- maintenance ----

TEST(BigIndexMaintenanceTest, UpdatesKeepInvariants) {
  Fixture f;
  Graph g = MotifGraph(19, 200, 500);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 3});
  ASSERT_TRUE(index.ok());

  std::vector<GraphUpdate> ups = {
      {GraphUpdate::Kind::kAddEdge, 1, 2},
      {GraphUpdate::Kind::kAddEdge, 3, 4},
      {GraphUpdate::Kind::kRemoveEdge, 0, 1},
  };
  auto maintained = MaintainIndex(*index, ups);
  ASSERT_TRUE(maintained.ok());
  EXPECT_TRUE(maintained->base().HasEdge(1, 2));
  EXPECT_TRUE(maintained->base().HasEdge(3, 4));
  EXPECT_FALSE(maintained->base().HasEdge(0, 1));

  // Invariants hold after maintenance: path preservation at every layer.
  for (size_t m = 1; m <= maintained->NumLayers(); ++m) {
    const Graph& layer = maintained->LayerGraph(m);
    for (const auto& [u, v] : maintained->base().Edges()) {
      EXPECT_TRUE(layer.HasEdge(maintained->MapUp(u, 0, m),
                                maintained->MapUp(v, 0, m)));
    }
  }
}

TEST(BigIndexMaintenanceTest, BadUpdateRejected) {
  Fixture f;
  Graph g = MotifGraph(21, 50, 100);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  std::vector<GraphUpdate> ups = {{GraphUpdate::Kind::kAddEdge, 0, 999999}};
  EXPECT_FALSE(MaintainIndex(*index, ups).ok());
}

// ---- query layer selection ----

TEST(QueryLayerTest, DistinctnessCondition) {
  Fixture f;
  Graph g = MotifGraph(22, 300, 900);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  ASSERT_GE(index->NumLayers(), 2u);
  // 0 and 1 both generalize to 6 at layer 1: not distinct there.
  EXPECT_TRUE(QueryDistinctAtLayer(*index, {0, 1}, 0));
  EXPECT_FALSE(QueryDistinctAtLayer(*index, {0, 1}, 1));
  // 0 and 3 stay distinct at layer 1 (6 vs 7) but merge at layer 2 (9).
  EXPECT_TRUE(QueryDistinctAtLayer(*index, {0, 3}, 1));
  EXPECT_FALSE(QueryDistinctAtLayer(*index, {0, 3}, 2));
}

TEST(QueryLayerTest, OptimalLayerRespectsDistinctness) {
  Fixture f;
  Graph g = MotifGraph(23, 300, 900);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  for (double beta : {0.1, 0.5, 0.9}) {
    size_t m = OptimalQueryLayer(*index, {0, 3}, beta);
    EXPECT_TRUE(QueryDistinctAtLayer(*index, {0, 3}, m));
    EXPECT_LE(m, index->NumLayers());
  }
}

TEST(QueryLayerTest, CostTradesSizeAgainstSupport) {
  Fixture f;
  Graph g = MotifGraph(24, 400, 1200);
  auto index = BigIndex::Build(std::move(g), &f.ont, {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  ASSERT_GE(index->NumLayers(), 1u);
  // β = 1: only graph size matters -> higher layers are never worse.
  double c0 = QueryLayerCost(*index, {0, 3}, 0, 1.0);
  double c1 = QueryLayerCost(*index, {0, 3}, 1, 1.0);
  EXPECT_LE(c1, c0 + 1e-9);
  // β = 0: only keyword support matters -> layer 0 is never worse.
  double s0 = QueryLayerCost(*index, {0, 3}, 0, 0.0);
  double s1 = QueryLayerCost(*index, {0, 3}, 1, 0.0);
  EXPECT_LE(s0, s1 + 1e-9);
}

}  // namespace
}  // namespace bigindex

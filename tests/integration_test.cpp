// End-to-end integration tests across modules: dataset -> files -> reload ->
// index -> query equality; serialized-index querying; fast-mode (Prop 5.3)
// properties against exact mode; and maintenance under updates followed by
// querying.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "bigindex.h"
#include "search/bidirectional.h"

namespace bigindex {
namespace {

using RootScore = std::pair<VertexId, uint32_t>;

std::set<RootScore> RootScores(const std::vector<Answer>& answers) {
  std::set<RootScore> out;
  for (const Answer& a : answers) out.emplace(a.root, a.score);
  return out;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("bigindex_it_") + name))
      .string();
}

TEST(IntegrationTest, FileRoundTripPreservesQueryResults) {
  auto ds = MakeDataset("yago3", 0.003);
  ASSERT_TRUE(ds.ok());

  std::string gpath = TempPath("g.txt");
  std::string opath = TempPath("o.txt");
  ASSERT_TRUE(SaveGraphFile(ds->graph, *ds->dict, gpath).ok());
  ASSERT_TRUE(
      SaveOntologyFile(ds->ontology.ontology, *ds->dict, opath).ok());

  LabelDictionary dict2;
  auto g2 = LoadGraphFile(gpath, dict2);
  ASSERT_TRUE(g2.ok());
  auto o2 = LoadOntologyFile(opath, dict2);
  ASSERT_TRUE(o2.ok());

  // Same query expressed through each dictionary gives the same answers.
  QueryGenOptions qopt;
  qopt.sizes = {2, 3};
  qopt.min_count = 5;
  auto workload = GenerateQueryWorkload(*ds, qopt);
  ASSERT_FALSE(workload.empty());
  BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
  for (const QuerySpec& q : workload) {
    std::vector<LabelId> translated;
    for (LabelId l : q.keywords) {
      translated.push_back(dict2.Find(ds->dict->Name(l)));
      ASSERT_NE(translated.back(), kInvalidLabel);
    }
    auto original = bkws.Evaluate(ds->graph, q.keywords);
    auto reloaded = bkws.Evaluate(*g2, translated);
    EXPECT_EQ(RootScores(original), RootScores(reloaded)) << q.id;
  }
  std::remove(gpath.c_str());
  std::remove(opath.c_str());
}

TEST(IntegrationTest, SerializedIndexAnswersLikeFreshIndex) {
  auto ds = MakeDataset("imdb", 0.003);
  ASSERT_TRUE(ds.ok());
  auto index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                               {.max_layers = 3});
  ASSERT_TRUE(index.ok());

  std::string ipath = TempPath("i.img");
  ASSERT_TRUE(SaveIndexImageFile(*index, *ds->dict, ipath).ok());
  auto loaded = LoadIndexImage(ipath, *ds->dict, &ds->ontology.ontology);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  QueryGenOptions qopt;
  qopt.sizes = {2, 2, 3};
  qopt.min_count = 5;
  auto workload = GenerateQueryWorkload(*ds, qopt);
  BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
  for (const QuerySpec& q : workload) {
    auto fresh = EvaluateWithIndex(*index, bkws, q.keywords, {});
    auto reloaded = EvaluateWithIndex(*loaded, bkws, q.keywords, {});
    EXPECT_EQ(RootScores(fresh), RootScores(reloaded)) << q.id;
  }
  std::remove(ipath.c_str());
}

TEST(IntegrationTest, FastModeAnswersAreValidUpperBounds) {
  // Prop 5.3 mode: every fast-mode answer names a genuine root whose exact
  // score is <= the fast (generalized) score, and exact mode's root set is a
  // superset of fast mode's.
  auto ds = MakeDataset("yago3", 0.004);
  ASSERT_TRUE(ds.ok());
  auto index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                               {.max_layers = 2});
  ASSERT_TRUE(index.ok());

  QueryGenOptions qopt;
  qopt.sizes = {2, 3};
  qopt.min_count = 5;
  auto workload = GenerateQueryWorkload(*ds, qopt);
  BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
  for (const QuerySpec& q : workload) {
    EvalOptions fast;
    fast.forced_layer = 1;
    fast.exact_verification = false;
    auto fast_answers = EvaluateWithIndex(*index, bkws, q.keywords, fast);

    EvalOptions exact;
    exact.forced_layer = 1;
    auto exact_answers = EvaluateWithIndex(*index, bkws, q.keywords, exact);
    std::set<VertexId> exact_roots;
    std::map<VertexId, uint32_t> exact_score;
    for (const Answer& a : exact_answers) {
      exact_roots.insert(a.root);
      exact_score[a.root] = a.score;
    }
    for (const Answer& a : fast_answers) {
      EXPECT_TRUE(exact_roots.count(a.root))
          << q.id << " fast root " << a.root << " is not a true root";
      if (exact_roots.count(a.root)) {
        EXPECT_GE(a.score, exact_score[a.root])
            << q.id << " fast score must upper-bound the exact score";
      }
    }
  }
}

TEST(IntegrationTest, MaintenanceThenQueryStaysEquivalent) {
  auto ds = MakeDataset("yago3", 0.002);
  ASSERT_TRUE(ds.ok());
  auto index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                               {.max_layers = 2});
  ASSERT_TRUE(index.ok());

  // Mutate: rewire a handful of edges.
  Rng rng(5);
  std::vector<GraphUpdate> ups;
  const size_t n = index->base().NumVertices();
  for (int i = 0; i < 10; ++i) {
    ups.push_back({GraphUpdate::Kind::kAddEdge,
                   static_cast<VertexId>(rng.Uniform(n)),
                   static_cast<VertexId>(rng.Uniform(n))});
  }
  auto maintained = MaintainIndex(*index, ups);
  ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();

  // Post-update hierarchy answers == direct answers on the updated graph.
  QueryGenOptions qopt;
  qopt.sizes = {2, 2};
  qopt.min_count = 5;
  auto workload = GenerateQueryWorkload(*ds, qopt);
  BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
  for (const QuerySpec& q : workload) {
    auto direct = bkws.Evaluate(maintained->base(), q.keywords);
    auto hier = EvaluateWithIndex(*maintained, bkws, q.keywords,
                                  {.forced_layer = 1});
    EXPECT_EQ(RootScores(hier), RootScores(direct)) << q.id;
  }
}

TEST(IntegrationTest, AllFourSemanticsRunThroughOneIndex) {
  auto ds = MakeDataset("yago3", 0.003);
  ASSERT_TRUE(ds.ok());
  auto index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                               {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  QueryGenOptions qopt;
  qopt.sizes = {2};
  qopt.min_count = 8;
  auto workload = GenerateQueryWorkload(*ds, qopt);
  ASSERT_FALSE(workload.empty());
  const auto& q = workload[0].keywords;

  BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
  BlinksAlgorithm blinks({.d_max = 4, .top_k = 0});
  BidirectionalAlgorithm bidi({.d_max = 4, .top_k = 0});
  RCliqueAlgorithm rclique({.r = 3, .top_k = 10});

  auto a1 = EvaluateWithIndex(*index, bkws, q, {});
  auto a2 = EvaluateWithIndex(*index, blinks, q, {});
  auto a3 = EvaluateWithIndex(*index, bidi, q, {});
  auto a4 = EvaluateWithIndex(*index, rclique, q, {.top_k = 10});

  // The three rooted semantics agree exactly; r-clique returns valid
  // cliques (possibly empty if nothing is within r).
  EXPECT_EQ(RootScores(a1), RootScores(a2));
  EXPECT_EQ(RootScores(a1), RootScores(a3));
  for (const Answer& a : a4) {
    EXPECT_EQ(a.keyword_vertices.size(), q.size());
  }
}

}  // namespace
}  // namespace bigindex

// Cross-cutting consistency sweeps: parameterized equivalence of the whole
// pipeline across generated datasets and query shapes, r-clique top-k
// consistency against exhaustive enumeration, and Blinks early-termination
// invariance over many seeds. These run on the same generators the benches
// use, tying the reproduction workloads into the correctness suite.

#include <gtest/gtest.h>

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

// ---------- dataset-level Thm 4.2 sweep ----------

struct DatasetCase {
  const char* name;
  double scale;
  size_t query_size;
  uint64_t query_seed;
};

void PrintTo(const DatasetCase& c, std::ostream* os) {
  *os << c.name << "/s" << c.scale << "/q" << c.query_size << "/seed"
      << c.query_seed;
}

class DatasetEquivalenceTest : public ::testing::TestWithParam<DatasetCase> {
 protected:
  void SetUp() override {
    auto ds = MakeDataset(GetParam().name, GetParam().scale);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<Dataset>(std::move(ds).value());
    auto index = BigIndex::Build(dataset_->graph,
                                 &dataset_->ontology.ontology,
                                 {.max_layers = 2});
    ASSERT_TRUE(index.ok());
    index_ = std::make_unique<BigIndex>(std::move(index).value());

    // The first of a few generated queries whose direct answer is
    // non-empty, so no case compares two empty answer lists.
    QueryGenOptions qopt;
    qopt.sizes.assign(4, GetParam().query_size);
    qopt.min_count = 5;
    qopt.seed = GetParam().query_seed;
    BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
    for (const QuerySpec& q : GenerateQueryWorkload(*dataset_, qopt)) {
      if (!bkws.Evaluate(dataset_->graph, q.keywords).empty()) {
        query_ = q.keywords;
        break;
      }
    }
    ASSERT_FALSE(query_.empty()) << "no generated query has an answer";
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<BigIndex> index_;
  std::vector<LabelId> query_;
};

TEST_P(DatasetEquivalenceTest, BkwsThm42) {
  BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
  auto direct = RootScores(bkws.Evaluate(index_->base(), query_));
  for (size_t m = 0; m <= index_->NumLayers(); ++m) {
    if (!QueryDistinctAtLayer(*index_, query_, m)) continue;
    auto hier = EvaluateWithIndex(*index_, bkws, query_,
                                  {.forced_layer = static_cast<int>(m)});
    EXPECT_EQ(RootScores(hier), direct) << "layer " << m;
  }
}

// The three rooted semantics share one keyword-cone kernel and one witness
// rule: full answers (root, score, vertices, keyword vertices) are equal.
TEST_P(DatasetEquivalenceTest, BidirectionalAgreesWithBkws) {
  BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
  BlinksAlgorithm blinks({.d_max = 4, .top_k = 0});
  BidirectionalAlgorithm bidi({.d_max = 4, .top_k = 0});
  auto want = bkws.Evaluate(index_->base(), query_);
  EXPECT_EQ(bidi.Evaluate(index_->base(), query_), want);
  EXPECT_EQ(blinks.Evaluate(index_->base(), query_), want);
}

TEST_P(DatasetEquivalenceTest, GeneralizedAnswersCoverDirectRoots) {
  // Lemma 4.1 at the system level: every direct answer root's image appears
  // among the generalized answers' root candidates at layer 1.
  if (index_->NumLayers() < 1) GTEST_SKIP();
  if (!QueryDistinctAtLayer(*index_, query_, 1)) GTEST_SKIP();
  BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
  auto direct = bkws.Evaluate(index_->base(), query_);

  auto qm = index_->GeneralizeKeywords(query_, 1);
  auto generalized = bkws.Evaluate(index_->LayerGraph(1), qm);
  std::set<VertexId> generalized_roots;
  for (const Answer& a : generalized) generalized_roots.insert(a.root);
  for (const Answer& a : direct) {
    EXPECT_TRUE(generalized_roots.count(index_->MapUp(a.root, 0, 1)))
        << "root " << a.root;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, DatasetEquivalenceTest,
    ::testing::Values(DatasetCase{"yago3", 0.002, 2, 1},
                      DatasetCase{"yago3", 0.002, 3, 2},
                      DatasetCase{"dbpedia", 0.001, 2, 3},
                      DatasetCase{"imdb", 0.002, 2, 4},
                      DatasetCase{"imdb", 0.002, 3, 5},
                      DatasetCase{"synt-1m", 0.01, 2, 6}));

// ---------- r-clique: greedy top-k vs exhaustive enumeration ----------

struct RCliqueCase {
  uint64_t seed;
  size_t n, m;
};

void PrintTo(const RCliqueCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "/n" << c.n << "/m" << c.m;
}

class RCliqueConsistencyTest : public ::testing::TestWithParam<RCliqueCase> {
};

Graph SmallRandomGraph(uint64_t seed, size_t n, size_t m) {
  Rng rng(seed);
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) {
    b.AddVertex(static_cast<LabelId>(rng.Uniform(4)));
  }
  for (size_t i = 0; i < m; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.Uniform(n)),
              static_cast<VertexId>(rng.Uniform(n)));
  }
  return std::move(b.Build()).value();
}

TEST_P(RCliqueConsistencyTest, EveryGreedyAnswerAppearsInEnumeration) {
  const auto& c = GetParam();
  Graph g = SmallRandomGraph(c.seed, c.n, c.m);
  auto index = NeighborIndex::Build(g, 3);
  ASSERT_TRUE(index.ok());
  auto greedy = RCliqueSearch(g, *index, {0, 1}, {.r = 3, .top_k = 50});
  auto all = RCliqueEnumerateAll(g, *index, {0, 1}, 3);
  std::set<std::vector<VertexId>> valid;
  for (const Answer& a : all) valid.insert(a.keyword_vertices);
  for (const Answer& a : greedy) {
    EXPECT_TRUE(valid.count(a.keyword_vertices))
        << "greedy produced an invalid tuple";
  }
}

TEST_P(RCliqueConsistencyTest, TwoKeywordTopKIsExact) {
  // With |Q| = 2 the greedy candidate for each anchor IS the optimum for
  // that anchor, and Lawler decomposition enumerates disjoint spaces — the
  // top-k weights must match enumeration's top-k weights.
  const auto& c = GetParam();
  Graph g = SmallRandomGraph(c.seed ^ 0xAA, c.n, c.m);
  auto index = NeighborIndex::Build(g, 3);
  ASSERT_TRUE(index.ok());
  auto greedy = RCliqueSearch(g, *index, {0, 1}, {.r = 3, .top_k = 5});
  auto all = RCliqueEnumerateAll(g, *index, {0, 1}, 3);
  for (size_t i = 0; i < greedy.size() && i < all.size(); ++i) {
    EXPECT_EQ(greedy[i].score, all[i].score) << "rank " << i;
  }
  EXPECT_EQ(greedy.size(), std::min<size_t>(5, all.size()));
}

INSTANTIATE_TEST_SUITE_P(Random, RCliqueConsistencyTest,
                         ::testing::Values(RCliqueCase{1, 40, 100},
                                           RCliqueCase{2, 60, 150},
                                           RCliqueCase{3, 50, 200},
                                           RCliqueCase{4, 30, 60},
                                           RCliqueCase{5, 70, 210}));

// ---------- Blinks early termination invariance ----------

TEST(BlinksConsistencyTest, EarlyTerminationNeverChangesTopK) {
  for (uint64_t seed = 100; seed < 112; ++seed) {
    Rng rng(seed);
    GraphBuilder b;
    for (int i = 0; i < 150; ++i) {
      b.AddVertex(static_cast<LabelId>(rng.Uniform(5)));
    }
    for (int i = 0; i < 450; ++i) {
      b.AddEdge(static_cast<VertexId>(rng.Uniform(150)),
                static_cast<VertexId>(rng.Uniform(150)));
    }
    Graph g = std::move(b.Build()).value();
    auto full = BlinksSearch(g, {0, 1, 2}, {.d_max = 5, .top_k = 0});
    for (size_t k : {1, 3, 7}) {
      auto topk = BlinksSearch(g, {0, 1, 2}, {.d_max = 5, .top_k = k});
      size_t expect = std::min(k, full.size());
      ASSERT_EQ(topk.size(), expect) << "seed " << seed << " k " << k;
      for (size_t i = 0; i < expect; ++i) {
        EXPECT_EQ(topk[i].root, full[i].root) << "seed " << seed;
        EXPECT_EQ(topk[i].score, full[i].score);
      }
    }
  }
}

}  // namespace
}  // namespace bigindex

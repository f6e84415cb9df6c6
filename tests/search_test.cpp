// Tests for the three keyword search semantics: bkws (backward search),
// Blinks (ranked distinct-root top-k), and
// r-clique (distance-bounded multi-center answers + neighbor index).

#include <gtest/gtest.h>

#include <set>

#include "graph/traversal.h"
#include "search/answer.h"
#include "search/bkws.h"
#include "search/blinks.h"
#include "search/partitioner.h"
#include "search/rclique.h"
#include "util/random.h"

namespace bigindex {
namespace {

Graph BuildGraph(std::vector<LabelId> labels,
                 std::vector<std::pair<VertexId, VertexId>> edges) {
  GraphBuilder b;
  for (LabelId l : labels) b.AddVertex(l);
  for (auto [u, v] : edges) b.AddEdge(u, v);
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

Graph RandomGraph(uint64_t seed, size_t n, size_t m, size_t num_labels) {
  Rng rng(seed);
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) {
    b.AddVertex(static_cast<LabelId>(rng.Uniform(num_labels)));
  }
  for (size_t i = 0; i < m; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.Uniform(n)),
              static_cast<VertexId>(rng.Uniform(n)));
  }
  return std::move(b.Build()).value();
}

// ---------- answer helpers ----------

TEST(AnswerTest, DeterministicOrdering) {
  Answer a{.vertices = {1}, .keyword_vertices = {1}, .root = 1, .score = 3};
  Answer b{.vertices = {2}, .keyword_vertices = {2}, .root = 2, .score = 3};
  Answer c{.vertices = {0}, .keyword_vertices = {0}, .root = 0, .score = 1};
  std::vector<Answer> v{b, a, c};
  SortAnswers(v);
  EXPECT_EQ(v[0].root, 0u);
  EXPECT_EQ(v[1].root, 1u);
  EXPECT_EQ(v[2].root, 2u);
}

TEST(AnswerTest, CanonicalizeDedupsAndSorts) {
  Answer a;
  a.vertices = {5, 2, 5, 1};
  CanonicalizeAnswer(a);
  EXPECT_EQ(a.vertices, (std::vector<VertexId>{1, 2, 5}));
}

TEST(AnswerTest, ConnectivityCheck) {
  Graph g = BuildGraph({0, 0, 0, 0}, {{0, 1}, {2, 3}});
  Answer connected;
  connected.vertices = {0, 1};
  Answer split;
  split.vertices = {0, 3};
  EXPECT_TRUE(AnswerIsConnected(g, connected));
  EXPECT_FALSE(AnswerIsConnected(g, split));
}

TEST(AnswerTest, ToStringSmoke) {
  Answer a{.vertices = {1, 2}, .keyword_vertices = {2}, .root = 1, .score = 7};
  EXPECT_EQ(AnswerToString(a), "root=1 score=7 kw=[2] V={1,2}");
}

// ---------- bkws ----------

// Paper Fig. 1 in miniature:
//   r(0,Root) -> a(1,KwA) ; r -> m(2,Mid) -> b(3,KwB)
// Query {KwA, KwB}: root 0 with dists 1 and 2, score 3.
TEST(BkwsTest, FindsRootedTree) {
  Graph g = BuildGraph({0, 1, 2, 3}, {{0, 1}, {0, 2}, {2, 3}});
  auto answers = BackwardKeywordSearch(g, {1, 3}, {.d_max = 3});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].root, 0u);
  EXPECT_EQ(answers[0].score, 3u);
  EXPECT_EQ(answers[0].keyword_vertices, (std::vector<VertexId>{1, 3}));
  // Path vertices materialized: {0,1,2,3}.
  EXPECT_EQ(answers[0].vertices, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(BkwsTest, RespectsDmax) {
  // Chain 0 -> 1 -> 2 -> 3(KwA); keyword at distance 3 from vertex 0.
  Graph g = BuildGraph({0, 0, 0, 1}, {{0, 1}, {1, 2}, {2, 3}});
  auto far = BackwardKeywordSearch(g, {1}, {.d_max = 2});
  // Roots within 2 hops of the keyword: 1, 2, 3.
  EXPECT_EQ(far.size(), 3u);
  auto near = BackwardKeywordSearch(g, {1}, {.d_max = 3});
  EXPECT_EQ(near.size(), 4u);
}

TEST(BkwsTest, KeywordVertexIsItsOwnRoot) {
  Graph g = BuildGraph({1}, {});
  auto answers = BackwardKeywordSearch(g, {1}, {});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].root, 0u);
  EXPECT_EQ(answers[0].score, 0u);
}

TEST(BkwsTest, MissingKeywordMeansNoAnswers) {
  Graph g = BuildGraph({0, 1}, {{0, 1}});
  EXPECT_TRUE(BackwardKeywordSearch(g, {1, 9}, {}).empty());
}

TEST(BkwsTest, EmptyQueryMeansNoAnswers) {
  Graph g = BuildGraph({0}, {});
  EXPECT_TRUE(BackwardKeywordSearch(g, {}, {}).empty());
}

TEST(BkwsTest, TopKTruncatesByScore) {
  // Star: center 0 -> {1(KwA), 2(KwB)}; also 3 -> 0.
  Graph g = BuildGraph({0, 1, 2, 0}, {{0, 1}, {0, 2}, {3, 0}});
  auto all = BackwardKeywordSearch(g, {1, 2}, {.d_max = 3});
  ASSERT_EQ(all.size(), 2u);  // roots 0 (score 2) and 3 (score 4)
  EXPECT_EQ(all[0].root, 0u);
  EXPECT_LT(all[0].score, all[1].score);
  auto top1 = BackwardKeywordSearch(g, {1, 2}, {.d_max = 3, .top_k = 1});
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].root, 0u);
}

TEST(BkwsTest, AnswersAreConnectedTrees) {
  Graph g = RandomGraph(77, 60, 150, 4);
  auto answers = BackwardKeywordSearch(g, {0, 1, 2}, {.d_max = 4});
  for (const Answer& a : answers) {
    EXPECT_TRUE(AnswerIsConnected(g, a)) << AnswerToString(a);
    // Each keyword vertex carries the right label and is within d_max.
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(g.label(a.keyword_vertices[i]), static_cast<LabelId>(i));
      EXPECT_LE(ShortestDistance(g, a.root, a.keyword_vertices[i], 10), 4u);
    }
  }
}

TEST(BkwsTest, ScoreEqualsSumOfShortestDistances) {
  Graph g = RandomGraph(78, 40, 100, 3);
  auto answers = BackwardKeywordSearch(g, {0, 2}, {.d_max = 4});
  for (const Answer& a : answers) {
    uint32_t expect = 0;
    for (LabelId q : {0, 2}) {
      uint32_t best = kInfDistance;
      for (VertexId v : g.VerticesWithLabel(q)) {
        best = std::min(best, ShortestDistance(g, a.root, v, 4));
      }
      ASSERT_NE(best, kInfDistance);
      expect += best;
    }
    EXPECT_EQ(a.score, expect) << AnswerToString(a);
  }
}

// ---------- partitioner ----------

TEST(PartitionerTest, CoversAllVertices) {
  Graph g = RandomGraph(5, 100, 250, 3);
  Partition p = PartitionGraph(g, 16);
  EXPECT_EQ(p.NumVertices(), 100u);
  std::vector<bool> seen(100, false);
  for (uint32_t b = 0; b < p.NumBlocks(); ++b) {
    EXPECT_LE(p.BlockMembers(b).size(), 16u);
    for (VertexId v : p.BlockMembers(b)) {
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
      EXPECT_EQ(p.BlockOf(v), b);
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(PartitionerTest, SingleBlockWhenTargetLarge) {
  Graph g = BuildGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  Partition p = PartitionGraph(g, 100);
  EXPECT_EQ(p.NumBlocks(), 1u);
}

// ---------- Blinks ----------

TEST(BlinksTest, MatchesBkwsSemantics) {
  // With top_k = 0 Blinks must return exactly the distinct-root answer set
  // of backward search (same roots, same scores).
  for (uint64_t seed : {1, 2, 3, 4}) {
    Graph g = RandomGraph(seed, 80, 200, 4);
    auto blinks = BlinksSearch(g, {0, 1}, {.d_max = 4, .top_k = 0});
    auto bkws = BackwardKeywordSearch(g, {0, 1}, {.d_max = 4});
    ASSERT_EQ(blinks.size(), bkws.size()) << "seed " << seed;
    for (size_t i = 0; i < blinks.size(); ++i) {
      EXPECT_EQ(blinks[i].root, bkws[i].root);
      EXPECT_EQ(blinks[i].score, bkws[i].score);
    }
  }
}

TEST(BlinksTest, TopKPrefixMatchesFullRun) {
  for (uint64_t seed : {10, 20, 30, 40, 50}) {
    Graph g = RandomGraph(seed, 120, 360, 5);
    auto full = BlinksSearch(g, {0, 1, 2}, {.d_max = 4, .top_k = 0});
    BlinksStats stats;
    auto topk =
        BlinksSearch(g, {0, 1, 2}, {.d_max = 4, .top_k = 5}, &stats);
    size_t expect = std::min<size_t>(5, full.size());
    ASSERT_EQ(topk.size(), expect) << "seed " << seed;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(topk[i].root, full[i].root) << "seed " << seed << " i " << i;
      EXPECT_EQ(topk[i].score, full[i].score);
    }
  }
}

TEST(BlinksTest, EarlyTerminationHappensOnEasyQueries) {
  // Dense keyword coverage: lots of score-0..1 roots, so the k best are
  // provably done long before the cones exhaust d_max.
  Rng rng(99);
  GraphBuilder b;
  for (int i = 0; i < 400; ++i) b.AddVertex(static_cast<LabelId>(i % 2));
  for (int i = 0; i < 1600; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.Uniform(400)),
              static_cast<VertexId>(rng.Uniform(400)));
  }
  Graph g = std::move(b.Build()).value();
  BlinksStats stats;
  auto topk = BlinksSearch(g, {0, 1}, {.d_max = 5, .top_k = 3}, &stats);
  EXPECT_EQ(topk.size(), 3u);
  EXPECT_TRUE(stats.early_terminated);
}

TEST(BlinksTest, AnswersAreValidTrees) {
  Graph g = RandomGraph(123, 100, 300, 4);
  auto answers = BlinksSearch(g, {0, 1, 3}, {.d_max = 4, .top_k = 10});
  for (const Answer& a : answers) {
    EXPECT_TRUE(AnswerIsConnected(g, a));
    for (size_t i = 0; i < a.keyword_vertices.size(); ++i) {
      EXPECT_LE(ShortestDistance(g, a.root, a.keyword_vertices[i], 10), 4u);
    }
  }
}

TEST(BlinksTest, AlgorithmAdapterRepeatsAnswers) {
  Graph g = RandomGraph(5, 50, 120, 3);
  BlinksAlgorithm algo({.d_max = 4, .top_k = 0});
  EXPECT_EQ(algo.Name(), "blinks");
  auto a1 = algo.Evaluate(g, {0, 1});
  EXPECT_FALSE(a1.empty());
  for (int i = 0; i < 2; ++i) {
    auto again = algo.Evaluate(g, {0, 1});
    ASSERT_EQ(again.size(), a1.size());
    for (size_t j = 0; j < a1.size(); ++j) {
      EXPECT_EQ(again[j].root, a1[j].root);
      EXPECT_EQ(again[j].score, a1[j].score);
      EXPECT_EQ(again[j].vertices, a1[j].vertices);
      EXPECT_EQ(again[j].keyword_vertices, a1[j].keyword_vertices);
    }
  }
}

// ---------- r-clique ----------

TEST(NeighborIndexTest, DistancesMatchUndirectedBfs) {
  Graph g = RandomGraph(42, 60, 120, 3);
  auto index = NeighborIndex::Build(g, 3);
  ASSERT_TRUE(index.ok());
  BfsScratch scratch;
  for (VertexId u = 0; u < g.NumVertices(); u += 7) {
    // Undirected BFS oracle: expand both directions.
    std::vector<uint32_t> dist(g.NumVertices(), kInfDistance);
    std::vector<VertexId> queue{u};
    dist[u] = 0;
    size_t head = 0;
    while (head < queue.size()) {
      VertexId v = queue[head++];
      if (dist[v] >= 3) continue;
      auto visit = [&](VertexId w) {
        if (dist[w] != kInfDistance) return;
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      };
      for (VertexId w : g.OutNeighbors(v)) visit(w);
      for (VertexId w : g.InNeighbors(v)) visit(w);
    }
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      uint32_t got = index->Distance(u, v);
      if (dist[v] <= 3) {
        EXPECT_EQ(got, dist[v]) << u << "->" << v;
      } else {
        EXPECT_EQ(got, kInfDistance);
      }
    }
  }
}

TEST(NeighborIndexTest, BudgetFailureReproducesInfeasibility) {
  Graph g = RandomGraph(7, 200, 800, 3);
  auto index = NeighborIndex::Build(g, 4, /*memory_budget_bytes=*/64);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kFailedPrecondition);
}

TEST(NeighborIndexTest, MemoryEstimateIsPlausible) {
  Graph g = RandomGraph(8, 150, 450, 3);
  auto index = NeighborIndex::Build(g, 3);
  ASSERT_TRUE(index.ok());
  Rng rng(1);
  size_t estimate = NeighborIndex::EstimateMemoryBytes(g, 3, 150, rng);
  size_t actual = index->NumEntries() * sizeof(std::pair<VertexId, uint32_t>);
  // Sampling every vertex once: estimate within 2x of actual.
  EXPECT_GT(estimate, actual / 2);
  EXPECT_LT(estimate, actual * 2 + 1024);
}

TEST(RCliqueTest, FindsTriangleClique) {
  // 0(A) -- 1(B) -- 2(C) chain: with r=2 all pairs within bound.
  Graph g = BuildGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  auto index = NeighborIndex::Build(g, 2);
  ASSERT_TRUE(index.ok());
  auto answers = RCliqueSearch(g, *index, {0, 1, 2}, {.r = 2, .top_k = 5});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].keyword_vertices, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(answers[0].score, 1u + 2u + 1u);  // d(0,1)+d(0,2)+d(1,2)
}

TEST(RCliqueTest, RespectsDistanceBound) {
  // 0(A) -> 1 -> 2 -> 3(B): undirected distance 3.
  Graph g = BuildGraph({0, 9, 9, 1}, {{0, 1}, {1, 2}, {2, 3}});
  auto i2 = NeighborIndex::Build(g, 2);
  ASSERT_TRUE(i2.ok());
  EXPECT_TRUE(RCliqueSearch(g, *i2, {0, 1}, {.r = 2, .top_k = 5}).empty());
  auto i3 = NeighborIndex::Build(g, 3);
  ASSERT_TRUE(i3.ok());
  EXPECT_EQ(RCliqueSearch(g, *i3, {0, 1}, {.r = 3, .top_k = 5}).size(), 1u);
}

TEST(RCliqueTest, TopKWeightsNondecreasingAndUnique) {
  Graph g = RandomGraph(55, 80, 240, 3);
  auto index = NeighborIndex::Build(g, 4);
  ASSERT_TRUE(index.ok());
  auto answers = RCliqueSearch(g, *index, {0, 1}, {.r = 4, .top_k = 20});
  std::set<std::vector<VertexId>> seen;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (i) {
      EXPECT_GE(answers[i].score, answers[i - 1].score);
    }
    EXPECT_TRUE(seen.insert(answers[i].keyword_vertices).second)
        << "duplicate answer";
  }
  EXPECT_FALSE(answers.empty());
}

TEST(RCliqueTest, AllAnswersAreValidCliques) {
  Graph g = RandomGraph(56, 70, 210, 4);
  auto index = NeighborIndex::Build(g, 4);
  ASSERT_TRUE(index.ok());
  auto answers = RCliqueSearch(g, *index, {0, 1, 2}, {.r = 4, .top_k = 15});
  for (const Answer& a : answers) {
    for (size_t i = 0; i < a.keyword_vertices.size(); ++i) {
      EXPECT_EQ(g.label(a.keyword_vertices[i]), static_cast<LabelId>(i));
      for (size_t j = i + 1; j < a.keyword_vertices.size(); ++j) {
        uint32_t d =
            index->Distance(a.keyword_vertices[i], a.keyword_vertices[j]);
        EXPECT_LE(d, 4u);
      }
    }
  }
}

TEST(RCliqueTest, GreedyTopAnswerWithinTwiceOptimal) {
  // The greedy best answer is a 2-approximation of the optimum weight.
  for (uint64_t seed : {60, 61, 62}) {
    Graph g = RandomGraph(seed, 50, 150, 3);
    auto index = NeighborIndex::Build(g, 3);
    ASSERT_TRUE(index.ok());
    auto exact = RCliqueEnumerateAll(g, *index, {0, 1, 2}, 3);
    auto greedy = RCliqueSearch(g, *index, {0, 1, 2}, {.r = 3, .top_k = 1});
    if (exact.empty()) {
      EXPECT_TRUE(greedy.empty());
      continue;
    }
    ASSERT_FALSE(greedy.empty());
    EXPECT_LE(greedy[0].score, exact[0].score * 2);
  }
}

TEST(RCliqueTest, EnumerateAllMatchesValidity) {
  Graph g = RandomGraph(57, 30, 90, 3);
  auto index = NeighborIndex::Build(g, 3);
  ASSERT_TRUE(index.ok());
  auto all = RCliqueEnumerateAll(g, *index, {0, 1}, 3);
  for (const Answer& a : all) {
    uint32_t d =
        index->Distance(a.keyword_vertices[0], a.keyword_vertices[1]);
    EXPECT_LE(d, 3u);
    EXPECT_EQ(a.score, d);
  }
  // Count against the brute-force definition.
  size_t count = 0;
  for (VertexId u : g.VerticesWithLabel(0)) {
    for (VertexId v : g.VerticesWithLabel(1)) {
      if (index->Distance(u, v) <= 3) ++count;
    }
  }
  EXPECT_EQ(all.size(), count);
}

TEST(RCliqueTest, SingleKeywordAnswers) {
  Graph g = BuildGraph({0, 1, 1}, {{0, 1}});
  auto index = NeighborIndex::Build(g, 2);
  ASSERT_TRUE(index.ok());
  auto answers = RCliqueSearch(g, *index, {1}, {.r = 2, .top_k = 10});
  EXPECT_EQ(answers.size(), 2u);
  for (const Answer& a : answers) EXPECT_EQ(a.score, 0u);
}

TEST(RCliqueTest, AdapterFallsBackGracefullyOnBudget) {
  Graph g = RandomGraph(58, 100, 400, 3);
  RCliqueAlgorithm algo({.r = 4, .top_k = 5, .memory_budget_bytes = 16});
  EXPECT_TRUE(algo.Evaluate(g, {0, 1}).empty());
  EXPECT_EQ(algo.Name(), "r-clique");
}

TEST(RCliqueTest, MissingKeywordMeansNoAnswers) {
  Graph g = BuildGraph({0, 1}, {{0, 1}});
  auto index = NeighborIndex::Build(g, 2);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(RCliqueSearch(g, *index, {0, 42}, {.r = 2}).empty());
}

}  // namespace
}  // namespace bigindex

// Unit + property tests for maximal bisimulation summarization and
// maintenance. Includes the paper's key structural properties:
// path preservation (Def 2.1), reachability preservation (Prop 5.1), and
// distance contraction (Prop 5.2).

#include <gtest/gtest.h>

#include "bisim/bisimulation.h"
#include "graph/traversal.h"
#include "update/delta.h"
#include "util/random.h"

namespace bigindex {
namespace {

Graph BuildGraph(size_t n, std::vector<LabelId> labels,
                 std::vector<std::pair<VertexId, VertexId>> edges) {
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) b.AddVertex(labels[i]);
  for (auto [u, v] : edges) b.AddEdge(u, v);
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// The paper's Example 2.1 in miniature: many Person vertices all pointing at
// the same Univ vertex collapse into one supernode.
TEST(BisimTest, CollapsesIdenticalPersons) {
  // Vertices 0..9: label 0 (Person), vertex 10: label 1 (Univ).
  std::vector<LabelId> labels(11, 0);
  labels[10] = 1;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 10; ++v) edges.push_back({v, 10});
  Graph g = BuildGraph(11, labels, edges);

  BisimResult r = ComputeBisimulation(g, g.labels());
  EXPECT_EQ(r.summary.NumVertices(), 2u);
  EXPECT_EQ(r.summary.NumEdges(), 1u);
  // All persons share one supernode.
  VertexId s = r.mapping.SuperOf(0);
  for (VertexId v = 1; v < 10; ++v) EXPECT_EQ(r.mapping.SuperOf(v), s);
  EXPECT_NE(r.mapping.SuperOf(10), s);
  EXPECT_EQ(r.mapping.Members(s).size(), 10u);
}

TEST(BisimTest, DifferentLabelsNeverMerge) {
  Graph g = BuildGraph(2, {0, 1}, {});
  BisimResult r = ComputeBisimulation(g, g.labels());
  EXPECT_EQ(r.summary.NumVertices(), 2u);
}

TEST(BisimTest, DifferentSuccessorsSplit) {
  // 0 and 1 share label 0; 0 -> 2 (label 1), 1 -> 3 (label 2).
  Graph g = BuildGraph(4, {0, 0, 1, 2}, {{0, 2}, {1, 3}});
  BisimResult r = ComputeBisimulation(g, g.labels());
  EXPECT_NE(r.mapping.SuperOf(0), r.mapping.SuperOf(1));
  EXPECT_EQ(r.summary.NumVertices(), 4u);
}

TEST(BisimTest, ChainSplitsByDepth) {
  // A directed path of 5 same-label vertices: successor structure differs at
  // every depth, so no two merge.
  Graph g = BuildGraph(5, {0, 0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  BisimResult r = ComputeBisimulation(g, g.labels());
  EXPECT_EQ(r.summary.NumVertices(), 5u);
  EXPECT_GE(r.refinement_rounds, 4u);
}

TEST(BisimTest, CycleOfEquivalentVertices) {
  // A 4-cycle with one label: every vertex has the same infinite behaviour,
  // so all collapse to one supernode with a self-loop.
  Graph g = BuildGraph(4, {0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  BisimResult r = ComputeBisimulation(g, g.labels());
  EXPECT_EQ(r.summary.NumVertices(), 1u);
  EXPECT_TRUE(r.summary.HasEdge(0, 0));
}

TEST(BisimTest, SummaryLabelsMatchMembers) {
  Graph g = BuildGraph(6, {0, 0, 1, 1, 2, 2},
                       {{0, 2}, {1, 3}, {2, 4}, {3, 5}});
  BisimResult r = ComputeBisimulation(g, g.labels());
  for (VertexId s = 0; s < r.summary.NumVertices(); ++s) {
    for (VertexId v : r.mapping.Members(s)) {
      EXPECT_EQ(r.summary.label(s), g.label(v));
    }
  }
}

TEST(BisimTest, EmptyGraph) {
  GraphBuilder b;
  Graph g = std::move(b.Build()).value();
  BisimResult r = ComputeBisimulation(g, g.labels());
  EXPECT_EQ(r.summary.NumVertices(), 0u);
  EXPECT_EQ(r.mapping.NumSupernodes(), 0u);
}

TEST(BisimTest, ResultIsStable) {
  Graph g = BuildGraph(6, {0, 0, 1, 1, 2, 2},
                       {{0, 2}, {1, 2}, {2, 4}, {3, 5}, {0, 3}});
  BisimResult r = ComputeBisimulation(g, g.labels());
  EXPECT_TRUE(IsStableBisimulation(g, r.mapping));
}

TEST(BisimTest, IdempotentOnSummary) {
  // Summarizing a summary must be a no-op (maximal bisim is a fixpoint).
  std::vector<LabelId> labels(20, 0);
  for (size_t i = 10; i < 20; ++i) labels[i] = 1;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 10; ++v) edges.push_back({v, VertexId(10 + v % 2)});
  edges.push_back({10, 11});
  Graph g = BuildGraph(20, labels, edges);
  BisimResult r1 = ComputeBisimulation(g, g.labels());
  BisimResult r2 = ComputeBisimulation(r1.summary, r1.summary.labels());
  EXPECT_EQ(r2.summary.NumVertices(), r1.summary.NumVertices());
  EXPECT_EQ(r2.summary.NumEdges(), r1.summary.NumEdges());
}

TEST(BisimTest, MaxRoundsCapCoarsens) {
  // With a 1-round cap, the depth-refinement of a chain is incomplete.
  Graph g = BuildGraph(5, {0, 0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  BisimOptions opt;
  opt.max_rounds = 1;
  BisimResult r = ComputeBisimulation(g, g.labels(), opt);
  EXPECT_LT(r.summary.NumVertices(), 5u);
}

// ---- Randomized property suite (parameterized over seeds) ----

struct RandomGraphCase {
  uint64_t seed;
  size_t n;
  size_t m;
  size_t num_labels;
};

class BisimPropertyTest : public ::testing::TestWithParam<RandomGraphCase> {};

Graph RandomGraph(const RandomGraphCase& c) {
  Rng rng(c.seed);
  GraphBuilder b;
  for (size_t i = 0; i < c.n; ++i) {
    b.AddVertex(static_cast<LabelId>(rng.Uniform(c.num_labels)));
  }
  for (size_t i = 0; i < c.m; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.Uniform(c.n)),
              static_cast<VertexId>(rng.Uniform(c.n)));
  }
  return std::move(b.Build()).value();
}

TEST_P(BisimPropertyTest, PartitionIsStable) {
  Graph g = RandomGraph(GetParam());
  BisimResult r = ComputeBisimulation(g, g.labels());
  EXPECT_TRUE(IsStableBisimulation(g, r.mapping));
}

TEST_P(BisimPropertyTest, PathPreserving) {
  // Def 2.1: every edge (and hence path) of G maps to an edge of Bisim(G).
  Graph g = RandomGraph(GetParam());
  BisimResult r = ComputeBisimulation(g, g.labels());
  for (const auto& [u, v] : g.Edges()) {
    EXPECT_TRUE(r.summary.HasEdge(r.mapping.SuperOf(u), r.mapping.SuperOf(v)));
  }
  // And conversely every summary edge is witnessed by at least one data edge
  // (no phantom edges).
  for (const auto& [su, sv] : r.summary.Edges()) {
    bool witnessed = false;
    for (VertexId u : r.mapping.Members(su)) {
      for (VertexId w : g.OutNeighbors(u)) {
        if (r.mapping.SuperOf(w) == sv) {
          witnessed = true;
          break;
        }
      }
      if (witnessed) break;
    }
    EXPECT_TRUE(witnessed);
  }
}

TEST_P(BisimPropertyTest, ReachabilityPreserved) {
  // Prop 5.1: reach(u, v, G) implies reach(Bisim(u), Bisim(v), Bisim(G)).
  Graph g = RandomGraph(GetParam());
  BisimResult r = ComputeBisimulation(g, g.labels());
  Rng rng(GetParam().seed ^ 0xABCD);
  BfsScratch scratch;
  for (int trial = 0; trial < 5; ++trial) {
    VertexId u = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    auto reached = scratch.BoundedDistances(g, u, 6, Direction::kForward);
    for (auto [v, d] : reached) {
      EXPECT_TRUE(ReachableWithin(r.summary, r.mapping.SuperOf(u),
                                  r.mapping.SuperOf(v), 6));
    }
  }
}

TEST_P(BisimPropertyTest, DistanceContraction) {
  // Prop 5.2: dist(Bisim(u), Bisim(v)) <= dist(u, v).
  Graph g = RandomGraph(GetParam());
  BisimResult r = ComputeBisimulation(g, g.labels());
  Rng rng(GetParam().seed ^ 0x1234);
  BfsScratch scratch;
  for (int trial = 0; trial < 5; ++trial) {
    VertexId u = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    auto reached = scratch.BoundedDistances(g, u, 5, Direction::kForward);
    for (auto [v, d] : reached) {
      uint32_t ds = ShortestDistance(r.summary, r.mapping.SuperOf(u),
                                     r.mapping.SuperOf(v), 16);
      EXPECT_LE(ds, d);
    }
  }
}

TEST_P(BisimPropertyTest, MembersPartitionVertexSet) {
  Graph g = RandomGraph(GetParam());
  BisimResult r = ComputeBisimulation(g, g.labels());
  std::vector<bool> seen(g.NumVertices(), false);
  for (VertexId s = 0; s < r.mapping.NumSupernodes(); ++s) {
    for (VertexId v : r.mapping.Members(s)) {
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
      EXPECT_EQ(r.mapping.SuperOf(v), s);
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BisimPropertyTest,
    ::testing::Values(RandomGraphCase{1, 50, 100, 3},
                      RandomGraphCase{2, 100, 300, 5},
                      RandomGraphCase{3, 200, 250, 2},
                      RandomGraphCase{4, 80, 400, 8},
                      RandomGraphCase{5, 30, 30, 1},
                      RandomGraphCase{6, 150, 600, 4}));

// ---- maintenance ----

TEST(MaintenanceTest, ApplyAddAndRemove) {
  Graph g = BuildGraph(3, {0, 0, 0}, {{0, 1}});
  std::vector<GraphUpdate> ups = {
      {GraphUpdate::Kind::kAddEdge, 1, 2},
      {GraphUpdate::Kind::kRemoveEdge, 0, 1},
  };
  auto g2 = ApplyUpdates(g, ups);
  ASSERT_TRUE(g2.ok());
  EXPECT_FALSE(g2->HasEdge(0, 1));
  EXPECT_TRUE(g2->HasEdge(1, 2));
}

TEST(MaintenanceTest, RedundantUpdatesAreNoOps) {
  Graph g = BuildGraph(2, {0, 0}, {{0, 1}});
  std::vector<GraphUpdate> ups = {
      {GraphUpdate::Kind::kAddEdge, 0, 1},     // duplicate
      {GraphUpdate::Kind::kRemoveEdge, 1, 0},  // absent
  };
  auto g2 = ApplyUpdates(g, ups);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->NumEdges(), 1u);
}

TEST(MaintenanceTest, OutOfRangeUpdateFails) {
  Graph g = BuildGraph(2, {0, 0}, {});
  std::vector<GraphUpdate> ups = {{GraphUpdate::Kind::kAddEdge, 0, 9}};
  EXPECT_FALSE(ApplyUpdates(g, ups).ok());
}

TEST(MaintenanceTest, DetectsUnchangedSummary) {
  // Two bisimilar persons pointing at the same target; adding a *parallel*
  // structure edge that already exists in summary form leaves it unchanged.
  Graph g = BuildGraph(3, {0, 0, 1}, {{0, 2}});
  BisimResult r = ComputeBisimulation(g, g.labels());
  EXPECT_EQ(r.summary.NumVertices(), 3u);  // 0 has an edge, 1 does not

  // Adding 1 -> 2 makes 0 and 1 bisimilar: summary changes.
  std::vector<GraphUpdate> ups = {{GraphUpdate::Kind::kAddEdge, 1, 2}};
  auto g2 = ApplyUpdates(g, ups);
  ASSERT_TRUE(g2.ok());
  BisimResult r2 = ComputeBisimulation(*g2, g2->labels());
  EXPECT_FALSE(GraphsIdentical(r2.summary, r.summary));
  EXPECT_EQ(r2.summary.NumVertices(), 2u);

  // Re-running with no updates: summary unchanged.
  auto g3 = ApplyUpdates(*g2, {});
  ASSERT_TRUE(g3.ok());
  EXPECT_TRUE(GraphsIdentical(ComputeBisimulation(*g3, g3->labels()).summary,
                              r2.summary));
}

TEST(MaintenanceTest, GraphsIdenticalDetectsLabelDiff) {
  Graph a = BuildGraph(2, {0, 1}, {{0, 1}});
  Graph b = BuildGraph(2, {0, 2}, {{0, 1}});
  Graph c = BuildGraph(2, {0, 1}, {{0, 1}});
  EXPECT_FALSE(GraphsIdentical(a, b));
  EXPECT_TRUE(GraphsIdentical(a, c));
}

TEST(MaintenanceTest, EdgeInsertionCanMergeBlocks) {
  // The "previous partition is not reusable" scenario from DESIGN: adding an
  // edge merges previously distinct blocks. Exercises full recompute path.
  Graph g = BuildGraph(4, {0, 0, 1, 2}, {{0, 2}, {0, 3}, {1, 2}});
  BisimResult before = ComputeBisimulation(g, g.labels());
  EXPECT_NE(before.mapping.SuperOf(0), before.mapping.SuperOf(1));
  std::vector<GraphUpdate> ups = {{GraphUpdate::Kind::kAddEdge, 1, 3}};
  auto g2 = ApplyUpdates(g, ups);
  ASSERT_TRUE(g2.ok());
  BisimResult after = ComputeBisimulation(*g2, g2->labels());
  EXPECT_EQ(after.mapping.SuperOf(0), after.mapping.SuperOf(1));
}


TEST(BisimTest, SuccessorRelationSplitsByOutEdges) {
  // 0 -> 2, 1 has no edge; 2 and 3 share a label. The successor relation
  // merges 2 and 3 (neither has out-edges) and splits 0 from 1 (only 0
  // reaches a label-1 block).
  Graph g = BuildGraph(4, {0, 0, 1, 1}, {{0, 2}});
  BisimResult succ = ComputeBisimulation(g, g.labels());
  EXPECT_EQ(succ.mapping.SuperOf(2), succ.mapping.SuperOf(3));
  EXPECT_NE(succ.mapping.SuperOf(0), succ.mapping.SuperOf(1));
}

}  // namespace
}  // namespace bigindex

// Unit tests for the graph substrate: LabelDictionary, Graph/GraphBuilder,
// traversal, sampling, and text I/O.

#include <gtest/gtest.h>

#include <sstream>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/label_dictionary.h"
#include "graph/sampling.h"
#include "graph/traversal.h"
#include "util/random.h"

namespace bigindex {
namespace {

TEST(LabelDictionaryTest, InternIsIdempotent) {
  LabelDictionary dict;
  LabelId a = dict.Intern("Person");
  LabelId b = dict.Intern("Person");
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(LabelDictionaryTest, IdsAreDenseInsertionOrder) {
  LabelDictionary dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("c"), 2u);
  EXPECT_EQ(dict.Name(1), "b");
}

TEST(LabelDictionaryTest, FindMissingReturnsInvalid) {
  LabelDictionary dict;
  dict.Intern("x");
  EXPECT_EQ(dict.Find("y"), kInvalidLabel);
  EXPECT_FALSE(dict.Contains("y"));
  EXPECT_TRUE(dict.Contains("x"));
}

TEST(LabelDictionaryTest, StableAcrossGrowth) {
  LabelDictionary dict;
  LabelId first = dict.Intern("first");
  for (int i = 0; i < 1000; ++i) dict.Intern("label" + std::to_string(i));
  EXPECT_EQ(dict.Find("first"), first);
  EXPECT_EQ(dict.Name(first), "first");
}

// Builds the little diamond 0->1, 0->2, 1->3, 2->3 with labels a,b,b,c.
Graph Diamond() {
  GraphBuilder b;
  b.AddVertex(0);  // a
  b.AddVertex(1);  // b
  b.AddVertex(1);  // b
  b.AddVertex(2);  // c
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(GraphTest, BasicCounts) {
  Graph g = Diamond();
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.Size(), 8u);
}

TEST(GraphTest, OutAndInNeighbors) {
  Graph g = Diamond();
  auto out0 = g.OutNeighbors(0);
  ASSERT_EQ(out0.size(), 2u);
  EXPECT_EQ(out0[0], 1u);
  EXPECT_EQ(out0[1], 2u);
  auto in3 = g.InNeighbors(3);
  ASSERT_EQ(in3.size(), 2u);
  EXPECT_EQ(in3[0], 1u);
  EXPECT_EQ(in3[1], 2u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(0), 0u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(GraphTest, HasEdge) {
  Graph g = Diamond();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(GraphTest, DuplicateEdgesCollapse) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
}

TEST(GraphTest, SelfLoopAllowed) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddEdge(0, 0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
  EXPECT_TRUE(g->HasEdge(0, 0));
}

TEST(GraphTest, OutOfRangeEdgeFailsBuild) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddEdge(0, 5);
  auto g = b.Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, LabelIndex) {
  Graph g = Diamond();
  auto bs = g.VerticesWithLabel(1);
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(bs[0], 1u);
  EXPECT_EQ(bs[1], 2u);
  EXPECT_EQ(g.LabelCount(0), 1u);
  EXPECT_EQ(g.LabelCount(7), 0u);
  EXPECT_TRUE(g.VerticesWithLabel(99).empty());
}

TEST(GraphTest, LabelIndexRejectsTheLargestIds) {
  // kInvalidLabel + 1 wraps to 0 in 32 bits; the bound check must not.
  Graph g = Diamond();
  EXPECT_TRUE(g.VerticesWithLabel(kInvalidLabel).empty());
  EXPECT_TRUE(g.VerticesWithLabel(kInvalidLabel - 1).empty());
  EXPECT_EQ(g.LabelCount(kInvalidLabel), 0u);
  EXPECT_TRUE(Graph().VerticesWithLabel(kInvalidLabel).empty());
}

TEST(GraphTest, DistinctLabelsSorted) {
  Graph g = Diamond();
  auto labels = g.DistinctLabels();
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[1], 1u);
  EXPECT_EQ(labels[2], 2u);
}

TEST(GraphTest, LabelSupport) {
  Graph g = Diamond();
  EXPECT_DOUBLE_EQ(g.LabelSupport(1), 0.5);
  EXPECT_DOUBLE_EQ(g.LabelSupport(9), 0.0);
}

TEST(GraphTest, EmptyGraph) {
  GraphBuilder b;
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 0u);
  EXPECT_EQ(g->NumEdges(), 0u);
  EXPECT_DOUBLE_EQ(g->LabelSupport(0), 0.0);
}

TEST(GraphTest, EdgesRoundTrip) {
  Graph g = Diamond();
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[0], std::make_pair(VertexId{0}, VertexId{1}));
  EXPECT_EQ(edges[3], std::make_pair(VertexId{2}, VertexId{3}));
}

// --- traversal ---

// Path 0 -> 1 -> 2 -> 3 -> 4 plus shortcut 0 -> 3.
Graph PathWithShortcut() {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  b.AddEdge(0, 3);
  return std::move(b.Build()).value();
}

TEST(TraversalTest, BoundedDistancesForward) {
  Graph g = PathWithShortcut();
  BfsScratch scratch;
  auto dists = scratch.BoundedDistances(g, 0, 2, Direction::kForward);
  // 0@0, 1@1, 3@1, 2@2, 4@2.
  ASSERT_EQ(dists.size(), 5u);
  std::vector<uint32_t> dist_of(5, 99);
  for (auto [v, d] : dists) dist_of[v] = d;
  EXPECT_EQ(dist_of[0], 0u);
  EXPECT_EQ(dist_of[1], 1u);
  EXPECT_EQ(dist_of[3], 1u);
  EXPECT_EQ(dist_of[2], 2u);
  EXPECT_EQ(dist_of[4], 2u);
}

TEST(TraversalTest, BoundedDistancesRespectsBound) {
  Graph g = PathWithShortcut();
  BfsScratch scratch;
  auto dists = scratch.BoundedDistances(g, 1, 1, Direction::kForward);
  ASSERT_EQ(dists.size(), 2u);  // 1@0, 2@1
}

TEST(TraversalTest, BackwardDirection) {
  Graph g = PathWithShortcut();
  BfsScratch scratch;
  auto dists = scratch.BoundedDistances(g, 3, 1, Direction::kBackward);
  // 3@0; predecessors of 3: 2 and 0.
  ASSERT_EQ(dists.size(), 3u);
}

TEST(TraversalTest, MultiSource) {
  Graph g = PathWithShortcut();
  BfsScratch scratch;
  auto dists =
      scratch.BoundedDistancesMulti(g, {1, 3}, 1, Direction::kForward);
  // 1@0, 3@0, 2@1, 4@1.
  ASSERT_EQ(dists.size(), 4u);
}

TEST(TraversalTest, ScratchReusableAcrossRuns) {
  Graph g = PathWithShortcut();
  BfsScratch scratch;
  for (int i = 0; i < 10; ++i) {
    auto dists = scratch.BoundedDistances(g, 0, 4, Direction::kForward);
    EXPECT_EQ(dists.size(), 5u);
  }
}

TEST(TraversalTest, ShortestDistance) {
  Graph g = PathWithShortcut();
  EXPECT_EQ(ShortestDistance(g, 0, 4, 10), 2u);  // via shortcut
  EXPECT_EQ(ShortestDistance(g, 0, 0, 10), 0u);
  EXPECT_EQ(ShortestDistance(g, 4, 0, 10), kInfDistance);  // directed
  EXPECT_EQ(ShortestDistance(g, 0, 4, 1), kInfDistance);   // capped
}

TEST(TraversalTest, ReachableWithin) {
  Graph g = PathWithShortcut();
  EXPECT_TRUE(ReachableWithin(g, 0, 4, 2));
  EXPECT_FALSE(ReachableWithin(g, 0, 4, 1));
  EXPECT_FALSE(ReachableWithin(g, 4, 0, 10));
}

// --- sampling ---

TEST(SamplingTest, SampleIsNodeInduced) {
  Graph g = Diamond();
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    SampledSubgraph s = SampleRadiusSubgraph(g, 2, rng);
    ASSERT_EQ(s.graph.NumVertices(), s.original.size());
    // Every edge among sampled originals must appear in the sample.
    for (VertexId i = 0; i < s.graph.NumVertices(); ++i) {
      for (VertexId j = 0; j < s.graph.NumVertices(); ++j) {
        EXPECT_EQ(s.graph.HasEdge(i, j),
                  g.HasEdge(s.original[i], s.original[j]));
      }
    }
    // Labels preserved.
    for (VertexId i = 0; i < s.graph.NumVertices(); ++i) {
      EXPECT_EQ(s.graph.label(i), g.label(s.original[i]));
    }
  }
}

TEST(SamplingTest, RadiusZeroIsSingleton) {
  Graph g = Diamond();
  Rng rng(9);
  SampledSubgraph s = SampleRadiusSubgraph(g, 0, rng);
  EXPECT_EQ(s.graph.NumVertices(), 1u);
}

TEST(SamplingTest, EmptyGraphYieldsEmptySample) {
  GraphBuilder b;
  Graph g = std::move(b.Build()).value();
  Rng rng(1);
  SampledSubgraph s = SampleRadiusSubgraph(g, 2, rng);
  EXPECT_EQ(s.graph.NumVertices(), 0u);
}

TEST(SamplingTest, CountAndFormula) {
  Graph g = Diamond();
  auto samples = SampleRadiusSubgraphs(g, 1, 7, /*master_seed=*/3);
  EXPECT_EQ(samples.size(), 7u);
  EXPECT_EQ(SampleSizeForError(1.96, 0.05), 385u);  // paper rounds to 400
}

// --- I/O ---

TEST(GraphIoTest, RoundTrip) {
  LabelDictionary dict;
  dict.Intern("a");
  dict.Intern("b");
  dict.Intern("c");
  Graph g = Diamond();

  std::stringstream ss;
  ASSERT_TRUE(WriteGraph(g, dict, ss).ok());
  LabelDictionary dict2;
  auto g2 = ReadGraph(ss, dict2);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->NumVertices(), g.NumVertices());
  EXPECT_EQ(g2->NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(dict2.Name(g2->label(v)), dict.Name(g.label(v)));
  }
  EXPECT_EQ(g2->Edges(), g.Edges());
}

TEST(GraphIoTest, RejectsMissingHeader) {
  std::stringstream ss("not a graph\n");
  LabelDictionary dict;
  auto g = ReadGraph(ss, dict);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kCorruption);
}

TEST(GraphIoTest, RejectsTruncatedVertexSection) {
  std::stringstream ss("bigindex-graph v1\n3 0\nonly_one_label\n");
  LabelDictionary dict;
  auto g = ReadGraph(ss, dict);
  EXPECT_FALSE(g.ok());
}

TEST(GraphIoTest, RejectsBadEdge) {
  std::stringstream ss("bigindex-graph v1\n1 1\nv\n0 7\n");
  LabelDictionary dict;
  auto g = ReadGraph(ss, dict);
  EXPECT_FALSE(g.ok());
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  std::stringstream ss(
      "# header comment\nbigindex-graph v1\n\n2 1\na\n# mid\nb\n0 1\n");
  LabelDictionary dict;
  auto g = ReadGraph(ss, dict);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 2u);
  EXPECT_EQ(g->NumEdges(), 1u);
}

TEST(GraphIoTest, FileMissingFails) {
  LabelDictionary dict;
  auto g = LoadGraphFile("/nonexistent/path/graph.txt", dict);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace bigindex

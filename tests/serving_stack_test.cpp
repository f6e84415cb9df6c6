// ServingStack tests: the identity every stack reports, the shard serving
// edge (global <-> local id remap, ownership and ghost skips on UPDATE) and
// the boundary state of a cut-incident shard, which must follow the served
// graph across UPDATE and ROLLBACK, and that UPDATEs start no threads.
// tools/ci.sh re-runs this suite under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/big_index.h"
#include "server/line_protocol.h"
#include "shard/serving_stack.h"
#include "shard/shard_build.h"
#include "testing/random_graph.h"
#include "testing/thread_count.h"
#include "update/delta.h"

namespace bigindex {
namespace {

GraphUpdate Add(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kAddEdge, u, v};
}
GraphUpdate Remove(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kRemoveEdge, u, v};
}

// Ontology: leaves {0..5} -> mids {6,7,8} -> root 9.
Ontology MakeOntology() {
  OntologyBuilder b;
  for (LabelId leaf = 0; leaf < 6; ++leaf) {
    b.AddSupertypeEdge(leaf, leaf < 3 ? 6 : (leaf < 5 ? 7 : 8));
  }
  for (LabelId mid = 6; mid < 9; ++mid) b.AddSupertypeEdge(mid, 9);
  return std::move(b.Build()).value();
}

// Path 0(label 0) -> 1(label 1) -> 2(label 2), plus spare vertices 3..5.
Graph PathGraph() {
  GraphBuilder b;
  for (LabelId l = 0; l < 6; ++l) b.AddVertex(l);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  return std::move(b.Build()).value();
}

BigIndex BuildIndex(const Graph& g, const Ontology* ontology) {
  return std::move(BigIndex::Build(g, ontology, {.max_layers = 2})).value();
}

EngineQuery Keywords(std::vector<LabelId> keywords) {
  EngineQuery q;
  q.algorithm = "bkws";
  q.keywords = std::move(keywords);
  q.eval.top_k = 0;
  q.eval.forced_layer = 0;
  return q;
}

// This "shard" owns global vertices {10..15} as locals {0..5}.
ShardImageInfo OwnsTenToFifteen(std::vector<VertexId> ghosts = {}) {
  return {.shard_id = 0,
          .num_shards = 2,
          .global_of = {10, 11, 12, 13, 14, 15},
          .ghosts = std::move(ghosts)};
}

TEST(ServingStack, MonolithicReportsIdentity) {
  Ontology ontology = MakeOntology();
  BigIndex index = BuildIndex(PathGraph(), &ontology);
  const uint32_t layers = static_cast<uint32_t>(index.NumLayers());
  ASSERT_GT(layers, 0u);
  ServingStack stack(BuiltShard{std::move(index), {}}, 0xfeed);

  EXPECT_EQ(stack.Identity(), (ServiceIdentity{.fingerprint = 0xfeed,
                                               .num_layers = layers,
                                               .shard_id = 0,
                                               .num_shards = 0}));
  LineHandler handler(&stack, nullptr);
  const std::string info = handler.Handle("info").response;
  EXPECT_NE(info.find("checksum=feed layers=" + std::to_string(layers)),
            std::string::npos)
      << info;
  EXPECT_NE(info.find("shard=0/0"), std::string::npos) << info;
  // The whole graph keeps its answer cache, and its ids pass through.
  EXPECT_EQ(stack.service().options().cache.capacity,
            SearchServiceOptions{}.cache.capacity);
  auto result = stack.Query(Keywords({0, 2}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->answers.empty());
  for (const Answer& a : result->answers) {
    for (VertexId v : a.vertices) EXPECT_LE(v, 2u);
  }
}

TEST(ServingStack, ShardRemapTranslatesAndSkipsUnowned) {
  Ontology ontology = MakeOntology();
  ServingStack stack(
      BuiltShard{BuildIndex(PathGraph(), &ontology), OwnsTenToFifteen()}, 0);
  EXPECT_EQ(stack.Identity().shard_id, 0u);
  EXPECT_EQ(stack.Identity().num_shards, 2u);
  // The coordinator caches merged answers; a shard does not.
  EXPECT_EQ(stack.service().options().cache.capacity, 0u);

  // Answers leave in global ids.
  auto result = stack.Query(Keywords({0, 2}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->answers.empty());
  for (const Answer& a : result->answers) {
    for (VertexId v : a.vertices) {
      EXPECT_TRUE(v >= 10 && v <= 12) << v;
    }
  }

  std::vector<GraphUpdate> batch = {
      Remove(11, 12),  // both owned -> local remove:1:2
      Add(10, 99),     // 99 unowned -> skipped
      Add(7, 8),       // neither owned -> skipped
  };
  auto outcome = stack.ApplyUpdate(batch);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->applied, 1u);
  EXPECT_EQ(outcome->skipped, 2u);
  EXPECT_FALSE(
      stack.service().engine_snapshot()->index().base().HasEdge(1, 2));

  // A batch with no owned endpoints never reaches the service.
  auto all_foreign = stack.ApplyUpdate(std::vector<GraphUpdate>{Add(20, 21)});
  ASSERT_TRUE(all_foreign.ok());
  EXPECT_EQ(all_foreign->applied, 0u);
  EXPECT_EQ(all_foreign->skipped, 1u);
  EXPECT_EQ(all_foreign->epoch, stack.epoch());

  // Ghosts are present locally but owned elsewhere: with local 2 (global
  // 12) a ghost, edge 1 -> 2 is a cut edge and ghost-incident ops skip.
  ServingStack ghosted(BuiltShard{BuildIndex(PathGraph(), &ontology),
                                  OwnsTenToFifteen({2})},
                       0);
  auto ghost_ops = ghosted.ApplyUpdate(
      std::vector<GraphUpdate>{Remove(11, 12), Add(12, 13), Add(13, 14)});
  ASSERT_TRUE(ghost_ops.ok()) << ghost_ops.status().ToString();
  EXPECT_EQ(ghost_ops->applied, 1u);
  EXPECT_EQ(ghost_ops->skipped, 2u);
  const Graph& served = ghosted.service().engine_snapshot()->index().base();
  EXPECT_TRUE(served.HasEdge(1, 2));
  EXPECT_TRUE(served.HasEdge(3, 4));
  auto boundary = ghosted.Boundary();
  ASSERT_TRUE(boundary.ok());
  EXPECT_EQ(boundary->cut_edges,
            (std::vector<std::pair<VertexId, VertexId>>{{11, 12}}));
}

void ExpectSameExport(const BoundaryExport& a, const BoundaryExport& b) {
  EXPECT_EQ(a.radius_cap, b.radius_cap);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
}

TEST(ServingStack, BoundaryReinstalledAcrossUpdate) {
  Graph g = testing::MakeRandomGraph(
      {.num_vertices = 41, .edge_density = 0.83, .num_labels = 6, .seed = 11});
  Ontology ontology =
      testing::MakeRandomOntologyDag({.num_leaves = 6, .height = 3, .seed = 7});
  auto sharded = BuildShardedIndex(g, &ontology,
                                   {.plan = {.num_shards = 2,
                                             .mode = ShardMode::kBfsBlocks,
                                             .bfs_block_size = 12},
                                    .index = {.max_layers = 2}});
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto cut_incident = std::find_if(
      sharded->shards.begin(), sharded->shards.end(),
      [](const BuiltShard& s) { return !s.shard.ghosts.empty(); });
  ASSERT_NE(cut_incident, sharded->shards.end());
  const ShardImageInfo info = cut_incident->shard;
  ServingStack stack(std::move(*cut_incident), 0);

  auto before = stack.Boundary();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->HasCut());
  ASSERT_FALSE(before->edges.empty());

  // Remove an owned edge inside the exported region: the successor's
  // boundary must be the one a fresh stack computes over the same graph.
  const auto [u, v] = before->edges.front();
  auto outcome = stack.ApplyUpdate(std::vector<GraphUpdate>{Remove(u, v)});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->applied, 1u);
  auto after = stack.Boundary();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(std::count(after->edges.begin(), after->edges.end(),
                       std::make_pair(u, v)),
            0);

  ServingStack fresh(
      BuiltShard{BigIndex(*stack.updater().versions().Current()->index),
                 info},
      0);
  auto expected = fresh.Boundary();
  ASSERT_TRUE(expected.ok());
  ExpectSameExport(*after, *expected);
  // The near-cut answer filter moved with it.
  for (LabelId a = 0; a < 3; ++a) {
    auto got = stack.Query(Keywords({a, static_cast<LabelId>(a + 1)}));
    auto want = fresh.Query(Keywords({a, static_cast<LabelId>(a + 1)}));
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got->answers, want->answers) << "keywords " << a;
  }

  // Rolling back re-publishes the previous graph, and its boundary.
  ASSERT_TRUE(stack.Rollback().ok());
  auto restored = stack.Boundary();
  ASSERT_TRUE(restored.ok());
  ExpectSameExport(*restored, *before);
}

TEST(ServingStackTest, UpdatesStartNoThreads) {
  // num_threads = 2 sizes every engine for two concurrent evaluations; the
  // version store keeps the previous engine for ROLLBACK, so an engine that
  // started its own threads would leave them idle here after each UPDATE.
  Ontology ontology = MakeOntology();
  ServingStack stack(BuiltShard{BuildIndex(PathGraph(), &ontology), {}}, 0,
                     {}, {.engine = {.num_threads = 2}});
  const int constructed = testing::ProcessThreadCount();
  if (constructed < 0) GTEST_SKIP() << "/proc/self/status is unreadable";

  for (int i = 0; i < 20; ++i) {
    const GraphUpdate op = i % 2 == 0 ? Add(2, 3) : Remove(2, 3);
    auto outcome = stack.ApplyUpdate(std::vector<GraphUpdate>{op});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome->applied, 1u) << "update " << i;
  }
  EXPECT_EQ(testing::ProcessThreadCount(), constructed);
}

}  // namespace
}  // namespace bigindex

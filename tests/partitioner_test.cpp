// Graph-sharder tests: plan invariants (coverage, balance, boundary
// manifest) over 50 random seeds for both shard modes, order-preserving
// extraction, plan determinism, and a sharded-vs-monolithic differential in
// connectivity-closed mode — the scatter-gather union of per-shard answer
// sets must equal the monolithic answer set for every registered algorithm
// at every layer (tests/shard_test.cpp runs the full 100-seed acceptance
// gate through the substrates; this one exercises the partitioner + extract
// layer directly).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/big_index.h"
#include "engine/query_engine.h"
#include "search/answer.h"
#include "search/partitioner.h"
#include "search/rclique.h"
#include "shard/shard_build.h"
#include "testing/random_graph.h"
#include "util/random.h"

namespace bigindex {
namespace {

using testing::MakeRandomGraph;
using testing::MakeRandomOntologyDag;
using testing::RandomGraphOptions;

constexpr int kSeeds = 50;

RandomGraphOptions GraphOptions(uint64_t seed) {
  RandomGraphOptions opts;
  opts.num_vertices = 40 + seed % 140;
  opts.edge_density = 0.5 + 0.04 * static_cast<double>(seed % 50);
  opts.num_labels = 6;
  opts.label_skew = seed % 3 ? 0.0 : 0.8;
  opts.seed = seed;
  return opts;
}

// --- Plan invariants ------------------------------------------------------

void CheckCover(const Graph& g, const ShardPlan& plan) {
  ASSERT_EQ(plan.NumVertices(), g.NumVertices());
  size_t total = 0;
  for (uint32_t s = 0; s < plan.num_shards(); ++s) {
    std::span<const VertexId> members = plan.ShardMembers(s);
    total += members.size();
    ASSERT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (VertexId v : members) EXPECT_EQ(plan.ShardOf(v), s);
  }
  // Sorted-within-shard + ShardOf agreement + total count == exact cover.
  EXPECT_EQ(total, g.NumVertices());
}

void CheckManifest(const Graph& g, const ShardPlan& plan) {
  // The manifest must list exactly the severed edges, sorted by
  // (source, target).
  std::vector<CutEdge> expected;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      if (plan.ShardOf(u) != plan.ShardOf(v)) expected.push_back({u, v});
    }
  }
  std::span<const CutEdge> cut = plan.CutEdges();
  ASSERT_EQ(cut.size(), expected.size());
  for (size_t i = 0; i < cut.size(); ++i) {
    EXPECT_EQ(cut[i], expected[i]);
    if (i > 0) {
      EXPECT_TRUE(cut[i - 1].source < cut[i].source ||
                  (cut[i - 1].source == cut[i].source &&
                   cut[i - 1].target < cut[i].target));
    }
  }
}

TEST(ShardPlan, ConnectivityClosedInvariantsOver50Seeds) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Graph g = MakeRandomGraph(GraphOptions(seed));
    for (size_t n : {1u, 2u, 4u, 7u}) {
      auto plan = PlanShards(g, {.num_shards = n});
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      ASSERT_EQ(plan->num_shards(), n);
      CheckCover(g, *plan);
      // Whole components per shard => no edge is ever severed.
      EXPECT_TRUE(plan->CutEdges().empty()) << "seed " << seed;
      CheckManifest(g, *plan);
      // Component closure: every edge stays within one shard.
      for (VertexId u = 0; u < g.NumVertices(); ++u) {
        for (VertexId v : g.OutNeighbors(u)) {
          ASSERT_EQ(plan->ShardOf(u), plan->ShardOf(v));
        }
      }
    }
  }
}

TEST(ShardPlan, BfsBlocksInvariantsAndBalanceOver50Seeds) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Graph g = MakeRandomGraph(GraphOptions(seed));
    const size_t block = 16;
    for (size_t n : {2u, 4u}) {
      auto plan = PlanShards(
          g, {.num_shards = n, .mode = ShardMode::kBfsBlocks,
              .bfs_block_size = block});
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      CheckCover(g, *plan);
      CheckManifest(g, *plan);
      // LPT guarantee: no shard exceeds ideal share + one packing unit.
      size_t max_size = 0;
      for (uint32_t s = 0; s < n; ++s) {
        max_size = std::max(max_size, plan->ShardMembers(s).size());
      }
      double ideal = static_cast<double>(g.NumVertices()) / n;
      EXPECT_LE(static_cast<double>(max_size), ideal + block)
          << "seed " << seed << " shards " << n;
    }
  }
}

TEST(ShardPlan, Deterministic) {
  for (int seed : {3, 17, 42}) {
    Graph g = MakeRandomGraph(GraphOptions(seed));
    for (ShardMode mode :
         {ShardMode::kConnectivityClosed, ShardMode::kBfsBlocks}) {
      ShardPlanOptions opts{.num_shards = 3, .mode = mode,
                            .bfs_block_size = 16};
      auto a = PlanShards(g, opts);
      auto b = PlanShards(g, opts);
      ASSERT_TRUE(a.ok() && b.ok());
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        ASSERT_EQ(a->ShardOf(v), b->ShardOf(v));
      }
      ASSERT_TRUE(std::equal(a->CutEdges().begin(), a->CutEdges().end(),
                             b->CutEdges().begin(), b->CutEdges().end()));
    }
  }
}

TEST(ShardPlan, RejectsZeroShards) {
  Graph g = MakeRandomGraph(GraphOptions(1));
  EXPECT_FALSE(PlanShards(g, {.num_shards = 0}).ok());
}

TEST(ShardPlan, EmptyGraph) {
  Graph g;
  auto plan = PlanShards(g, {.num_shards = 3});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumVertices(), 0u);
  for (uint32_t s = 0; s < 3; ++s) EXPECT_TRUE(plan->ShardMembers(s).empty());
}

// --- Extraction -----------------------------------------------------------

TEST(ExtractShard, OrderPreservingRemapAndEdgeAccounting) {
  for (int seed = 1; seed <= 10; ++seed) {
    Graph g = MakeRandomGraph(GraphOptions(seed));
    for (ShardMode mode :
         {ShardMode::kConnectivityClosed, ShardMode::kBfsBlocks}) {
      auto plan = PlanShards(
          g, {.num_shards = 3, .mode = mode, .bfs_block_size = 16});
      ASSERT_TRUE(plan.ok());
      size_t edges = 0, cut_copies = 0;
      for (uint32_t s = 0; s < plan->num_shards(); ++s) {
        auto ex = ExtractShard(g, *plan, s);
        ASSERT_TRUE(ex.ok()) << ex.status().ToString();
        std::span<const VertexId> members = plan->ShardMembers(s);
        // global_of covers members plus materialized ghosts, and local id i
        // is the i-th smallest global id of that union (order-preserving).
        ASSERT_EQ(ex->global_of.size(), members.size() + ex->ghosts.size());
        ASSERT_EQ(ex->graph.NumVertices(), ex->global_of.size());
        ASSERT_TRUE(std::is_sorted(ex->global_of.begin(),
                                   ex->global_of.end()));
        ASSERT_TRUE(std::adjacent_find(ex->global_of.begin(),
                                       ex->global_of.end()) ==
                    ex->global_of.end());
        // Stripping the ghosts leaves exactly the sorted member list.
        std::set<VertexId> ghost_locals(ex->ghosts.begin(),
                                        ex->ghosts.end());
        std::vector<VertexId> owned;
        for (VertexId local = 0; local < ex->graph.NumVertices(); ++local) {
          if (!ghost_locals.count(local)) {
            owned.push_back(ex->global_of[local]);
          }
        }
        EXPECT_TRUE(std::equal(owned.begin(), owned.end(), members.begin(),
                               members.end()));
        if (mode == ShardMode::kConnectivityClosed) {
          EXPECT_TRUE(ex->ghosts.empty());
        }
        // Labels ride along unchanged, ghosts included.
        for (VertexId local = 0; local < ex->graph.NumVertices(); ++local) {
          EXPECT_EQ(ex->graph.label(local), g.label(ex->global_of[local]));
        }
        edges += ex->graph.NumEdges();
        // Every incident cut edge is materialized in this shard.
        for (const CutEdge& e : plan->CutEdges()) {
          if (plan->ShardOf(e.source) != s && plan->ShardOf(e.target) != s) {
            continue;
          }
          ++cut_copies;
          auto local_of = [&](VertexId global, VertexId* local) {
            auto it = std::lower_bound(ex->global_of.begin(),
                                       ex->global_of.end(), global);
            if (it == ex->global_of.end() || *it != global) return false;
            *local = static_cast<VertexId>(it - ex->global_of.begin());
            return true;
          };
          VertexId lu, lv;
          ASSERT_TRUE(local_of(e.source, &lu) && local_of(e.target, &lv));
          auto out = ex->graph.OutNeighbors(lu);
          EXPECT_TRUE(std::find(out.begin(), out.end(), lv) != out.end())
              << "cut edge " << e.source << "->" << e.target
              << " missing in shard " << s;
        }
      }
      // Every intra-shard edge lands in exactly one shard subgraph; every
      // cut edge is materialized in both incident shards.
      EXPECT_EQ(cut_copies, 2 * plan->CutEdges().size());
      EXPECT_EQ(edges, g.NumEdges() + plan->CutEdges().size());
    }
  }
}

TEST(ExtractShard, RejectsOutOfRangeShard) {
  Graph g = MakeRandomGraph(GraphOptions(1));
  auto plan = PlanShards(g, {.num_shards = 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(ExtractShard(g, *plan, 2).ok());
}

// --- Ghost / cut-manifest invariants (DESIGN.md §9) -----------------------

TEST(GhostManifest, RemapRoundTripsOver50Seeds) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Graph g = MakeRandomGraph(GraphOptions(seed));
    for (size_t n : {2u, 4u}) {
      auto plan = PlanShards(g, {.num_shards = n,
                                 .mode = ShardMode::kBfsBlocks,
                                 .bfs_block_size = 16});
      ASSERT_TRUE(plan.ok());
      for (uint32_t s = 0; s < n; ++s) {
        auto ex = ExtractShard(g, *plan, s);
        ASSERT_TRUE(ex.ok());
        ASSERT_TRUE(std::is_sorted(ex->ghosts.begin(), ex->ghosts.end()));
        ASSERT_TRUE(std::adjacent_find(ex->ghosts.begin(),
                                       ex->ghosts.end()) ==
                    ex->ghosts.end());
        // global -> local -> global is the identity for every materialized
        // vertex: the remap is a strictly ascending bijection onto locals.
        for (VertexId local = 0; local < ex->graph.NumVertices(); ++local) {
          VertexId global = ex->global_of[local];
          auto it = std::lower_bound(ex->global_of.begin(),
                                     ex->global_of.end(), global);
          ASSERT_TRUE(it != ex->global_of.end() && *it == global);
          ASSERT_EQ(static_cast<VertexId>(it - ex->global_of.begin()),
                    local);
        }
        // Ghosts are exactly the foreign endpoints of this shard's
        // incident cut edges — no more, no fewer — and each is owned by a
        // different shard.
        std::set<VertexId> expected_ghosts;
        for (const CutEdge& e : plan->CutEdges()) {
          if (plan->ShardOf(e.source) == s) expected_ghosts.insert(e.target);
          if (plan->ShardOf(e.target) == s) expected_ghosts.insert(e.source);
        }
        std::set<VertexId> actual_ghosts;
        for (VertexId local : ex->ghosts) {
          ASSERT_LT(local, ex->graph.NumVertices());
          VertexId global = ex->global_of[local];
          EXPECT_NE(plan->ShardOf(global), s);
          // "Exactly once": inserting twice would mean a duplicate.
          EXPECT_TRUE(actual_ghosts.insert(global).second);
        }
        EXPECT_EQ(actual_ghosts, expected_ghosts)
            << "seed " << seed << " shard " << s << "/" << n;
      }
    }
  }
}

// --- Sharded-vs-monolithic differential ----------------------------------

// r-clique's default registration caps answers at top_k=10 internally; the
// differential compares full answer sets, so every engine re-registers it
// uncapped. All other defaults already enumerate exhaustively.
void UncapRClique(QueryEngine& engine) {
  engine.Register(
      std::make_unique<RCliqueAlgorithm>(RCliqueOptions{.r = 4, .top_k = 0}));
}

TEST(ShardDifferential, UnionOfShardAnswersEqualsMonolithic) {
  for (int seed = 1; seed <= 12; ++seed) {
    RandomGraphOptions gopts = GraphOptions(seed);
    gopts.num_vertices = 40 + seed % 40;
    Graph g = MakeRandomGraph(gopts);
    Ontology ontology =
        MakeRandomOntologyDag({.num_leaves = 6, .height = 3, .seed = 7});

    auto mono_index = BigIndex::Build(g, &ontology, {.max_layers = 3});
    ASSERT_TRUE(mono_index.ok());
    QueryEngine mono(std::move(mono_index).value());
    UncapRClique(mono);

    auto plan = PlanShards(g, {.num_shards = 4});
    ASSERT_TRUE(plan.ok());
    std::vector<std::unique_ptr<QueryEngine>> engines;
    size_t max_layers = mono.index().NumLayers();
    for (uint32_t s = 0; s < plan->num_shards(); ++s) {
      auto ex = ExtractShard(g, *plan, s);
      ASSERT_TRUE(ex.ok());
      auto index =
          BigIndex::Build(std::move(ex->graph), &ontology, {.max_layers = 3});
      ASSERT_TRUE(index.ok());
      engines.push_back(
          std::make_unique<QueryEngine>(std::move(index).value()));
      UncapRClique(*engines.back());
    }

    Rng rng(seed * 977);
    std::vector<ShardExtract> extracts;
    for (uint32_t s = 0; s < plan->num_shards(); ++s) {
      extracts.push_back(std::move(ExtractShard(g, *plan, s)).value());
    }
    for (const char* algo :
         {"bkws", "blinks", "r-clique", "bidirectional"}) {
      EngineQuery q;
      q.algorithm = algo;
      q.keywords = {static_cast<LabelId>(rng.Uniform(6)),
                    static_cast<LabelId>(rng.Uniform(6))};
      q.NormalizeKeywords();
      q.eval.top_k = 0;  // full set equality, every layer
      for (int layer = 0; layer <= static_cast<int>(max_layers); ++layer) {
        q.eval.forced_layer = layer;
        auto mono_result = mono.Evaluate(q);
        ASSERT_TRUE(mono_result.ok()) << mono_result.status().ToString();
        std::vector<Answer> merged;
        for (uint32_t s = 0; s < plan->num_shards(); ++s) {
          auto r = engines[s]->Evaluate(q);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          for (Answer a : r->answers) {
            // Remap shard-local ids to global before comparing.
            const std::vector<VertexId>& remap = extracts[s].global_of;
            for (VertexId& v : a.vertices) v = remap[v];
            for (VertexId& v : a.keyword_vertices) v = remap[v];
            if (a.root != kInvalidVertex) a.root = remap[a.root];
            merged.push_back(std::move(a));
          }
        }
        SortAnswers(merged);
        std::vector<Answer> expected = mono_result->answers;
        SortAnswers(expected);
        ASSERT_EQ(merged, expected)
            << "seed " << seed << " algo " << algo << " layer " << layer;
      }
    }
  }
}

}  // namespace
}  // namespace bigindex

// Unit + differential tests for the live-update subsystem's core:
// NormalizeUpdates edge semantics (duplicates, add-then-remove, self-loops),
// the kernel's cone re-sign (ResignCone) == ComputeBisimulation over random
// update batches (including merge-inducing removals and additions), and
// MaintainIndex == from-scratch BigIndex::Build, down to serialized bytes.
//
// tools/ci.sh runs these under TSan alongside the other differential
// suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bisim/bisimulation.h"
#include "core/big_index.h"
#include "core/index_image.h"
#include "graph/label_dictionary.h"
#include "testing/random_graph.h"
#include "update/delta.h"
#include "update/maintain.h"
#include "util/random.h"

namespace bigindex {
namespace {

using bigindex::testing::MakeRandomDag;
using bigindex::testing::MakeRandomGraph;
using bigindex::testing::MakeRandomInstance;
using bigindex::testing::RandomGraphOptions;
using bigindex::testing::RandomInstance;
using bigindex::testing::RandomOntologyOptions;

GraphUpdate Add(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kAddEdge, u, v};
}
GraphUpdate Remove(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kRemoveEdge, u, v};
}

Graph MakeGraph(size_t n, LabelId label,
                std::vector<std::pair<VertexId, VertexId>> edges) {
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) b.AddVertex(label);
  for (auto [u, v] : edges) b.AddEdge(u, v);
  return std::move(b.Build()).value();
}

// Random update batch against `g`: a mix of removals of present edges,
// additions of (mostly) absent edges, self-loops, duplicates, and
// add/remove flip-flops on the same edge.
std::vector<GraphUpdate> MakeRandomBatch(const Graph& g, size_t count,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<GraphUpdate> batch;
  const size_t n = g.NumVertices();
  if (n == 0) return batch;
  const auto edges = g.Edges();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t pick = rng.Uniform(10);
    if (pick < 4 && !edges.empty()) {
      auto [u, v] = edges[rng.Uniform(edges.size())];
      batch.push_back(Remove(u, v));
    } else if (pick < 8) {
      VertexId u = static_cast<VertexId>(rng.Uniform(n));
      VertexId v = rng.Bernoulli(0.1) ? u : static_cast<VertexId>(rng.Uniform(n));
      batch.push_back(Add(u, v));
    } else if (!batch.empty()) {
      // Duplicate or invert an earlier op on the same edge.
      GraphUpdate prior = batch[rng.Uniform(batch.size())];
      if (rng.Bernoulli(0.5)) {
        prior.kind = prior.kind == GraphUpdate::Kind::kAddEdge
                         ? GraphUpdate::Kind::kRemoveEdge
                         : GraphUpdate::Kind::kAddEdge;
      }
      batch.push_back(prior);
    } else {
      batch.push_back(Add(static_cast<VertexId>(rng.Uniform(n)),
                          static_cast<VertexId>(rng.Uniform(n))));
    }
  }
  return batch;
}

// Dirty frontier for a batch at the base layer: sources of every net edge
// change (successor bisimulation only observes out-neighborhoods).
std::vector<VertexId> DirtySources(const UpdateDelta& delta) {
  std::vector<VertexId> dirty;
  for (const auto& [u, v] : delta.added) dirty.push_back(u);
  for (const auto& [u, v] : delta.removed) dirty.push_back(u);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

// The cone re-sign of `g` against `prior`, a summary of its predecessor
// graph over the same vertices, with no cone limit.
StatusOr<ConeResult> Resign(const Graph& g, const BisimResult& prior,
                            std::span<const VertexId> changed) {
  return ResignCone(g, g.labels(), prior, {}, changed, g.NumVertices());
}

void ExpectSameBisim(const BisimResult& a, const BisimResult& b,
                     const std::string& context) {
  EXPECT_TRUE(GraphsIdentical(a.summary, b.summary)) << context;
  ASSERT_EQ(a.mapping.NumVertices(), b.mapping.NumVertices()) << context;
  ASSERT_EQ(a.mapping.NumSupernodes(), b.mapping.NumSupernodes()) << context;
  for (VertexId v = 0; v < a.mapping.NumVertices(); ++v) {
    ASSERT_EQ(a.mapping.SuperOf(v), b.mapping.SuperOf(v))
        << context << " vertex " << v;
  }
}

// Serializes an index with a synthetic dictionary covering every label slot
// the ontology can produce; byte equality of this is the strongest
// equivalence the system defines (it is what images and the wire carry).
std::string Serialize(const BigIndex& index, size_t label_slots) {
  LabelDictionary dict;
  for (size_t i = 0; i < label_slots; ++i) {
    dict.Intern("t" + std::to_string(i));
  }
  std::ostringstream out;
  EXPECT_TRUE(WriteIndexImage(index, dict, out).ok());
  return out.str();
}

// ---------------------------------------------------------------------------
// NormalizeUpdates / ApplyUpdates edge semantics (satellite: duplicates,
// add-then-remove, self-loops must behave identically on every path).

TEST(NormalizeUpdatesTest, LastOpWinsAndRedundantsAreCounted) {
  Graph g = MakeGraph(3, 7, {{0, 1}});
  std::vector<GraphUpdate> batch = {
      Add(0, 2),     // net add
      Add(0, 2),     // duplicate -> redundant
      Remove(0, 1),  // superseded below -> redundant
      Add(0, 1),     // re-add of a present edge -> net no-op, redundant
      Add(1, 2),     // superseded below -> redundant
      Remove(1, 2),  // add-then-remove of an absent edge -> net no-op
      Remove(2, 0),  // remove of an absent edge -> redundant
  };
  auto delta = NormalizeUpdates(g, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->added, (std::vector<std::pair<VertexId, VertexId>>{{0, 2}}));
  EXPECT_TRUE(delta->removed.empty());
  EXPECT_EQ(delta->redundant, 6u);
}

TEST(NormalizeUpdatesTest, RemoveThenAddOfPresentEdgeIsNoOp) {
  Graph g = MakeGraph(2, 0, {{0, 1}});
  std::vector<GraphUpdate> batch = {Remove(0, 1), Add(0, 1)};
  auto delta = NormalizeUpdates(g, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST(NormalizeUpdatesTest, SelfLoopsAreOrdinaryEdges) {
  Graph g = MakeGraph(2, 0, {{1, 1}});
  std::vector<GraphUpdate> batch = {Add(0, 0), Remove(1, 1)};
  auto delta = NormalizeUpdates(g, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->added, (std::vector<std::pair<VertexId, VertexId>>{{0, 0}}));
  EXPECT_EQ(delta->removed,
            (std::vector<std::pair<VertexId, VertexId>>{{1, 1}}));

  auto updated = ApplyUpdates(g, batch);
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(updated->HasEdge(0, 0));
  EXPECT_FALSE(updated->HasEdge(1, 1));
}

TEST(NormalizeUpdatesTest, OutOfRangeEndpointsFail) {
  Graph g = MakeGraph(2, 0, {});
  EXPECT_FALSE(NormalizeUpdates(g, std::vector<GraphUpdate>{Add(0, 2)}).ok());
  EXPECT_FALSE(
      NormalizeUpdates(g, std::vector<GraphUpdate>{Remove(5, 0)}).ok());
}

TEST(NormalizeUpdatesTest, MatchesSequentialApplicationOnRandomBatches) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 10 + seed % 40;
    opt.edge_density = 1.0 + static_cast<double>(seed % 4);
    Graph g = MakeRandomGraph(opt);
    auto batch = MakeRandomBatch(g, 1 + seed % 25, seed * 13 + 1);

    // Reference: one-op-at-a-time application.
    Graph reference = g;
    for (const GraphUpdate& up : batch) {
      auto next = ApplyUpdates(reference, std::vector<GraphUpdate>{up});
      ASSERT_TRUE(next.ok());
      reference = std::move(next).value();
    }
    auto batched = ApplyUpdates(g, batch);
    ASSERT_TRUE(batched.ok());
    EXPECT_TRUE(GraphsIdentical(reference, *batched)) << "seed " << seed;
  }
}

// ApplyDelta splices rows into a copy of g's arrays; the reference is the
// same edge set handed to a GraphBuilder, compared array for array (the
// in-adjacency and label index included).
TEST(ApplyDeltaTest, SpliceMatchesGraphBuilder) {
  auto vec = [](auto span) { return std::vector(span.begin(), span.end()); };
  for (uint64_t seed = 0; seed < 40; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 1 + (seed * 23) % 120;
    opt.edge_density = 0.5 * static_cast<double>(seed % 6);
    Graph g = MakeRandomGraph(opt);
    auto delta = NormalizeUpdates(g, MakeRandomBatch(g, 1 + seed % 20, seed));
    ASSERT_TRUE(delta.ok());
    const Graph spliced = ApplyDelta(g, *delta);

    GraphBuilder b;
    for (LabelId l : g.labels()) b.AddVertex(l);
    for (const auto& e : g.Edges()) {
      if (!std::binary_search(delta->removed.begin(), delta->removed.end(),
                              e)) {
        b.AddEdge(e.first, e.second);
      }
    }
    for (const auto& [u, v] : delta->added) b.AddEdge(u, v);
    auto built = b.Build();
    ASSERT_TRUE(built.ok());
    const std::string context = "seed " + std::to_string(seed);
    EXPECT_EQ(vec(spliced.labels()), vec(built->labels())) << context;
    EXPECT_EQ(vec(spliced.OutOffsets()), vec(built->OutOffsets())) << context;
    EXPECT_EQ(vec(spliced.OutTargets()), vec(built->OutTargets())) << context;
    EXPECT_EQ(vec(spliced.InOffsets()), vec(built->InOffsets())) << context;
    EXPECT_EQ(vec(spliced.InSources()), vec(built->InSources())) << context;
    EXPECT_EQ(vec(spliced.LabelOffsets()), vec(built->LabelOffsets()))
        << context;
    EXPECT_EQ(vec(spliced.LabelVertices()), vec(built->LabelVertices()))
        << context;
    EXPECT_EQ(vec(spliced.DistinctLabels()), vec(built->DistinctLabels()))
        << context;
  }
}

// ---------------------------------------------------------------------------
// The cone re-sign == ComputeBisimulation.

TEST(IncrementalBisimTest, RemovalCanMergeBlocks) {
  // a->b, c: removing a->b makes all three bisimilar; the re-signed a meets
  // the row of b and c's block.
  Graph g0 = MakeGraph(3, 5, {{0, 1}});
  BisimResult before = ComputeBisimulation(g0, g0.labels());
  ASSERT_EQ(before.mapping.NumSupernodes(), 2u);

  auto g1 = ApplyUpdates(g0, std::vector<GraphUpdate>{Remove(0, 1)});
  ASSERT_TRUE(g1.ok());
  auto cone = Resign(*g1, before, std::vector<VertexId>{0});
  ASSERT_TRUE(cone.ok());
  ASSERT_TRUE(cone->applied);
  EXPECT_EQ(cone->bisim.mapping.NumSupernodes(), 1u);
  EXPECT_EQ(cone->moved, 1u);
  ExpectSameBisim(ComputeBisimulation(*g1, g1->labels()), cone->bisim,
                  "removal merge");
}

TEST(IncrementalBisimTest, AdditionCanMergeBlocks) {
  // a->b plus isolated c,d: adding c->d makes a ~ c and b ~ d.
  Graph g0 = MakeGraph(4, 5, {{0, 1}});
  BisimResult before = ComputeBisimulation(g0, g0.labels());
  auto g1 = ApplyUpdates(g0, std::vector<GraphUpdate>{Add(2, 3)});
  ASSERT_TRUE(g1.ok());
  auto cone = Resign(*g1, before, std::vector<VertexId>{2});
  ASSERT_TRUE(cone.ok());
  ASSERT_TRUE(cone->applied);
  EXPECT_EQ(cone->bisim.mapping.NumSupernodes(), 2u);
  ExpectSameBisim(ComputeBisimulation(*g1, g1->labels()), cone->bisim,
                  "addition merge");
}

// Random update streams over DAGs and over cyclic graphs, chained so each
// prior comes from a cone re-sign. Every result equals ComputeBisimulation;
// a cone that holds a cycle re-runs the kernel, which never happens on a DAG
// kept acyclic.
TEST(IncrementalBisimTest, MatchesWholesaleOnRandomUpdateStreams) {
  size_t signed_once = 0, reruns = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 15 + (seed * 31) % 300;
    opt.edge_density = 0.5 + static_cast<double>(seed % 6);
    opt.num_labels = 1 + seed % 10;
    opt.label_skew = (seed % 3) * 0.5;
    const bool dag = seed % 2 == 0;
    Graph g = dag ? MakeRandomDag(opt) : MakeRandomGraph(opt);

    BisimResult current = ComputeBisimulation(g, g.labels());
    for (int step = 0; step < 3; ++step) {
      auto batch = MakeRandomBatch(g, 1 + (seed + step) % 12,
                                   seed * 97 + step + 1);
      if (dag) {
        // Keep the DAG: every added edge points to a higher id.
        std::erase_if(batch, [](const GraphUpdate& up) {
          return up.kind == GraphUpdate::Kind::kAddEdge &&
                 up.source >= up.target;
        });
      }
      auto delta = NormalizeUpdates(g, batch);
      ASSERT_TRUE(delta.ok());
      Graph next = ApplyDelta(g, *delta);
      const std::string context =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);

      auto cone = Resign(next, current, DirtySources(*delta));
      ASSERT_TRUE(cone.ok()) << context;
      ASSERT_TRUE(cone->applied) << context;
      ExpectSameBisim(ComputeBisimulation(next, next.labels()), cone->bisim,
                      context);
      if (cone->rerun) {
        ++reruns;
        EXPECT_FALSE(dag) << context;
      } else {
        ++signed_once;
        EXPECT_EQ(cone->reused, cone->moved == 0) << context;
      }
      g = std::move(next);
      current = std::move(cone->bisim);
    }
  }
  EXPECT_GE(signed_once, 150u);
  EXPECT_GT(reruns, 0u);
}

TEST(IncrementalBisimTest, RejectsMalformedInput) {
  Graph g = MakeGraph(3, 0, {});
  const BisimResult prior = ComputeBisimulation(g, g.labels());
  const std::vector<VertexId> changed = {0};
  ASSERT_TRUE(Resign(g, prior, changed).ok());
  // Labels, to_prior and changed must fit g.
  EXPECT_FALSE(ResignCone(g, {}, prior, {}, changed, 3).ok());
  EXPECT_FALSE(ResignCone(g, g.labels(), prior,
                          std::vector<VertexId>{0, 1}, changed, 3)
                   .ok());
  EXPECT_FALSE(ResignCone(g, g.labels(), prior,
                          std::vector<VertexId>{0, 1, 7}, changed, 3)
                   .ok());
  EXPECT_FALSE(Resign(g, prior, std::vector<VertexId>{9}).ok());
  // A vertex without a counterpart must be in changed.
  EXPECT_FALSE(ResignCone(g, g.labels(), prior,
                          std::vector<VertexId>{0, 1, kInvalidVertex},
                          changed, 3)
                   .ok());
  EXPECT_TRUE(ResignCone(g, g.labels(), prior,
                         std::vector<VertexId>{0, 1, kInvalidVertex},
                         std::vector<VertexId>{2}, 3)
                  .ok());
}

// ---------------------------------------------------------------------------
// MaintainIndex == from-scratch Build, serialized bytes.

RandomInstance MakeInstance(uint64_t seed) {
  RandomGraphOptions gopt;
  gopt.seed = seed;
  gopt.num_vertices = 20 + (seed * 41) % 250;
  gopt.edge_density = 1.0 + static_cast<double>(seed % 4);
  gopt.num_labels = 4 + seed % 8;
  RandomOntologyOptions oopt;
  oopt.num_leaves = gopt.num_labels;
  oopt.height = 2 + seed % 3;
  oopt.seed = seed + 1;
  return MakeRandomInstance(gopt, oopt);
}

TEST(MaintainIndexTest, MatchesFromScratchBuildOnRandomStreams) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    RandomInstance inst = MakeInstance(seed);
    BigIndexOptions opts;
    opts.max_layers = 4;
    auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(index.ok());

    Graph base = inst.graph;
    BigIndex current = *index;
    for (int step = 0; step < 2; ++step) {
      auto batch =
          MakeRandomBatch(base, 1 + (seed + step) % 10, seed * 71 + step);
      MaintainReport report;
      auto maintained =
          MaintainIndex(current, batch, MaintainOptions{}, &report);
      ASSERT_TRUE(maintained.ok()) << "seed " << seed << " step " << step;

      auto updated_base = ApplyUpdates(base, batch);
      ASSERT_TRUE(updated_base.ok());
      auto rebuilt = BigIndex::Build(*updated_base, &inst.ontology, opts);
      ASSERT_TRUE(rebuilt.ok());

      const size_t slots = inst.ontology.LabelSlots();
      EXPECT_EQ(Serialize(*maintained, slots), Serialize(*rebuilt, slots))
          << "seed " << seed << " step " << step;
      base = std::move(*updated_base);
      current = std::move(*maintained);
    }
  }
}

// A random DAG instance: every layer graph is acyclic, so every layer the
// old stack covers takes the cone re-sign.
RandomInstance MakeDagInstance(uint64_t seed) {
  RandomInstance inst = MakeInstance(seed);
  RandomGraphOptions gopt;
  gopt.seed = seed;
  gopt.num_vertices = 20 + (seed * 41) % 250;
  gopt.edge_density = 1.0 + static_cast<double>(seed % 4);
  gopt.num_labels = 4 + seed % 8;
  inst.graph = MakeRandomDag(gopt);
  return inst;
}

// No cone is too large: only a cycle in the cone sends a layer wholesale.
constexpr MaintainOptions kAnyCone{.fallback_dirty_ratio = 1.0};

// Chained batches that keep the graph acyclic: maintained bytes equal a
// rebuild, and no layer the old stack covers goes wholesale.
TEST(MaintainIndexTest, MatchesFromScratchBuildOnDagStreams) {
  size_t cone_layers = 0;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    RandomInstance inst = MakeDagInstance(seed);
    BigIndexOptions opts;
    opts.max_layers = 4;
    auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(index.ok());

    Graph base = inst.graph;
    BigIndex current = *index;
    for (int step = 0; step < 3; ++step) {
      auto batch =
          MakeRandomBatch(base, 1 + (seed + step) % 10, seed * 71 + step);
      std::erase_if(batch, [](const GraphUpdate& up) {
        return up.kind == GraphUpdate::Kind::kAddEdge &&
               up.source >= up.target;
      });
      MaintainReport report;
      auto maintained = MaintainIndex(current, batch, kAnyCone, &report);
      ASSERT_TRUE(maintained.ok()) << "seed " << seed << " step " << step;

      auto updated_base = ApplyUpdates(base, batch);
      ASSERT_TRUE(updated_base.ok());
      auto rebuilt = BigIndex::Build(*updated_base, &inst.ontology, opts);
      ASSERT_TRUE(rebuilt.ok());
      const size_t slots = inst.ontology.LabelSlots();
      EXPECT_EQ(Serialize(*maintained, slots), Serialize(*rebuilt, slots))
          << "seed " << seed << " step " << step;
      for (size_t i = 0; i < report.layers.size(); ++i) {
        const LayerMaintenance mode = report.layers[i].mode;
        if (i < current.NumLayers()) {
          EXPECT_NE(mode, LayerMaintenance::kWholesale)
              << "seed " << seed << " step " << step << " layer " << i + 1;
        }
        cone_layers += mode == LayerMaintenance::kPatched ||
                       mode == LayerMaintenance::kIncremental;
      }
      base = std::move(*updated_base);
      current = std::move(*maintained);
    }
  }
  EXPECT_GT(cone_layers, 50u);
}

// A batch whose added edge closes a cycle through well-founded vertices: the
// cone now holds that cycle, so the kernel re-runs on the layer, with the
// rebuild's bytes.
TEST(MaintainIndexTest, BatchClosingACycleMatchesBuild) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomInstance inst = MakeDagInstance(seed);
    ASSERT_GT(inst.graph.NumEdges(), 0u);
    BigIndexOptions opts;
    opts.max_layers = 4;
    auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(index.ok());
    const auto edges = inst.graph.Edges();
    const auto [u, v] = edges[seed % edges.size()];
    const std::vector<GraphUpdate> batch = {Add(v, u)};

    MaintainReport report;
    auto maintained = MaintainIndex(*index, batch, kAnyCone, &report);
    ASSERT_TRUE(maintained.ok()) << "seed " << seed;
    ASSERT_FALSE(report.layers.empty());
    EXPECT_EQ(report.layers[0].mode, LayerMaintenance::kIncremental)
        << "seed " << seed;
    EXPECT_TRUE(report.layers[0].rerun) << "seed " << seed;
    auto updated = ApplyUpdates(inst.graph, batch);
    ASSERT_TRUE(updated.ok());
    auto rebuilt = BigIndex::Build(*updated, &inst.ontology, opts);
    ASSERT_TRUE(rebuilt.ok());
    const size_t slots = inst.ontology.LabelSlots();
    EXPECT_EQ(Serialize(*maintained, slots), Serialize(*rebuilt, slots))
        << "seed " << seed;
  }
}

// The reverse: the graph has one cycle, and the batch removes one of its
// edges. The cone is acyclic again, so layer 1 takes the cone re-sign, and
// vertices that left the cyclic remainder land in well-founded blocks.
TEST(MaintainIndexTest, BatchBreakingTheLastCycleMatchesBuild) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomInstance inst = MakeDagInstance(seed);
    ASSERT_GT(inst.graph.NumEdges(), 0u);
    const auto edges = inst.graph.Edges();
    const auto [u, v] = edges[seed % edges.size()];
    auto cyclic = ApplyUpdates(inst.graph, std::vector<GraphUpdate>{Add(v, u)});
    ASSERT_TRUE(cyclic.ok());
    ASSERT_LT(CountWellFounded(*cyclic), cyclic->NumVertices());

    BigIndexOptions opts;
    opts.max_layers = 4;
    auto index = BigIndex::Build(*cyclic, &inst.ontology, opts);
    ASSERT_TRUE(index.ok());
    const std::vector<GraphUpdate> batch = {Remove(v, u)};
    MaintainReport report;
    auto maintained = MaintainIndex(*index, batch, kAnyCone, &report);
    ASSERT_TRUE(maintained.ok()) << "seed " << seed;
    ASSERT_FALSE(report.layers.empty());
    EXPECT_NE(report.layers[0].mode, LayerMaintenance::kWholesale)
        << "seed " << seed;
    EXPECT_FALSE(report.layers[0].rerun) << "seed " << seed;
    EXPECT_EQ(CountWellFounded(maintained->base()),
              maintained->base().NumVertices());
    auto rebuilt = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(rebuilt.ok());
    const size_t slots = inst.ontology.LabelSlots();
    EXPECT_EQ(Serialize(*maintained, slots), Serialize(*rebuilt, slots))
        << "seed " << seed;
  }
}

TEST(MaintainIndexTest, ZeroFallbackRatioMatchesIncremental) {
  RandomInstance inst = MakeInstance(7);
  BigIndexOptions opts;
  opts.max_layers = 3;
  auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
  ASSERT_TRUE(index.ok());
  auto batch = MakeRandomBatch(inst.graph, 8, 1234);

  MaintainReport report;
  auto a = MaintainIndex(*index, batch, MaintainOptions{});
  auto b = MaintainIndex(*index, batch, {.fallback_dirty_ratio = 0}, &report);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(report.delta.empty());
  ASSERT_FALSE(report.layers.empty());
  for (const MaintainLayerReport& lr : report.layers) {
    EXPECT_EQ(lr.mode, LayerMaintenance::kWholesale);
  }
  const size_t slots = inst.ontology.LabelSlots();
  EXPECT_EQ(Serialize(*a, slots), Serialize(*b, slots));
}

// The fallback decision lives in MaintainIndex: a dirty frontier past the
// ratio sends the layer to wholesale re-summarization, with the same bytes.
TEST(MaintainIndexTest, FallbackThresholdTriggersWholesale) {
  RandomInstance inst = MakeInstance(3);
  BigIndexOptions opts;
  opts.max_layers = 3;
  auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
  ASSERT_TRUE(index.ok());
  // One added edge dirties one base vertex: past a ratio worth half a
  // vertex, well within the default.
  VertexId v = 1;
  while (inst.graph.HasEdge(0, v)) ++v;
  ASSERT_LT(v, inst.graph.NumVertices());
  const std::vector<GraphUpdate> batch = {Add(0, v)};

  MaintainReport tight, loose;
  const double half_vertex = 0.5 / inst.graph.NumVertices();
  auto a = MaintainIndex(*index, batch, {.fallback_dirty_ratio = half_vertex},
                         &tight);
  auto b = MaintainIndex(*index, batch, MaintainOptions{}, &loose);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(tight.layers.empty());
  ASSERT_FALSE(loose.layers.empty());
  EXPECT_EQ(tight.layers[0].mode, LayerMaintenance::kWholesale);
  EXPECT_NE(loose.layers[0].mode, LayerMaintenance::kWholesale);
  const size_t slots = inst.ontology.LabelSlots();
  EXPECT_EQ(Serialize(*a, slots), Serialize(*b, slots));
}

// A wholesale layer carries no provenance, so every layer above it is
// wholesale as well — and the bytes still equal a rebuild.
TEST(MaintainIndexTest, LayersAboveWholesaleAreWholesale) {
  size_t wholesale_below_top = 0;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    RandomInstance inst = MakeInstance(seed);
    BigIndexOptions opts;
    opts.max_layers = 4;
    auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(index.ok());
    auto batch = MakeRandomBatch(inst.graph, 1 + seed % 10, seed * 53 + 5);
    MaintainReport report;
    auto maintained =
        MaintainIndex(*index, batch, {.fallback_dirty_ratio = 0.05}, &report);
    ASSERT_TRUE(maintained.ok()) << "seed " << seed;

    bool seen_wholesale = false;
    for (size_t i = 0; i < report.layers.size(); ++i) {
      const LayerMaintenance mode = report.layers[i].mode;
      if (seen_wholesale) {
        EXPECT_EQ(mode, LayerMaintenance::kWholesale)
            << "seed " << seed << " layer " << i + 1;
      } else if (mode == LayerMaintenance::kWholesale) {
        seen_wholesale = true;
        if (i + 1 < report.layers.size()) ++wholesale_below_top;
      }
    }

    auto updated = ApplyUpdates(inst.graph, batch);
    ASSERT_TRUE(updated.ok());
    auto rebuilt = BigIndex::Build(*updated, &inst.ontology, opts);
    ASSERT_TRUE(rebuilt.ok());
    const size_t slots = inst.ontology.LabelSlots();
    EXPECT_EQ(Serialize(*maintained, slots), Serialize(*rebuilt, slots))
        << "seed " << seed;
  }
  // The sweep must actually put a wholesale layer under another layer.
  EXPECT_GT(wholesale_below_top, 0u);
}

// The image records the layer cap: an index built with max_layers 2 and
// reloaded from its image maintains toward 2 layers, not the default 7.
TEST(MaintainIndexTest, LoadedImageKeepsLayerCap) {
  RandomInstance inst = MakeInstance(5);
  const size_t slots = inst.ontology.LabelSlots();
  auto uncapped = BigIndex::Build(inst.graph, &inst.ontology, {});
  ASSERT_TRUE(uncapped.ok());
  ASSERT_GT(uncapped->NumLayers(), 2u);  // the cap must bind

  const BigIndexOptions opts{.max_layers = 2};
  auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
  ASSERT_TRUE(index.ok());
  auto bytes = std::make_shared<const std::string>(Serialize(*index, slots));
  LabelDictionary dict;
  auto loaded = LoadIndexImageFromBuffer(bytes, dict, &inst.ontology);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->options().max_layers, 2u);

  VertexId v = 1;
  while (inst.graph.HasEdge(0, v)) ++v;
  ASSERT_LT(v, inst.graph.NumVertices());
  const std::vector<GraphUpdate> batch = {Add(0, v)};
  auto maintained = MaintainIndex(*loaded, batch);
  ASSERT_TRUE(maintained.ok());
  auto updated = ApplyUpdates(inst.graph, batch);
  ASSERT_TRUE(updated.ok());
  auto rebuilt = BigIndex::Build(*updated, &inst.ontology, opts);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(maintained->NumLayers(), rebuilt->NumLayers());
  EXPECT_EQ(Serialize(*maintained, slots), Serialize(*rebuilt, slots));
}

TEST(MaintainIndexTest, NoNetChangeReturnsUnchangedIndex) {
  RandomInstance inst = MakeInstance(11);
  auto index = BigIndex::Build(inst.graph, &inst.ontology, {});
  ASSERT_TRUE(index.ok());

  // A batch that cancels itself out entirely.
  std::vector<GraphUpdate> batch = {Add(0, 1), Remove(0, 1)};
  if (inst.graph.HasEdge(0, 1)) batch = {Remove(0, 1), Add(0, 1)};
  MaintainReport report;
  auto maintained = MaintainIndex(*index, batch, MaintainOptions{}, &report);
  ASSERT_TRUE(maintained.ok());
  EXPECT_TRUE(report.delta.empty());
  EXPECT_EQ(report.LayersRebuilt(), 0u);
  const size_t slots = inst.ontology.LabelSlots();
  EXPECT_EQ(Serialize(*maintained, slots), Serialize(*index, slots));
}

TEST(MaintainIndexTest, EdgeSemanticsMatchWholesalePath) {
  // Satellite regression: duplicate updates, add-then-remove, and self-loops
  // must land identically via incremental maintenance and the free
  // ApplyUpdates reference (both normalize through NormalizeUpdates).
  RandomInstance inst = MakeInstance(13);
  BigIndexOptions opts;
  opts.max_layers = 3;
  auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
  ASSERT_TRUE(index.ok());
  std::vector<GraphUpdate> batch = {
      Add(1, 1), Add(1, 1),            // duplicate self-loop add
      Add(2, 3), Remove(2, 3),         // add-then-remove
      Remove(0, 0), Add(0, 0),         // remove-then-add of a self-loop
      Add(4, 5),
  };
  auto maintained = MaintainIndex(*index, batch);
  ASSERT_TRUE(maintained.ok());

  auto reference = ApplyUpdates(inst.graph, batch);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(GraphsIdentical(maintained->base(), *reference));
  EXPECT_TRUE(maintained->base().HasEdge(1, 1));
  EXPECT_FALSE(maintained->base().HasEdge(2, 3));
  EXPECT_TRUE(maintained->base().HasEdge(0, 0));
  EXPECT_TRUE(maintained->base().HasEdge(4, 5));
}

TEST(MaintainIndexTest, GreedyConfigFallsBackToFullRebuild) {
  RandomInstance inst = MakeInstance(17);
  BigIndexOptions opts;
  opts.max_layers = 2;
  opts.use_greedy_config = true;
  auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
  ASSERT_TRUE(index.ok());
  auto batch = MakeRandomBatch(inst.graph, 5, 99);
  MaintainReport report;
  auto maintained = MaintainIndex(*index, batch, MaintainOptions{}, &report);
  ASSERT_TRUE(maintained.ok());
  if (!report.delta.empty()) {
    EXPECT_TRUE(report.full_rebuild);
    auto updated_base = ApplyUpdates(inst.graph, batch);
    ASSERT_TRUE(updated_base.ok());
    auto rebuilt = BigIndex::Build(*updated_base, &inst.ontology, opts);
    ASSERT_TRUE(rebuilt.ok());
    const size_t slots = inst.ontology.LabelSlots();
    EXPECT_EQ(Serialize(*maintained, slots), Serialize(*rebuilt, slots));
  }
}

}  // namespace
}  // namespace bigindex

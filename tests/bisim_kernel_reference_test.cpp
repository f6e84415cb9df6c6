// Differential suite for the rank-ordered summarization kernel.
//
// ComputeBisimulation signs each well-founded vertex once, successors first,
// and refines only the cyclic remainder in rounds. The oracle here is the
// plain textbook method, written in this file: start from the label
// partition and re-partition *every* vertex by (block, successor blocks)
// until a round keeps the block count, then number blocks in first-occurrence
// order and hand every edge to a GraphBuilder. Both must agree array for
// array — summary CSR, labels, label index and the three mapping arrays —
// over seeded DAGs, self-loops, single large strongly connected components,
// mixed well-founded and cyclic parts, multi-edges and GeneralizedLabels
// views.
//
// tools/ci.sh runs this suite under ASan+UBSan: it covers the index
// arithmetic of the successors-first order and the remainder rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bisim/bisimulation.h"
#include "ontology/config.h"
#include "testing/random_graph.h"
#include "util/random.h"

namespace bigindex {
namespace {

using bigindex::testing::MakeRandomDag;
using bigindex::testing::MakeRandomGraph;
using bigindex::testing::MakeRandomOntologyDag;
using bigindex::testing::RandomGraphOptions;

template <typename T>
std::vector<T> Vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

// All-vertex round refinement to the fixpoint, then the all-edges quotient.
BisimResult RoundRefinement(const Graph& g, std::span<const LabelId> labels) {
  const size_t n = g.NumVertices();
  std::vector<uint32_t> block(n);
  std::map<std::vector<uint32_t>, uint32_t> ids;
  for (VertexId v = 0; v < n; ++v) {
    const std::vector<uint32_t> sig = {labels[v]};
    block[v] = ids.try_emplace(sig, ids.size()).first->second;
  }
  size_t count = ids.size();
  while (true) {
    ids.clear();
    std::vector<uint32_t> next(n);
    for (VertexId v = 0; v < n; ++v) {
      std::vector<uint32_t> succ;
      for (VertexId w : g.OutNeighbors(v)) succ.push_back(block[w]);
      std::sort(succ.begin(), succ.end());
      succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
      std::vector<uint32_t> sig = {block[v]};
      sig.insert(sig.end(), succ.begin(), succ.end());
      next[v] = ids.try_emplace(sig, ids.size()).first->second;
    }
    block = std::move(next);
    if (ids.size() == count) break;
    count = ids.size();
  }
  // Ids were handed out in first-occurrence order over the vertex scan.
  std::vector<LabelId> block_label(count);
  for (VertexId v = 0; v < n; ++v) block_label[block[v]] = labels[v];
  GraphBuilder b;
  for (LabelId l : block_label) b.AddVertex(l);
  for (const auto& [u, v] : g.Edges()) b.AddEdge(block[u], block[v]);
  BisimResult r;
  r.summary = std::move(b.Build()).value();
  r.mapping = BisimMapping(block, count);
  return r;
}

void ExpectSameResult(const BisimResult& want, const BisimResult& got,
                      const std::string& context) {
  const Graph& a = want.summary;
  const Graph& b = got.summary;
  EXPECT_EQ(Vec(a.labels()), Vec(b.labels())) << context;
  EXPECT_EQ(Vec(a.OutOffsets()), Vec(b.OutOffsets())) << context;
  EXPECT_EQ(Vec(a.OutTargets()), Vec(b.OutTargets())) << context;
  EXPECT_EQ(Vec(a.InOffsets()), Vec(b.InOffsets())) << context;
  EXPECT_EQ(Vec(a.InSources()), Vec(b.InSources())) << context;
  EXPECT_EQ(Vec(a.LabelOffsets()), Vec(b.LabelOffsets())) << context;
  EXPECT_EQ(Vec(a.LabelVertices()), Vec(b.LabelVertices())) << context;
  EXPECT_EQ(Vec(want.mapping.VertexToSuper()), Vec(got.mapping.VertexToSuper()))
      << context;
  EXPECT_EQ(Vec(want.mapping.MemberOffsets()), Vec(got.mapping.MemberOffsets()))
      << context;
  EXPECT_EQ(Vec(want.mapping.MembersArray()), Vec(got.mapping.MembersArray()))
      << context;
}

void ExpectMatchesOracle(const Graph& g, const std::string& context) {
  ExpectSameResult(RoundRefinement(g, g.labels()),
                   ComputeBisimulation(g, g.labels()), context);
}

// The well-founded vertices the slow way: v is cyclic iff some vertex it
// reaches (v included) lies on a cycle, i.e. is reachable from one of its
// own successors.
size_t WellFoundedByReachability(const Graph& g) {
  const size_t n = g.NumVertices();
  auto reach = [&](VertexId from) {
    std::vector<char> seen(n, 0);
    std::vector<VertexId> stack = {from};
    seen[from] = 1;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId w : g.OutNeighbors(v)) {
        if (!seen[w]) {
          seen[w] = 1;
          stack.push_back(w);
        }
      }
    }
    return seen;
  };
  std::vector<char> on_cycle(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : g.OutNeighbors(v)) {
      if (reach(w)[v]) on_cycle[v] = 1;
    }
  }
  size_t well_founded = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::vector<char> seen = reach(v);
    bool cyclic = false;
    for (VertexId w = 0; w < n; ++w) cyclic |= seen[w] && on_cycle[w];
    well_founded += !cyclic;
  }
  return well_founded;
}

// One ring through every vertex plus random chords: a single strongly
// connected component.
Graph SingleScc(size_t n, size_t num_labels, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) {
    b.AddVertex(static_cast<LabelId>(rng.Uniform(num_labels)));
  }
  for (VertexId v = 0; v < n; ++v) {
    b.AddEdge(v, static_cast<VertexId>((v + 1) % n));
  }
  for (size_t i = 0; i < n; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.Uniform(n)),
              static_cast<VertexId>(rng.Uniform(n)));
  }
  return std::move(b.Build()).value();
}

// A cyclic core [0, k) (ring plus random edges) and an acyclic part [k, n)
// whose edges point to higher ids; edges between the parts go both ways, so
// some acyclic-part vertices reach the core and some do not. Every edge is
// added twice (the builder collapses multi-edges).
Graph Mixed(size_t n, size_t num_labels, uint64_t seed) {
  Rng rng(seed);
  const size_t k = 1 + n / 4;
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) {
    b.AddVertex(static_cast<LabelId>(rng.Uniform(num_labels)));
  }
  auto add = [&b](VertexId u, VertexId v) {
    b.AddEdge(u, v);
    b.AddEdge(u, v);
  };
  for (VertexId v = 0; v < k; ++v) add(v, static_cast<VertexId>((v + 1) % k));
  for (size_t i = 0; i < 2 * n; ++i) {
    const auto u = static_cast<VertexId>(rng.Uniform(n));
    const auto v = static_cast<VertexId>(rng.Uniform(n));
    const bool into_core = v < k && rng.Bernoulli(0.1);
    if (u < k || into_core || u < v) add(u, v);
  }
  return std::move(b.Build()).value();
}

TEST(BisimKernelReferenceTest, MatchesRoundRefinementOnRandomGraphs) {
  // 100 random graphs with cycles and a trickle of self-loops; sizes, edge
  // densities, label alphabets and skews all cycle with the seed.
  for (uint64_t seed = 0; seed < 100; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 20 + (seed * 37) % 400;
    opt.edge_density = 0.5 + static_cast<double>(seed % 7);
    opt.num_labels = 1 + seed % 12;
    opt.label_skew = (seed % 3) * 0.6;
    Graph g = MakeRandomGraph(opt);
    ExpectMatchesOracle(g, "random seed " + std::to_string(seed));
    EXPECT_TRUE(IsStableBisimulation(g, ComputeBisimulation(g, g.labels())
                                            .mapping))
        << "seed " << seed;
  }
}

TEST(BisimKernelReferenceTest, MatchesRoundRefinementOnDags) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 1 + (seed * 53) % 350;
    opt.edge_density = static_cast<double>(seed % 6);
    opt.num_labels = 1 + seed % 5;
    Graph g = MakeRandomDag(opt);
    EXPECT_EQ(CountWellFounded(g), g.NumVertices()) << "seed " << seed;
    ExpectMatchesOracle(g, "dag seed " + std::to_string(seed));
  }
}

TEST(BisimKernelReferenceTest, MatchesRoundRefinementOnSelfLoops) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 10 + (seed * 29) % 200;
    opt.edge_density = 0.3 + 0.2 * static_cast<double>(seed % 5);
    opt.num_labels = 1 + seed % 4;
    opt.self_loop_fraction = 0.3;
    ExpectMatchesOracle(MakeRandomGraph(opt),
                        "self-loop seed " + std::to_string(seed));
  }
}

TEST(BisimKernelReferenceTest, MatchesRoundRefinementOnOneLargeScc) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Graph g = SingleScc(2 + (seed * 47) % 300, 1 + seed % 4, seed);
    EXPECT_EQ(CountWellFounded(g), 0u) << "seed " << seed;
    ExpectMatchesOracle(g, "scc seed " + std::to_string(seed));
  }
}

TEST(BisimKernelReferenceTest, MatchesRoundRefinementOnMixedGraphs) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Graph g = Mixed(8 + (seed * 31) % 250, 1 + seed % 6, seed);
    const size_t well_founded = CountWellFounded(g);
    EXPECT_EQ(well_founded, WellFoundedByReachability(g)) << "seed " << seed;
    EXPECT_LT(well_founded, g.NumVertices()) << "seed " << seed;
    ExpectMatchesOracle(g, "mixed seed " + std::to_string(seed));
  }
}

TEST(BisimKernelReferenceTest, WellFoundedCountMatchesReachability) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 1 + (seed * 19) % 120;
    opt.edge_density = 0.2 * static_cast<double>(seed % 8);
    opt.self_loop_fraction = seed % 3 == 0 ? 0.2 : 0.0;
    Graph g = MakeRandomGraph(opt);
    EXPECT_EQ(CountWellFounded(g), WellFoundedByReachability(g))
        << "seed " << seed;
  }
}

TEST(BisimKernelReferenceTest, MatchesRoundRefinementOnLabelViews) {
  // Summarizing under a GeneralizedLabels view: random one-step configs over
  // cyclic graphs and DAGs.
  for (uint64_t seed = 0; seed < 30; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 5 + (seed * 43) % 300;
    opt.edge_density = 0.5 + static_cast<double>(seed % 4);
    opt.num_labels = 2 + seed % 9;
    Graph g = seed % 2 == 0 ? MakeRandomDag(opt) : MakeRandomGraph(opt);
    Ontology ontology = MakeRandomOntologyDag(
        {.num_leaves = opt.num_labels, .height = 3, .seed = seed + 500});
    Rng rng(seed);
    GeneralizationConfig config;
    for (LabelId l : g.DistinctLabels()) {
      auto supers = ontology.Supertypes(l);
      if (supers.empty() || !rng.Bernoulli(0.6)) continue;
      ASSERT_TRUE(
          config.AddMapping(l, supers[rng.Uniform(supers.size())]).ok());
    }
    std::vector<LabelId> storage;
    const std::span<const LabelId> view =
        GeneralizedLabels(g, config, &storage);
    ExpectSameResult(RoundRefinement(g, view), ComputeBisimulation(g, view),
                     "view seed " + std::to_string(seed));
  }
}

TEST(BisimKernelReferenceTest, MatchesRoundRefinementOnALargeGraph) {
  RandomGraphOptions opt;
  opt.seed = 17;
  opt.num_vertices = 6000;
  opt.edge_density = 1.2;
  opt.num_labels = 10;
  opt.label_skew = 0.8;
  ExpectMatchesOracle(MakeRandomGraph(opt), "6000 vertices");
}

TEST(BisimKernelReferenceTest, EdgeCases) {
  struct Case {
    const char* name;
    RandomGraphOptions opt;
  };
  std::vector<Case> cases;
  {
    Case empty{"empty", {}};
    empty.opt.num_vertices = 0;
    cases.push_back(empty);
    Case single{"single-node", {}};
    single.opt.num_vertices = 1;
    single.opt.edge_density = 0.0;
    cases.push_back(single);
    Case single_loop{"single-node-self-loop", {}};
    single_loop.opt.num_vertices = 1;
    single_loop.opt.edge_density = 2.0;
    single_loop.opt.self_loop_fraction = 1.0;
    cases.push_back(single_loop);
    Case same_label{"all-same-label", {}};
    same_label.opt.num_vertices = 150;
    same_label.opt.num_labels = 1;
    same_label.opt.edge_density = 2.5;
    same_label.opt.seed = 5;
    cases.push_back(same_label);
    Case no_edges{"no-edges", {}};
    no_edges.opt.num_vertices = 64;
    no_edges.opt.edge_density = 0.0;
    no_edges.opt.num_labels = 4;
    no_edges.opt.seed = 6;
    cases.push_back(no_edges);
  }
  for (const Case& c : cases) ExpectMatchesOracle(MakeRandomGraph(c.opt), c.name);
}

}  // namespace
}  // namespace bigindex

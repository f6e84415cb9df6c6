// Tests for the rooted semantics' shared keyword-cone kernel, through the
// bidirectional-expansion plug-in ([14], the future-work plug-in) and its
// siblings bkws and Blinks: answer equality among the three, strategy
// statistics, BiG-index integration (Thm 4.2 holds for it too), and a
// differential suite against a reference implementation.
//
// The reference (BidirectionalReference* below) is the per-vertex
// priority-queue expansion: every (vertex, cone) activation entry is pushed
// onto one max-heap, popped best-first with a forward boost for vertices
// other cones already reached, and relaxed Dijkstra-style, re-pushing every
// vertex whose distance or (witness, parent) pair improves. The library
// expands each cone a whole BFS level at a time, in three different cone
// orders (bidirectional: highest activation; Blinks: smallest frontier;
// bkws: one cone after another), and each must agree with it answer for
// answer: root, score, vertices and keyword_vertices.
//
// tools/ci.sh runs this suite under ASan+UBSan: it covers the index
// arithmetic of the kernel's level cursors.

#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <utility>

#include "core/big_index.h"
#include "core/evaluator.h"
#include "search/bidirectional.h"
#include "search/bkws.h"
#include "search/blinks.h"
#include "testing/random_graph.h"
#include "util/random.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace bigindex {
namespace {

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

// ---------- reference: per-vertex priority-queue expansion ----------

struct Frontier {
  double activation;
  uint32_t dist;
  VertexId vertex;
  uint32_t cone;  // keyword index

  bool operator<(const Frontier& other) const {
    // max-heap on activation; deterministic tie-breaks.
    if (activation != other.activation) return activation < other.activation;
    if (dist != other.dist) return dist > other.dist;
    if (vertex != other.vertex) return vertex > other.vertex;
    return cone > other.cone;
  }
};

std::vector<Answer> ReferenceBidirectionalSearch(
    const Graph& g, const std::vector<LabelId>& keywords,
    const BidirectionalOptions& options, QueryContext& ctx,
    double decay = kActivationDecay) {
  std::vector<Answer> answers;
  const size_t nq = keywords.size();
  if (nq == 0 || nq > 32 || g.NumVertices() == 0) return answers;

  std::vector<ConeScratch*> cones(nq);
  for (size_t i = 0; i < nq; ++i) cones[i] = &ctx.Cone(i, g.NumVertices());
  struct ConeLease {
    std::vector<ConeScratch*>& cones;
    ~ConeLease() {
      for (ConeScratch* s : cones) s->Release();
    }
  } lease{cones};

  std::priority_queue<Frontier> backward;
  for (size_t i = 0; i < nq; ++i) {
    auto origins = g.VerticesWithLabel(keywords[i]);
    if (origins.empty()) return answers;
    double base = 1.0 / static_cast<double>(origins.size());
    ConeScratch& s = *cones[i];
    for (VertexId v : origins) {
      s.queue.push_back(v);
      s.dist[v] = 0;
      s.witness[v] = v;
      s.parent[v] = v;
      backward.push({base, 0, v, static_cast<uint32_t>(i)});
    }
  }

  std::vector<uint32_t>& covered = ctx.ZeroedVertexArray(0, g.NumVertices());
  const uint32_t full_mask = nq == 32 ? 0xFFFFFFFFu : ((1u << nq) - 1);
  const CsrView in = g.In();
  while (!backward.empty()) {
    Frontier f = backward.top();
    backward.pop();
    ConeScratch& s = *cones[f.cone];
    if (s.dist[f.vertex] != f.dist) continue;  // stale entry
    covered[f.vertex] |= (1u << f.cone);
    if (f.dist >= options.d_max) continue;
    double boost = covered[f.vertex] == (1u << f.cone) ? 1.0 : 2.0;
    const auto [begin, end] = in[f.vertex];
    for (uint64_t idx = begin; idx < end; ++idx) {
      VertexId u = in.Slot(idx);
      if (f.dist + 1 > s.dist[u]) continue;
      if (f.dist + 1 == s.dist[u]) {
        // Least (witness, parent) over the shortest-path DAG; improvements
        // re-enter the queue to propagate downstream.
        if (std::pair(s.witness[f.vertex], f.vertex) <
            std::pair(s.witness[u], s.parent[u])) {
          s.witness[u] = s.witness[f.vertex];
          s.parent[u] = f.vertex;
          backward.push({f.activation * decay * boost, f.dist + 1, u,
                         f.cone});
        }
        continue;
      }
      if (s.dist[u] == kInfDistance) s.queue.push_back(u);  // first touch
      s.dist[u] = f.dist + 1;
      s.witness[u] = s.witness[f.vertex];
      s.parent[u] = f.vertex;
      backward.push({f.activation * decay * boost, f.dist + 1, u,
                     f.cone});
    }
  }

  for (VertexId r : cones[0]->queue) {
    if (covered[r] != full_mask) continue;
    Answer a;
    a.root = r;
    a.vertices.push_back(r);
    for (size_t i = 0; i < nq; ++i) {
      const ConeScratch& s = *cones[i];
      a.score += s.dist[r];
      a.keyword_vertices.push_back(s.witness[r]);
      for (VertexId v = r; v != s.witness[v];) {
        v = s.parent[v];
        a.vertices.push_back(v);
      }
    }
    CanonicalizeAnswer(a);
    answers.push_back(std::move(a));
  }

  SortAnswers(answers);
  if (options.top_k != 0 && answers.size() > options.top_k) {
    answers.resize(options.top_k);
  }
  return answers;
}

/// The reference as a plug-in `f`, for runs through EvaluateWithIndex.
class ReferenceBidirectionalAlgorithm final : public KeywordSearchAlgorithm {
 public:
  explicit ReferenceBidirectionalAlgorithm(BidirectionalOptions options)
      : options_(options) {}

  using KeywordSearchAlgorithm::Evaluate;
  using KeywordSearchAlgorithm::VerifyCandidate;

  std::string_view Name() const override { return "bidirectional"; }

  std::vector<Answer> Evaluate(const Graph& g,
                               const std::vector<LabelId>& keywords,
                               QueryContext& ctx) const override {
    return ReferenceBidirectionalSearch(g, keywords, options_, ctx);
  }

  bool IsRooted() const override { return true; }

  uint32_t LocalityRadius() const override { return options_.d_max; }

  std::optional<Answer> VerifyCandidate(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const Answer& candidate,
                                        QueryContext& ctx) const override {
    return CompleteRootedAnswer(g, keywords, candidate.root, options_.d_max,
                                ctx);
  }

 private:
  BidirectionalOptions options_;
};

/// Answer-for-answer equality on everything an answer carries.
void ExpectSameAnswers(const std::vector<Answer>& got,
                       const std::vector<Answer>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].root, want[i].root) << where << " answer " << i;
    EXPECT_EQ(got[i].score, want[i].score) << where << " answer " << i;
    EXPECT_EQ(got[i].vertices, want[i].vertices) << where << " answer " << i;
    EXPECT_EQ(got[i].keyword_vertices, want[i].keyword_vertices)
        << where << " answer " << i;
  }
}

/// Runs bidirectional, bkws and Blinks with the same bounds and expects
/// each to return exactly `want`.
void ExpectRootedSearchesMatch(const Graph& g, const std::vector<LabelId>& q,
                               uint32_t d_max, size_t top_k, QueryContext& ctx,
                               const std::vector<Answer>& want,
                               const std::string& where) {
  ExpectSameAnswers(
      BidirectionalSearch(g, q, {.d_max = d_max, .top_k = top_k}, ctx), want,
      where + " bidirectional");
  ExpectSameAnswers(
      BackwardKeywordSearch(g, q, {.d_max = d_max, .top_k = top_k}, ctx),
      want, where + " bkws");
  ExpectSameAnswers(BlinksSearch(g, q, {.d_max = d_max, .top_k = top_k}, ctx),
                    want, where + " blinks");
}

using RootScore = std::pair<VertexId, uint32_t>;

std::set<RootScore> RootScores(const std::vector<Answer>& answers) {
  std::set<RootScore> out;
  for (const Answer& a : answers) out.emplace(a.root, a.score);
  return out;
}

struct Case {
  uint64_t seed;
  size_t n, m, labels;
  std::vector<LabelId> query;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << "seed" << c.seed << "/n" << c.n << "/m" << c.m << "/l" << c.labels
      << "/q";
  for (size_t i = 0; i < c.query.size(); ++i) {
    *os << (i == 0 ? "" : "-") << c.query[i];
  }
}

class BidirectionalEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(BidirectionalEquivalence, MatchesBackwardSearch) {
  const Case& c = GetParam();
  Graph g = RandomGraph(c.seed, c.n, c.m, c.labels);
  auto bidi = BidirectionalSearch(g, c.query, {.d_max = 4, .top_k = 0});
  auto bkws = BackwardKeywordSearch(g, c.query, {.d_max = 4});
  EXPECT_FALSE(bkws.empty()) << "seed " << c.seed;
  ExpectSameAnswers(bidi, bkws, "seed " + std::to_string(c.seed));
}

// The reference's priority-queue order depends on the activation decay;
// whatever the decay, it reaches the library's answers.
TEST_P(BidirectionalEquivalence, DecayDoesNotChangeResults) {
  const Case& c = GetParam();
  Graph g = RandomGraph(c.seed ^ 0x5555, c.n, c.m, c.labels);
  QueryContext ctx;
  auto want = BidirectionalSearch(g, c.query, {.d_max = 4, .top_k = 0}, ctx);
  for (double decay : {0.2, 0.5, 0.9}) {
    ExpectSameAnswers(ReferenceBidirectionalSearch(
                          g, c.query, {.d_max = 4, .top_k = 0}, ctx, decay),
                      want, "decay " + std::to_string(decay));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, BidirectionalEquivalence,
    ::testing::Values(Case{1, 80, 240, 4, {0, 1}},
                      Case{2, 120, 360, 5, {0, 2, 3}},
                      Case{3, 60, 300, 3, {1, 2}},
                      Case{4, 150, 450, 6, {0, 4, 5}},
                      Case{5, 40, 80, 2, {0, 1}}));

TEST(BidirectionalTest, TopKPrefix) {
  Graph g = RandomGraph(9, 100, 300, 4);
  auto full = BidirectionalSearch(g, {0, 1}, {.d_max = 4, .top_k = 0});
  auto top3 = BidirectionalSearch(g, {0, 1}, {.d_max = 4, .top_k = 3});
  ASSERT_LE(top3.size(), 3u);
  for (size_t i = 0; i < top3.size(); ++i) {
    EXPECT_EQ(top3[i].root, full[i].root);
    EXPECT_EQ(top3[i].score, full[i].score);
  }
}

TEST(BidirectionalTest, StatsTrackBothPhases) {
  Graph g = RandomGraph(10, 200, 800, 3);
  BidirectionalStats stats;
  auto r = BidirectionalSearch(g, {0, 1, 2}, {.d_max = 4}, &stats);
  EXPECT_FALSE(r.empty());
  EXPECT_GT(stats.backward_pops, 0u);
  EXPECT_GT(stats.forward_pops, 0u);  // dense labels: overlap guaranteed
}

TEST(BidirectionalTest, MissingKeywordMeansNoAnswers) {
  Graph g = RandomGraph(11, 30, 60, 2);
  EXPECT_TRUE(BidirectionalSearch(g, {0, 9}, {}).empty());
}

TEST(BidirectionalTest, WorksThroughBigIndex) {
  OntologyBuilder ob;
  ob.AddSupertypeEdge(0, 6);
  ob.AddSupertypeEdge(1, 6);
  ob.AddSupertypeEdge(2, 6);
  ob.AddSupertypeEdge(3, 7);
  ob.AddSupertypeEdge(4, 7);
  ob.AddSupertypeEdge(5, 8);
  Ontology ont = std::move(ob.Build()).value();
  Graph g = RandomGraph(12, 150, 450, 6);
  auto index = BigIndex::Build(g, &ont, {.max_layers = 1});
  ASSERT_TRUE(index.ok());

  BidirectionalAlgorithm algo({.d_max = 4, .top_k = 0});
  auto direct = algo.Evaluate(index->base(), {0, 3});
  for (size_t m = 0; m <= index->NumLayers(); ++m) {
    auto hier = EvaluateWithIndex(*index, algo, {0, 3},
                                  {.forced_layer = static_cast<int>(m)});
    EXPECT_EQ(RootScores(hier), RootScores(direct)) << "layer " << m;
  }
}

struct ReferenceCase {
  const char* name;
  testing::RandomGraphOptions graph;
  bool dag = false;
  std::vector<LabelId> query;
};

void PrintTo(const ReferenceCase& c, std::ostream* os) { *os << c.name; }

class BidirectionalReference : public ::testing::TestWithParam<ReferenceCase> {
};

TEST_P(BidirectionalReference, MatchesPriorityQueueExpansion) {
  const ReferenceCase& c = GetParam();
  size_t nonempty = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    testing::RandomGraphOptions go = c.graph;
    go.seed = seed * 7919 + go.seed;
    Graph g = c.dag ? testing::MakeRandomDag(go) : testing::MakeRandomGraph(go);
    QueryContext ctx;
    for (size_t top_k : {size_t{0}, size_t{3}}) {
      for (uint32_t d_max : {2u, 4u}) {
        auto want = ReferenceBidirectionalSearch(
            g, c.query, {.d_max = d_max, .top_k = top_k}, ctx);
        if (!want.empty()) ++nonempty;
        ExpectRootedSearchesMatch(g, c.query, d_max, top_k, ctx, want,
                                  std::string(c.name) + " seed " +
                                      std::to_string(seed) + " top_k " +
                                      std::to_string(top_k) + " d_max " +
                                      std::to_string(d_max));
      }
    }
  }
  EXPECT_GT(nonempty, 0u) << "the case never produced an answer";
}

testing::RandomGraphOptions Shape(size_t n, double density, size_t labels,
                                  double skew = 0.0) {
  return {.num_vertices = n,
          .edge_density = density,
          .num_labels = labels,
          .label_skew = skew};
}

INSTANTIATE_TEST_SUITE_P(
    Random, BidirectionalReference,
    ::testing::Values(
        ReferenceCase{"cyclic_sparse", Shape(120, 2.0, 6), false, {0, 1}},
        ReferenceCase{"cyclic_three_keywords", Shape(150, 3.0, 6), false,
                      {0, 2, 3}},
        ReferenceCase{"dense_labels", Shape(80, 6.0, 2), false, {0, 1}},
        ReferenceCase{"dense_labels_repeated_keyword", Shape(60, 5.0, 3),
                      false, {1, 1, 2}},
        ReferenceCase{"skewed_labels", Shape(200, 2.5, 12, 1.0), false,
                      {0, 3, 7}},
        ReferenceCase{"dag", Shape(150, 3.0, 5), true, {0, 1}},
        ReferenceCase{"dag_four_keywords", Shape(200, 4.0, 6), true,
                      {0, 1, 2, 3}}),
    [](const ::testing::TestParamInfo<ReferenceCase>& info) {
      return std::string(info.param.name);
    });

// EvaluateWithIndex runs `f` on the summary layer it picks (and verifies on
// G⁰ in exact mode, realizes answers by Algorithms 3/4 in fast mode): the
// library and the reference must produce the same answers at every layer.
TEST(BidirectionalReferenceTest, EvaluateWithIndexAtEveryLayer) {
  OntologyBuilder ob;
  for (LabelId l = 0; l < 6; ++l) ob.AddSupertypeEdge(l, 6 + l / 2);
  for (LabelId l = 6; l < 9; ++l) ob.AddSupertypeEdge(l, 9);
  Ontology ont = std::move(ob.Build()).value();
  size_t nonempty = 0;
  for (uint64_t seed = 20; seed < 26; ++seed) {
    Graph g = RandomGraph(seed, 200, 600, 6);
    auto index = BigIndex::Build(g, &ont, {.max_layers = 3});
    ASSERT_TRUE(index.ok());
    for (size_t top_k : {size_t{0}, size_t{3}}) {
      BidirectionalAlgorithm algo({.d_max = 3, .top_k = top_k});
      ReferenceBidirectionalAlgorithm reference({.d_max = 3, .top_k = top_k});
      for (const std::vector<LabelId>& q :
           {std::vector<LabelId>{0, 3}, std::vector<LabelId>{1, 2, 5}}) {
        for (size_t m = 0; m <= index->NumLayers(); ++m) {
          ExpectSameAnswers(algo.Evaluate(index->LayerGraph(m), q),
                            reference.Evaluate(index->LayerGraph(m), q),
                            "direct on layer " + std::to_string(m));
          for (bool exact : {true, false}) {
            EvalOptions opt{.forced_layer = static_cast<int>(m),
                            .exact_verification = exact};
            auto want = EvaluateWithIndex(*index, reference, q, opt);
            if (!want.empty()) ++nonempty;
            ExpectSameAnswers(
                EvaluateWithIndex(*index, algo, q, opt), want,
                "seed " + std::to_string(seed) + " layer " +
                    std::to_string(m) + (exact ? " exact" : " fast"));
          }
        }
      }
    }
  }
  EXPECT_GT(nonempty, 0u);
}

// The same on a generated knowledge graph, at the cost model's layer and at
// every forced one.
TEST(BidirectionalReferenceTest, EvaluateWithIndexOnDataset) {
  auto ds = MakeDataset("yago3", 0.002);
  ASSERT_TRUE(ds.ok());
  auto index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                               {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  QueryGenOptions qopt;
  qopt.sizes = {2, 3};
  qopt.min_count = 5;
  qopt.seed = 7;
  auto workload = GenerateQueryWorkload(*ds, qopt);
  ASSERT_FALSE(workload.empty());
  if (workload.size() > 6) workload.resize(6);
  BidirectionalAlgorithm algo({.d_max = 4, .top_k = 0});
  ReferenceBidirectionalAlgorithm reference({.d_max = 4, .top_k = 0});
  size_t nonempty = 0;
  for (const QuerySpec& spec : workload) {
    const std::vector<LabelId>& q = spec.keywords;
    for (int m = -1; m <= static_cast<int>(index->NumLayers()); ++m) {
      for (bool exact : {true, false}) {
        EvalOptions opt{.forced_layer = m, .exact_verification = exact};
        auto want = EvaluateWithIndex(*index, reference, q, opt);
        if (!want.empty()) ++nonempty;
        ExpectSameAnswers(EvaluateWithIndex(*index, algo, q, opt), want,
                          "layer " + std::to_string(m) +
                              (exact ? " exact" : " fast"));
      }
    }
  }
  EXPECT_GT(nonempty, 0u);
}

TEST(BidirectionalReferenceTest, GuardsMatchReference) {
  Graph g = RandomGraph(11, 30, 60, 2);
  QueryContext ctx;
  // A keyword no vertex carries: no answers from any.
  EXPECT_TRUE(ReferenceBidirectionalSearch(g, {0, 9}, {}, ctx).empty());
  ExpectRootedSearchesMatch(g, {0, 9}, 5, 0, ctx, {}, "missing keyword");
  // More than 32 keywords is refused, not evaluated; 32 is still served.
  std::vector<LabelId> many(33, 0);
  EXPECT_TRUE(ReferenceBidirectionalSearch(g, many, {}, ctx).empty());
  ExpectRootedSearchesMatch(g, many, 5, 0, ctx, {}, "33 keywords");
  many.resize(32);
  auto want = ReferenceBidirectionalSearch(g, many, {}, ctx);
  EXPECT_FALSE(want.empty());
  ExpectRootedSearchesMatch(g, many, 5, 0, ctx, want, "32 keywords");
  // No keywords, or an empty graph: no answers.
  ExpectRootedSearchesMatch(g, {}, 5, 0, ctx, {}, "no keywords");
  ExpectRootedSearchesMatch(Graph(), {0}, 5, 0, ctx, {}, "empty graph");
}

}  // namespace
}  // namespace bigindex

// End-to-end tests of hierarchical query processing (Algorithm 2):
// the Theorem 4.2 equivalence eval_Ont(G, Q, f) = eval(G, Q, f) for rooted
// semantics, validity/consistency for r-clique, ablation equivalence
// (Algorithms 3 vs 4, specialization order on/off), and the per-phase
// breakdown.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/big_index.h"
#include "core/evaluator.h"
#include "engine/query_context.h"
#include "search/bidirectional.h"
#include "search/bkws.h"
#include "search/blinks.h"
#include "search/rclique.h"
#include "util/random.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace bigindex {
namespace {

// Ontology: leaves {0..5} -> mids {6,7,8} -> root 9 (as in core_test).
Ontology MakeOntology() {
  OntologyBuilder b;
  b.AddSupertypeEdge(0, 6);
  b.AddSupertypeEdge(1, 6);
  b.AddSupertypeEdge(2, 6);
  b.AddSupertypeEdge(3, 7);
  b.AddSupertypeEdge(4, 7);
  b.AddSupertypeEdge(5, 8);
  b.AddSupertypeEdge(6, 9);
  b.AddSupertypeEdge(7, 9);
  b.AddSupertypeEdge(8, 9);
  return std::move(b.Build()).value();
}

Graph MotifGraph(uint64_t seed, size_t n, size_t m) {
  Rng rng(seed);
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) {
    b.AddVertex(static_cast<LabelId>(rng.Uniform(6)));
  }
  size_t made = 0;
  while (made < m) {
    VertexId hub = static_cast<VertexId>(rng.Uniform(n));
    size_t batch = rng.UniformRange(3, 10);
    for (size_t i = 0; i < batch && made < m; ++i) {
      VertexId src = static_cast<VertexId>(rng.Uniform(n));
      if (src != hub) {
        b.AddEdge(src, hub);
        ++made;
      }
    }
  }
  return std::move(b.Build()).value();
}

using RootScore = std::pair<VertexId, uint32_t>;

std::set<RootScore> RootScores(const std::vector<Answer>& answers) {
  std::set<RootScore> out;
  for (const Answer& a : answers) out.emplace(a.root, a.score);
  return out;
}

struct EquivalenceCase {
  uint64_t seed;
  size_t n;
  size_t m;
  std::vector<LabelId> query;
};

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "/n" << c.n << "/m" << c.m << "/q";
  for (size_t i = 0; i < c.query.size(); ++i) {
    *os << (i == 0 ? "" : "-") << c.query[i];
  }
}

class Thm42Test : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(Thm42Test, BkwsEquivalentAtEveryLayer) {
  const auto& c = GetParam();
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(c.seed, c.n, c.m), &ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());

  BkwsAlgorithm bkws({.d_max = 3, .top_k = 0});
  auto direct = bkws.Evaluate(index->base(), c.query);
  auto direct_set = RootScores(direct);

  for (size_t m = 0; m <= index->NumLayers(); ++m) {
    if (!QueryDistinctAtLayer(*index, c.query, m)) continue;
    EvalOptions opt;
    opt.forced_layer = static_cast<int>(m);
    auto hier = EvaluateWithIndex(*index, bkws, c.query, opt);
    EXPECT_EQ(RootScores(hier), direct_set)
        << "seed=" << c.seed << " layer=" << m;
  }
}

TEST_P(Thm42Test, BlinksEquivalentAtEveryLayer) {
  const auto& c = GetParam();
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(c.seed ^ 0xBEEF, c.n, c.m), &ont,
                      {.max_layers = 2});
  ASSERT_TRUE(index.ok());

  BlinksAlgorithm blinks({.d_max = 3, .top_k = 0});
  auto direct = blinks.Evaluate(index->base(), c.query);
  auto direct_set = RootScores(direct);

  for (size_t m = 0; m <= index->NumLayers(); ++m) {
    if (!QueryDistinctAtLayer(*index, c.query, m)) continue;
    EvalOptions opt;
    opt.forced_layer = static_cast<int>(m);
    auto hier = EvaluateWithIndex(*index, blinks, c.query, opt);
    EXPECT_EQ(RootScores(hier), direct_set)
        << "seed=" << c.seed << " layer=" << m;
  }
}

TEST_P(Thm42Test, BidirectionalEquivalentAtEveryLayer) {
  const auto& c = GetParam();
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(c.seed ^ 0xB1D1, c.n, c.m), &ont,
                      {.max_layers = 2});
  ASSERT_TRUE(index.ok());

  BidirectionalAlgorithm bidi({.d_max = 3, .top_k = 0});
  auto direct = bidi.Evaluate(index->base(), c.query);
  auto direct_set = RootScores(direct);

  for (size_t m = 0; m <= index->NumLayers(); ++m) {
    if (!QueryDistinctAtLayer(*index, c.query, m)) continue;
    EvalOptions opt;
    opt.forced_layer = static_cast<int>(m);
    auto hier = EvaluateWithIndex(*index, bidi, c.query, opt);
    EXPECT_EQ(RootScores(hier), direct_set)
        << "seed=" << c.seed << " layer=" << m;
  }
}

TEST_P(Thm42Test, OptimalLayerEquivalentToo) {
  const auto& c = GetParam();
  Ontology ont = MakeOntology();
  auto index = BigIndex::Build(MotifGraph(c.seed ^ 0xF00D, c.n, c.m), &ont,
                               {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  BkwsAlgorithm bkws({.d_max = 3, .top_k = 0});
  auto direct_set = RootScores(bkws.Evaluate(index->base(), c.query));
  auto hier = EvaluateWithIndex(*index, bkws, c.query, {});  // cost model
  EXPECT_EQ(RootScores(hier), direct_set);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, Thm42Test,
    ::testing::Values(EquivalenceCase{31, 120, 360, {0, 3}},
                      EquivalenceCase{32, 150, 500, {0, 5}},
                      EquivalenceCase{33, 200, 500, {1, 4, 5}},
                      EquivalenceCase{34, 100, 400, {2, 3}},
                      EquivalenceCase{35, 180, 700, {0, 4}},
                      EquivalenceCase{36, 90, 270, {0, 3, 5}}));

TEST(EvaluatorTest, AblationModesAgree) {
  // Fig 17/18 switches change timing, never results. They act only where
  // answers are realized, so this runs in fast mode.
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(41, 150, 500), &ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  BkwsAlgorithm bkws({.d_max = 3, .top_k = 0});

  std::vector<LabelId> q{0, 3};
  std::set<RootScore> reference;
  bool first = true;
  for (bool path_based : {false, true}) {
    for (bool spec_order : {false, true}) {
      EvalOptions opt;
      opt.forced_layer = 1;
      opt.exact_verification = false;
      opt.answer_gen.use_path_based = path_based;
      opt.answer_gen.use_specialization_order = spec_order;
      auto result = EvaluateWithIndex(*index, bkws, q, opt);
      if (first) {
        reference = RootScores(result);
        first = false;
      } else {
        EXPECT_EQ(RootScores(result), reference)
            << "path=" << path_based << " order=" << spec_order;
      }
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(EvaluatorTest, RootedExactModeRealizesNothing) {
  // Exact rooted evaluation verifies the generalized roots' layer-0
  // specializations directly (Lemma 4.1), so Algorithms 3/4 never run;
  // fast mode still realizes answer graphs.
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(46, 150, 500), &ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  const std::vector<LabelId> q{0, 3};
  ASSERT_TRUE(QueryDistinctAtLayer(*index, q, 1));
  BkwsAlgorithm bkws({.d_max = 3, .top_k = 0});
  BlinksAlgorithm blinks({.d_max = 3, .top_k = 0});
  BidirectionalAlgorithm bidi({.d_max = 3, .top_k = 0});
  for (const KeywordSearchAlgorithm* f :
       std::initializer_list<const KeywordSearchAlgorithm*>{&bkws, &blinks,
                                                             &bidi}) {
    EvalBreakdown exact;
    auto answers =
        EvaluateWithIndex(*index, *f, q, {.forced_layer = 1}, &exact);
    EXPECT_EQ(exact.layer, 1u) << f->Name();
    EXPECT_GT(exact.candidate_roots, 0u) << f->Name();
    EXPECT_EQ(exact.gen_stats.realizations, 0u) << f->Name();
    EXPECT_EQ(exact.gen_stats.partial_answers_created, 0u) << f->Name();
    EXPECT_EQ(RootScores(answers), RootScores(f->Evaluate(index->base(), q)))
        << f->Name();

    EvalBreakdown fast;
    EvaluateWithIndex(*index, *f, q,
                      {.forced_layer = 1, .exact_verification = false}, &fast);
    EXPECT_GT(fast.gen_stats.realizations, 0u) << f->Name();
  }
}

TEST(EvaluatorTest, TopKReturnsValidPrefix) {
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(42, 200, 700), &ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  BkwsAlgorithm bkws({.d_max = 3, .top_k = 0});
  std::vector<LabelId> q{0, 3};

  auto full = EvaluateWithIndex(*index, bkws, q, {.forced_layer = 1});
  ASSERT_GT(full.size(), 3u);

  EvalOptions opt;
  opt.forced_layer = 1;
  opt.top_k = 3;
  auto topk = EvaluateWithIndex(*index, bkws, q, opt);
  ASSERT_EQ(topk.size(), 3u);
  // Sorted, and every returned answer is a genuine answer.
  auto full_set = RootScores(full);
  for (size_t i = 0; i < topk.size(); ++i) {
    if (i) {
      EXPECT_GE(topk[i].score, topk[i - 1].score);
    }
    EXPECT_TRUE(full_set.count({topk[i].root, topk[i].score}));
  }
}

TEST(EvaluatorTest, RCliqueAnswersAreValidAndExactlyScored) {
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(43, 150, 500), &ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  RCliqueAlgorithm rclique({.r = 3, .top_k = 10});
  std::vector<LabelId> q{0, 3};

  EvalOptions opt;
  opt.forced_layer = 1;
  opt.top_k = 10;
  auto answers = EvaluateWithIndex(*index, rclique, q, opt);
  auto direct = rclique.Evaluate(index->base(), q);

  // Every hierarchical answer is a valid r-clique (VerifyCandidate is the
  // gate), labels match the query, and scores are exact sums of pairwise
  // distances, mirrored by the direct answers being valid too.
  auto idx = NeighborIndex::Build(index->base(), 3);
  ASSERT_TRUE(idx.ok());
  for (const Answer& a : answers) {
    ASSERT_EQ(a.keyword_vertices.size(), q.size());
    uint32_t weight = 0;
    for (size_t i = 0; i < q.size(); ++i) {
      EXPECT_EQ(index->base().label(a.keyword_vertices[i]), q[i]);
      for (size_t j = i + 1; j < q.size(); ++j) {
        uint32_t d = idx->Distance(a.keyword_vertices[i],
                                   a.keyword_vertices[j]);
        ASSERT_LE(d, 3u);
        weight += d;
      }
    }
    EXPECT_EQ(a.score, weight);
  }
  // The hierarchical route must find an answer at least as good as the
  // direct greedy's best (it enumerates realizations of the generalized
  // top answers).
  if (!direct.empty() && !answers.empty()) {
    EXPECT_LE(answers[0].score, direct[0].score);
  }
}

TEST(EvaluatorTest, BreakdownIsPopulated) {
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(44, 150, 500), &ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  BkwsAlgorithm bkws({.d_max = 3, .top_k = 0});
  EvalBreakdown bd;
  auto result =
      EvaluateWithIndex(*index, bkws, {0, 3}, {.forced_layer = 1}, &bd);
  EXPECT_EQ(bd.layer, 1u);
  EXPECT_GT(bd.generalized_answers, 0u);
  EXPECT_GT(bd.candidate_roots, 0u);
  EXPECT_EQ(bd.final_answers, result.size());
  EXPECT_GE(bd.explore_ms, 0.0);
}

TEST(EvaluatorTest, ForcedLayerFallsBackOnDef41Violation) {
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(45, 150, 500), &ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  BkwsAlgorithm bkws({.d_max = 3, .top_k = 0});
  // 0 and 1 merge at layer 1 (both -> 6): forcing layer 1 must fall back
  // to layer 0 and still be correct.
  EvalBreakdown bd;
  auto hier = EvaluateWithIndex(*index, bkws, {0, 1}, {.forced_layer = 1}, &bd);
  EXPECT_EQ(bd.layer, 0u);
  auto direct_set = RootScores(bkws.Evaluate(index->base(), {0, 1}));
  EXPECT_EQ(RootScores(hier), direct_set);
}

TEST(EvaluatorTest, EmptyQueryYieldsNothing) {
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(46, 50, 150), &ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  BkwsAlgorithm bkws;
  EXPECT_TRUE(EvaluateWithIndex(*index, bkws, {}, {}).empty());
}

TEST(EvaluatorTest, MissingKeywordYieldsNothing) {
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(47, 80, 240), &ont, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  BkwsAlgorithm bkws({.d_max = 3, .top_k = 0});
  // Label 42 does not occur.
  EXPECT_TRUE(
      EvaluateWithIndex(*index, bkws, {0, 42}, {.forced_layer = 1}).empty());
}

TEST(EvaluatorTest, OntologyGeneralizedQueryFindsAnswers) {
  // The Q3 = {Person, Univ, Startup} scenario of Example 1.1: querying with
  // *generalized* keywords on the hierarchy. A direct search for mid-level
  // type 6 finds nothing (no vertex carries it), but vertices labeled with
  // its subtypes exist; BiG-index makes the generalized query meaningful at
  // layer >= 1. We emulate by querying leaf labels and evaluating at the
  // layer where they coincide with mid types.
  Ontology ont = MakeOntology();
  auto index =
      BigIndex::Build(MotifGraph(48, 150, 500), &ont, {.max_layers = 1});
  ASSERT_TRUE(index.ok());
  // Direct search for the mid-level type finds nothing at layer 0.
  BkwsAlgorithm bkws({.d_max = 3, .top_k = 0});
  EXPECT_TRUE(bkws.Evaluate(index->base(), {6, 7}).empty());
  // The same concept expressed with leaf keywords evaluated at layer 1
  // (where they become 6 and 7) does find answers.
  auto hier = EvaluateWithIndex(*index, bkws, {0, 3}, {.forced_layer = 1});
  EXPECT_FALSE(hier.empty());
}

// Larger end-to-end smoke on a generated dataset with the real workload
// machinery (ties the workload module into the evaluator).
TEST(EvaluatorTest, DatasetWorkloadEndToEnd) {
  auto ds = MakeDataset("yago3", 0.002);  // ~5k vertices
  ASSERT_TRUE(ds.ok());
  auto index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                               {.max_layers = 3});
  ASSERT_TRUE(index.ok());
  EXPECT_GE(index->NumLayers(), 1u);

  QueryGenOptions qopt;
  qopt.sizes = {2, 3};
  qopt.min_count = 10;
  auto workload = GenerateQueryWorkload(*ds, qopt);
  ASSERT_FALSE(workload.empty());

  BkwsAlgorithm bkws({.d_max = 4, .top_k = 0});
  for (const QuerySpec& q : workload) {
    auto direct_set = RootScores(bkws.Evaluate(index->base(), q.keywords));
    auto hier = EvaluateWithIndex(*index, bkws, q.keywords, {});
    EXPECT_EQ(RootScores(hier), direct_set) << q.id;
  }
}

// ---------- exact top-k ----------

// What exact top-k must equal: direct search's first k answers, in rank
// order, on everything but the paths (root, score, keyword vertices). Paths
// are not compared: verification's BFS tree and the cones' shortest-path
// DAG may join a root to the same keyword vertex by different paths.
using Ranked = std::vector<std::tuple<VertexId, uint32_t, std::vector<VertexId>>>;

Ranked FirstK(const std::vector<Answer>& answers, size_t k) {
  Ranked out;
  for (size_t i = 0; i < answers.size() && i < k; ++i) {
    out.emplace_back(answers[i].root, answers[i].score,
                     answers[i].keyword_vertices);
  }
  return out;
}

// Runs bkws, Blinks and bidirectional through the index at every forced
// layer and the cost model's own, with top_k 1, 3 and 10, and appends each
// cell whose answers are not direct search's first k to `wrong`. Returns the
// number of cells run. Every call shares `ctx`, as an engine worker's calls
// do, so scratch a query leaves behind would show in a later one.
size_t CheckExactTopK(const BigIndex& index, const std::vector<LabelId>& q,
                      const std::string& where, QueryContext& ctx,
                      std::vector<std::string>& wrong) {
  const BkwsAlgorithm bkws;
  const BlinksAlgorithm blinks;
  const BidirectionalAlgorithm bidi;
  size_t cells = 0;
  for (const KeywordSearchAlgorithm* f :
       {static_cast<const KeywordSearchAlgorithm*>(&bkws),
        static_cast<const KeywordSearchAlgorithm*>(&blinks),
        static_cast<const KeywordSearchAlgorithm*>(&bidi)}) {
    const auto direct = f->Evaluate(index.base(), q, ctx);
    for (int m = -1; m <= static_cast<int>(index.NumLayers()); ++m) {
      if (m == 0) continue;  // layer 0 is direct search itself
      for (size_t k : {size_t{1}, size_t{3}, size_t{10}}) {
        ++cells;
        EvalOptions opt;
        opt.forced_layer = m;
        opt.top_k = k;
        auto got = EvaluateWithIndex(index, *f, q, opt, ctx);
        if (FirstK(got, k) != FirstK(direct, k)) {
          wrong.push_back(where + " " + std::string(f->Name()) + " layer " +
                          (m < 0 ? "chosen" : std::to_string(m)) + " top_k " +
                          std::to_string(k));
        }
      }
    }
  }
  return cells;
}

std::string FirstFew(const std::vector<std::string>& cells) {
  std::string out;
  for (size_t i = 0; i < cells.size() && i < 5; ++i) out += "\n  " + cells[i];
  return out;
}

// Fan-in motif graphs tie many roots at equal scores, so a stop that ends at
// the k-th answer rather than past the k-th score picks the wrong roots.
TEST(ExactTopKDifferential, MotifGraphs) {
  Ontology ont = MakeOntology();
  const std::vector<std::vector<LabelId>> queries = {{0, 3}, {1, 4, 5},
                                                     {2, 5}};
  QueryContext ctx;
  std::vector<std::string> wrong;
  size_t cells = 0;
  BigIndexOptions three_layers;
  three_layers.max_layers = 3;
  for (uint64_t seed = 50; seed < 62; ++seed) {
    auto index = BigIndex::Build(MotifGraph(seed, 150 + 10 * (seed % 5), 500),
                                 &ont, three_layers);
    ASSERT_TRUE(index.ok());
    for (const auto& q : queries) {
      cells += CheckExactTopK(*index, q, "seed " + std::to_string(seed), ctx,
                              wrong);
    }
  }
  EXPECT_EQ(wrong.size(), 0u) << "of " << cells << " cells" << FirstFew(wrong);
}

// The generated knowledge graphs at the serving bench's scale and layer
// count, with their generated 8-query workload.
void CheckDatasetExactTopK(const std::string& name) {
  auto ds = MakeDataset(name, 0.01);
  ASSERT_TRUE(ds.ok());
  BigIndexOptions four_layers;
  four_layers.max_layers = 4;
  auto index =
      BigIndex::Build(ds->graph, &ds->ontology.ontology, four_layers);
  ASSERT_TRUE(index.ok());
  QueryGenOptions qopt;
  qopt.min_count = 30;
  auto workload = GenerateQueryWorkload(*ds, qopt);
  ASSERT_FALSE(workload.empty());
  QueryContext ctx;
  std::vector<std::string> wrong;
  size_t cells = 0;
  for (const QuerySpec& spec : workload) {
    cells += CheckExactTopK(*index, spec.keywords, spec.id, ctx, wrong);
  }
  EXPECT_EQ(wrong.size(), 0u) << name << ": of " << cells << " cells"
                              << FirstFew(wrong);
}

TEST(ExactTopKDifferential, Yago3) { CheckDatasetExactTopK("yago3"); }
TEST(ExactTopKDifferential, Dbpedia) { CheckDatasetExactTopK("dbpedia"); }
TEST(ExactTopKDifferential, Imdb) { CheckDatasetExactTopK("imdb"); }

}  // namespace
}  // namespace bigindex

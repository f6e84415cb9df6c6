// Tests of the engine layer: ExecutorPool scheduling, QueryContext scratch
// invariants, and the QueryEngine facade — above all that concurrent
// Evaluate callers over a shared index return answer sets identical to
// serial Evaluate for every algorithm and every forced layer (the
// re-entrancy contract under real thread interleavings), and that building
// an engine starts no threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/big_index.h"
#include "core/evaluator.h"
#include "engine/executor.h"
#include "engine/query_context.h"
#include "engine/query_engine.h"
#include "search/bidirectional.h"
#include "search/bkws.h"
#include "search/blinks.h"
#include "search/rclique.h"
#include "testing/thread_count.h"
#include "util/random.h"

namespace bigindex {
namespace {

// Ontology: leaves {0..5} -> mids {6,7,8} -> root 9 (as in evaluator_test).
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

// ---------------------------------------------------------------------------
// ExecutorPool

TEST(ExecutorPoolTest, SerialFallbackRunsEverythingInline) {
  ExecutorPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  EXPECT_EQ(pool.num_slots(), 1u);

  std::vector<int> hits(100, 0);
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(hits.size(), [&](size_t slot, size_t i) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ExecutorPoolTest, ParallelForRunsEachIndexExactlyOnce) {
  ExecutorPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  EXPECT_EQ(pool.num_slots(), 4u);

  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t slot, size_t i) {
    ASSERT_LT(slot, pool.num_slots());
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorPoolTest, SlotInvocationsNeverOverlap) {
  ExecutorPool pool(4);
  std::vector<std::atomic<int>> in_flight(pool.num_slots());
  std::atomic<bool> overlapped{false};
  pool.ParallelFor(2000, [&](size_t slot, size_t) {
    if (in_flight[slot].fetch_add(1) != 0) overlapped = true;
    // Widen the race window a little.
    std::this_thread::yield();
    in_flight[slot].fetch_sub(1);
  });
  EXPECT_FALSE(overlapped.load());
}

TEST(ExecutorPoolTest, ExceptionIsRethrownAfterDrain) {
  ExecutorPool pool(2);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](size_t, size_t i) {
                         ran.fetch_add(1);
                         if (i == 3) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after a throwing batch.
  std::atomic<size_t> after{0};
  pool.ParallelFor(10, [&](size_t, size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10u);
}

TEST(ExecutorPoolTest, ConcurrentParallelForCallsInterleave) {
  ExecutorPool pool(4);
  std::atomic<size_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&] {
      pool.ParallelFor(500, [&](size_t, size_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 1500u);
}

// ---------------------------------------------------------------------------
// QueryContext

TEST(QueryContextTest, ConeReleaseRestoresInvariant) {
  QueryContext ctx;
  ConeScratch& s = ctx.Cone(0, 64);
  s.dist[3] = 1;
  s.witness[3] = 7;
  s.parent[3] = 9;
  s.queue.push_back(3);
  s.resolved.push_back(3);
  s.Release();
  ConeScratch& again = ctx.Cone(0, 64);
  EXPECT_EQ(&again, &s);  // same storage, reused
  EXPECT_EQ(again.dist[3], kInfDistance);
  EXPECT_EQ(again.witness[3], kInvalidVertex);
  EXPECT_TRUE(again.queue.empty());
  EXPECT_TRUE(again.resolved.empty());
}

TEST(QueryContextTest, ZeroedVertexArrayIsZeroedOnEveryAcquisition) {
  QueryContext ctx;
  auto& a = ctx.ZeroedVertexArray(0, 16);
  a[5] = 42;
  auto& b = ctx.ZeroedVertexArray(0, 16);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b[5], 0u);
}

TEST(QueryContextTest, ScratchReferencesStayStableAsPoolsGrow) {
  QueryContext ctx;
  auto& v0 = ctx.VertexScratch(0);
  v0.push_back(11);
  // Acquiring many later slots must not invalidate v0.
  for (size_t s = 1; s < 40; ++s) ctx.VertexScratch(s);
  EXPECT_EQ(v0.size(), 1u);
  EXPECT_EQ(v0[0], 11u);
}

// ---------------------------------------------------------------------------
// QueryEngine

struct EngineFixture {
  Ontology ontology = MakeOntology();
  std::shared_ptr<const BigIndex> index;

  explicit EngineFixture(uint64_t seed = 42, size_t n = 400, size_t m = 900) {
    auto built =
        BigIndex::Build(MotifGraph(seed, n, m), &ontology, {.max_layers = 2});
    index = std::make_shared<const BigIndex>(std::move(built).value());
  }
};

std::vector<EngineQuery> MakeWorkload(int forced_layer) {
  // Queries per registered default algorithm; d_max etc. are the defaults the
  // engine registers, identical for the serial and concurrent callers.
  std::vector<std::vector<LabelId>> keyword_sets = {
      {0, 1}, {2, 3}, {0, 4, 5}, {1, 2, 3}, {4, 5}, {0, 3}};
  std::vector<std::string> algorithms = {"bkws", "blinks", "r-clique",
                                         "bidirectional"};
  std::vector<EngineQuery> queries;
  for (const auto& algo : algorithms) {
    for (const auto& kw : keyword_sets) {
      EngineQuery q;
      q.keywords = kw;
      q.algorithm = algo;
      q.eval.forced_layer = forced_layer;
      queries.push_back(std::move(q));
    }
  }
  return queries;
}

TEST(QueryEngineTest, ConstructionStartsNoThreads) {
  EngineFixture fx;
  const int before = testing::ProcessThreadCount();
  if (before < 0) GTEST_SKIP() << "/proc/self/status is unreadable";
  QueryEngine engine(fx.index, {.num_threads = 4});
  EXPECT_EQ(testing::ProcessThreadCount(), before);

  // num_threads only sizes the slots, resolved like ExecutorPool's.
  EXPECT_EQ(engine.num_slots(), 4u);
  EXPECT_EQ(QueryEngine(fx.index).num_slots(), 1u);
  EXPECT_EQ(QueryEngine(fx.index,
                        {.num_threads = ExecutorPool::kHardwareConcurrency})
                .num_slots(),
            std::max(1u, std::thread::hardware_concurrency()));
}

TEST(QueryEngineTest, BatchMatchesSerialForAllAlgorithmsAndLayers) {
  EngineFixture fx;
  QueryEngine serial(fx.index);  // num_threads = 0
  QueryEngine pooled(fx.index, {.num_threads = 4});
  // A batch is a ParallelFor of Evaluate calls, as `bigindex_cli batch` runs it.
  ExecutorPool pool(4);

  // Forced layers 0..h plus the cost-model choice (-1).
  for (int layer = -1;
       layer <= static_cast<int>(fx.index->NumLayers()); ++layer) {
    auto queries = MakeWorkload(layer);
    std::vector<StatusOr<QueryResult>> batch(queries.size(),
                                             Status::FailedPrecondition("not run"));
    pool.ParallelFor(queries.size(), [&](size_t, size_t i) {
      batch[i] = pooled.Evaluate(queries[i]);
    });
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
      auto one = serial.Evaluate(queries[i]);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      EXPECT_EQ(batch[i]->answers, one->answers)
          << "query " << i << " (" << queries[i].algorithm << ") at layer "
          << layer;
    }
  }
}

TEST(QueryEngineTest, ConcurrentEvaluateCallersAgreeWithSerial) {
  EngineFixture fx;
  QueryEngine serial(fx.index);
  // A second engine, so the callers race on cold per-graph search indexes.
  QueryEngine shared(fx.index, {.num_threads = 4});

  // Every algorithm at forced layers 0..h plus the cost-model choice (-1).
  std::vector<EngineQuery> queries;
  std::vector<int> layer_of;
  for (int layer = -1;
       layer <= static_cast<int>(fx.index->NumLayers()); ++layer) {
    for (EngineQuery& q : MakeWorkload(layer)) {
      queries.push_back(std::move(q));
      layer_of.push_back(layer);
    }
  }
  std::vector<std::vector<Answer>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = serial.Evaluate(queries[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected[i] = std::move(r->answers);
  }

  // Each caller runs the whole workload twice, starting at its own offset
  // so different queries overlap; answers are checked on this thread.
  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 2;
  const size_t n = queries.size();
  std::vector<std::vector<std::vector<Answer>>> got(
      kCallers, std::vector<std::vector<Answer>>(kRounds * n));
  std::vector<std::vector<Status>> failures(kCallers,
                                            std::vector<Status>(kRounds * n));
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (size_t k = 0; k < kRounds * n; ++k) {
        const size_t i = (t * n / kCallers + k) % n;
        auto r = shared.Evaluate(queries[i]);
        if (r.ok()) {
          got[t][k] = std::move(r->answers);
        } else {
          failures[t][k] = r.status();
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (size_t t = 0; t < kCallers; ++t) {
    for (size_t k = 0; k < kRounds * n; ++k) {
      const size_t i = (t * n / kCallers + k) % n;
      ASSERT_TRUE(failures[t][k].ok()) << failures[t][k].ToString();
      EXPECT_EQ(got[t][k], expected[i])
          << "caller " << t << " query " << i << " (" << queries[i].algorithm
          << ") at layer " << layer_of[i];
    }
  }
}

TEST(QueryEngineTest, UnknownAlgorithmIsNotFound) {
  EngineFixture fx;
  QueryEngine engine(fx.index);
  EngineQuery q;
  q.keywords = {0, 1};
  q.algorithm = "no-such-semantics";
  auto one = engine.Evaluate(q);
  EXPECT_EQ(one.status().code(), StatusCode::kNotFound)
      << one.status().ToString();
}

TEST(QueryEngineTest, ValidateRejectsBadQueriesBeforeEvaluation) {
  EngineFixture fx;
  QueryEngine engine(fx.index);

  EngineQuery empty;
  empty.algorithm = "bkws";
  EXPECT_EQ(engine.Validate(empty).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Evaluate(empty).status().code(),
            StatusCode::kInvalidArgument);

  EngineQuery unknown;
  unknown.keywords = {0, 1};
  unknown.algorithm = "no-such-semantics";
  EXPECT_EQ(engine.Validate(unknown).code(), StatusCode::kNotFound);

  EngineQuery good;
  good.keywords = {0, 1};
  good.algorithm = "bkws";
  EXPECT_TRUE(engine.Validate(good).ok());
}

TEST(QueryEngineTest, NormalizeKeywordsSortsAndDeduplicates) {
  EngineQuery q;
  q.keywords = {4, 1, 4, 0, 1};
  q.NormalizeKeywords();
  EXPECT_EQ(q.keywords, (std::vector<LabelId>{0, 1, 4}));

  // Normalization never changes the answer set: keyword queries have set
  // semantics (Def 2.3).
  EngineFixture fx;
  QueryEngine engine(fx.index);
  auto messy = engine.Evaluate({.keywords = {1, 0, 1}, .algorithm = "bkws"});
  auto clean = engine.Evaluate({.keywords = {0, 1}, .algorithm = "bkws"});
  ASSERT_TRUE(messy.ok());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(messy->answers.size(), clean->answers.size());
}

TEST(QueryEngineTest, ExpiredDeadlineMapsToDeadlineExceeded) {
  EngineFixture fx;
  QueryEngine engine(fx.index);
  EngineQuery q;
  q.keywords = {0, 1};
  q.eval.deadline = Deadline::After(-1);
  auto r = engine.Evaluate(q);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
}

TEST(QueryEngineTest, RegistryListsAndReplacesByName) {
  EngineFixture fx;
  QueryEngine engine(fx.index);
  auto names = engine.AlgorithmNames();
  EXPECT_EQ(names.size(), 4u);
  ASSERT_NE(engine.algorithm("bkws"), nullptr);
  EXPECT_EQ(engine.algorithm("bkws")->Name(), "bkws");
  EXPECT_EQ(engine.algorithm("nope"), nullptr);

  // Re-registering replaces in place without growing the registry.
  engine.Register(std::make_unique<BkwsAlgorithm>(BkwsOptions{.d_max = 1}));
  EXPECT_EQ(engine.AlgorithmNames().size(), 4u);
  auto* bkws = dynamic_cast<const BkwsAlgorithm*>(engine.algorithm("bkws"));
  ASSERT_NE(bkws, nullptr);
  EXPECT_EQ(bkws->options().d_max, 1u);
}

TEST(QueryEngineTest, ResultsCarryPerQueryStats) {
  EngineFixture fx;
  QueryEngine engine(fx.index, {.num_threads = 2});
  EngineQuery q;
  q.keywords = {0, 1};
  q.eval.forced_layer = static_cast<int>(fx.index->NumLayers());

  auto r = engine.Evaluate(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->algorithm, "bkws");
  EXPECT_GE(r->wall_ms, 0.0);
  EXPECT_EQ(r->breakdown.final_answers, r->answers.size());
  EXPECT_LE(r->breakdown.layer, fx.index->NumLayers());

  for (int again = 0; again < 3; ++again) {
    auto rerun = engine.Evaluate(q);
    ASSERT_TRUE(rerun.ok());
    EXPECT_EQ(rerun->breakdown.layer, r->breakdown.layer);
    EXPECT_EQ(rerun->answers, r->answers);
  }
}

TEST(QueryEngineTest, OwningConstructorWorksToo) {
  Ontology ont = MakeOntology();
  auto built = BigIndex::Build(MotifGraph(3, 200, 400), &ont,
                               {.max_layers = 2});
  ASSERT_TRUE(built.ok());
  QueryEngine engine(std::move(built).value(), {.num_threads = 2});
  auto r = engine.Evaluate({.keywords = {0, 1}, .algorithm = "blinks"});
  ASSERT_TRUE(r.ok());
  // Serial convenience wrapper on the same algorithm object agrees.
  auto direct = EvaluateWithIndex(engine.index(),
                                  *engine.algorithm("blinks"), {0, 1});
  EXPECT_EQ(r->answers, direct);
}

}  // namespace
}  // namespace bigindex

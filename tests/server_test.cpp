// Serving-layer tests: Deadline semantics, the sharded LRU answer cache,
// and the SearchService contracts — cache hits return answers identical to
// cold evaluation, epoch bumps invalidate, a caller that finds the slot
// gate's wait bound full resolves with the documented overload status
// instead of waiting, expired deadlines never reach the engine (and never
// yield partial answers), and concurrent clients over the pooled engine
// agree with serial evaluation (the suite tools/ci.sh re-runs under
// ThreadSanitizer).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/big_index.h"
#include "engine/query_engine.h"
#include "search/bkws.h"
#include "server/answer_cache.h"
#include "server/line_protocol.h"
#include "server/search_service.h"
#include "server/tcp_server.h"
#include "testing/thread_count.h"
#include "util/random.h"
#include "util/timer.h"

namespace bigindex {
namespace {

// Ontology: leaves {0..5} -> mids {6,7,8} -> root 9 (as in engine_test).
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

struct ServiceFixture {
  Ontology ontology = MakeOntology();
  std::shared_ptr<QueryEngine> engine;

  explicit ServiceFixture(size_t num_threads = 0, uint64_t seed = 42,
                          size_t n = 400, size_t m = 900) {
    auto built =
        BigIndex::Build(MotifGraph(seed, n, m), &ontology, {.max_layers = 2});
    engine = std::make_shared<QueryEngine>(
        std::make_shared<const BigIndex>(std::move(built).value()),
        QueryEngineOptions{.num_threads = num_threads});
  }
};

/// Counts how many times the engine actually evaluates it; otherwise bkws.
class CountingAlgorithm : public KeywordSearchAlgorithm {
 public:
  using KeywordSearchAlgorithm::Evaluate;
  using KeywordSearchAlgorithm::VerifyCandidate;

  std::string_view Name() const override { return "counting"; }
  bool IsRooted() const override { return true; }

  std::vector<Answer> Evaluate(const Graph& g,
                               const std::vector<LabelId>& keywords,
                               QueryContext& ctx) const override {
    evaluations.fetch_add(1, std::memory_order_relaxed);
    return inner_.Evaluate(g, keywords, ctx);
  }

  std::optional<Answer> VerifyCandidate(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const Answer& candidate,
                                        QueryContext& ctx) const override {
    return inner_.VerifyCandidate(g, keywords, candidate, ctx);
  }

  mutable std::atomic<int> evaluations{0};

 private:
  BkwsAlgorithm inner_;
};

/// Parks every Evaluate() call until Release(); makes queue states
/// deterministic in the overflow tests.
class BlockingAlgorithm : public KeywordSearchAlgorithm {
 public:
  using KeywordSearchAlgorithm::Evaluate;
  using KeywordSearchAlgorithm::VerifyCandidate;

  std::string_view Name() const override { return "blocking"; }
  bool IsRooted() const override { return true; }

  std::vector<Answer> Evaluate(const Graph&, const std::vector<LabelId>&,
                               QueryContext&) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++started_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    return {};
  }

  std::optional<Answer> VerifyCandidate(const Graph&,
                                        const std::vector<LabelId>&,
                                        const Answer&,
                                        QueryContext&) const override {
    return std::nullopt;
  }

  /// Blocks until `count` Evaluate() calls have entered the engine.
  void WaitUntilStarted(int count = 1) const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return started_ >= count; });
  }

  /// Releases every parked and future Evaluate() call.
  void Release() const {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable int started_ = 0;
  mutable bool released_ = false;
};

EngineQuery Q(std::vector<LabelId> keywords, std::string algorithm = "bkws") {
  EngineQuery q;
  q.keywords = std::move(keywords);
  q.algorithm = std::move(algorithm);
  return q;
}

/// Calls service.Query(query) on a client thread of its own, so a test can
/// park callers in the engine or at the slot gate.
std::future<StatusOr<QueryResult>> QueryOnClientThread(SearchService& service,
                                                       EngineQuery query) {
  return std::async(std::launch::async, [&service, q = std::move(query)] {
    return service.Query(q);
  });
}

/// Blocks until `n` callers wait at the service's slot gate.
void WaitForWaiters(const SearchService& service, size_t n) {
  while (service.Snapshot().queue_depth < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Deadline

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.IsNever());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingMillis(),
            std::numeric_limits<double>::infinity());
  EXPECT_FALSE(Deadline::Never().Expired());
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::After(0).Expired());
  EXPECT_TRUE(Deadline::After(-5).Expired());
  EXPECT_LE(Deadline::After(-5).RemainingMillis(), 0.0);
}

TEST(DeadlineTest, FutureBudgetExpiresAfterItPasses) {
  Deadline d = Deadline::After(1e7);  // far future
  EXPECT_FALSE(d.IsNever());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 1e6);

  Deadline soon = Deadline::After(1);
  while (!soon.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(soon.RemainingMillis(), 0.0);
}

// ---------------------------------------------------------------------------
// AnswerCache

QueryResult MarkedResult(uint32_t marker) {
  QueryResult r;
  Answer a;
  a.root = marker;
  a.score = marker;
  r.answers.push_back(a);
  return r;
}

TEST(AnswerCacheTest, LruEvictsColdestAndCounts) {
  AnswerCache cache({.capacity = 2, .shards = 1});
  cache.Insert("a", MarkedResult(1));
  cache.Insert("b", MarkedResult(2));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refresh: "b" is now coldest
  cache.Insert("c", MarkedResult(3));     // evicts "b"

  EXPECT_EQ(cache.Lookup("b"), nullptr);
  auto a = cache.Lookup("a");
  auto c = cache.Lookup("c");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(a->answers[0].root, 1u);
  EXPECT_EQ(c->answers[0].root, 3u);

  AnswerCacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(AnswerCacheTest, ReinsertRefreshesValueWithoutGrowth) {
  AnswerCache cache({.capacity = 4, .shards = 2});
  cache.Insert("k", MarkedResult(1));
  cache.Insert("k", MarkedResult(9));
  auto v = cache.Lookup("k");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->answers[0].root, 9u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(AnswerCacheTest, ZeroCapacityDisables) {
  AnswerCache cache({.capacity = 0});
  cache.Insert("k", MarkedResult(1));
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// SearchService: cache semantics

TEST(SearchServiceTest, CacheHitReturnsAnswersIdenticalToColdEvaluation) {
  ServiceFixture fx(/*num_threads=*/2);
  SearchService service(fx.engine);

  EngineQuery q = Q({0, 1});
  auto direct = fx.engine->Evaluate(q);
  ASSERT_TRUE(direct.ok());

  auto cold = service.Query(q);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto hot = service.Query(q);
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();

  EXPECT_EQ(cold->answers, direct->answers);
  EXPECT_EQ(hot->answers, cold->answers);

  ServiceStats s = service.Snapshot();
  EXPECT_GE(s.cache_hits, 1u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.epoch, 1u);
}

TEST(SearchServiceTest, NormalizedKeywordVariantsShareOneCacheEntry) {
  ServiceFixture fx;
  SearchService service(fx.engine);

  auto first = service.Query(Q({1, 0, 1}));
  ASSERT_TRUE(first.ok());
  auto second = service.Query(Q({0, 1}));  // same keyword *set*
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answers, first->answers);
  EXPECT_GE(service.Snapshot().cache_hits, 1u);
}

TEST(SearchServiceTest, EpochBumpInvalidatesCache) {
  ServiceFixture fx;
  SearchService service(fx.engine);

  EngineQuery q = Q({0, 1});
  auto before = service.Query(q);
  ASSERT_TRUE(before.ok());
  uint64_t misses_before_bump = service.Snapshot().cache_misses;

  EXPECT_EQ(service.BumpEpoch(), 2u);
  auto after = service.Query(q);
  ASSERT_TRUE(after.ok());

  // The post-bump query could not be served by the pre-bump entry...
  EXPECT_GT(service.Snapshot().cache_misses, misses_before_bump);
  // ...but evaluates to the same answers (the index did not change here).
  EXPECT_EQ(after->answers, before->answers);

  // The new-epoch entry serves hits again.
  uint64_t hits = service.Snapshot().cache_hits;
  ASSERT_TRUE(service.Query(q).ok());
  EXPECT_GT(service.Snapshot().cache_hits, hits);
}

TEST(SearchServiceTest, DisabledCacheNeverHits) {
  ServiceFixture fx;
  SearchService service(fx.engine, {.cache = {.capacity = 0}});
  EngineQuery q = Q({0, 1});
  ASSERT_TRUE(service.Query(q).ok());
  ASSERT_TRUE(service.Query(q).ok());
  ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_entries, 0u);
}

// ---------------------------------------------------------------------------
// SearchService: admission control

TEST(SearchServiceTest, QueueOverflowRejectsNewestWithUnavailable) {
  ServiceFixture fx;  // serial engine: one slot
  auto blocking = std::make_unique<BlockingAlgorithm>();
  const BlockingAlgorithm* block = blocking.get();
  fx.engine->Register(std::move(blocking));

  SearchService service(fx.engine, {.queue_capacity = 2,
                                    .cache = {.capacity = 0}});
  auto mk = [&](LabelId kw) {
    EngineQuery q = Q({kw}, "blocking");
    q.eval.forced_layer = 0;  // evaluate directly: exactly one Evaluate()
    return q;
  };

  // First request parks inside the engine, holding the only slot.
  auto f1 = QueryOnClientThread(service, mk(0));
  block->WaitUntilStarted();

  // Fill the gate's wait bound, then overflow it.
  auto f2 = QueryOnClientThread(service, mk(1));
  auto f3 = QueryOnClientThread(service, mk(2));
  WaitForWaiters(service, 2);
  auto f4 = QueryOnClientThread(service, mk(3));

  // The overflow resolved while the slot is still held — it never waits.
  EXPECT_EQ(f4.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(service.Snapshot().rejected_overload, 1u);

  block->Release();
  auto r4 = f4.get();
  EXPECT_EQ(r4.status().code(), StatusCode::kUnavailable)
      << r4.status().ToString();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  EXPECT_TRUE(f3.get().ok());
}

TEST(SearchServiceTest, InvalidQueriesRejectedAtAdmission) {
  ServiceFixture fx;
  SearchService service(fx.engine);

  auto empty = service.Query(Q({}));
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument)
      << empty.status().ToString();

  auto unknown = service.Query(Q({0, 1}, "no-such-semantics"));
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound)
      << unknown.status().ToString();

  ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.rejected_invalid, 2u);
  EXPECT_EQ(s.completed, 0u);
}

// ---------------------------------------------------------------------------
// SearchService: deadlines

TEST(SearchServiceTest, ExpiredDeadlineReturnsWithoutEvaluating) {
  ServiceFixture fx;
  auto counting = std::make_unique<CountingAlgorithm>();
  const CountingAlgorithm* counter = counting.get();
  fx.engine->Register(std::move(counting));

  SearchService service(fx.engine);
  EngineQuery q = Q({0, 1}, "counting");
  q.eval.deadline = Deadline::After(-1);

  auto r = service.Query(q);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_EQ(counter->evaluations.load(), 0);

  ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.deadline_misses, 1u);
  EXPECT_EQ(s.completed, 0u);

  // Sanity: the same query without a deadline does evaluate.
  q.eval.deadline = Deadline::Never();
  EXPECT_TRUE(service.Query(q).ok());
  EXPECT_EQ(counter->evaluations.load(), 1);
}

TEST(SearchServiceTest, DeadlineExpiringWhileQueuedNeverReachesEngine) {
  ServiceFixture fx;
  auto blocking = std::make_unique<BlockingAlgorithm>();
  const BlockingAlgorithm* block = blocking.get();
  auto counting = std::make_unique<CountingAlgorithm>();
  const CountingAlgorithm* counter = counting.get();
  fx.engine->Register(std::move(blocking));
  fx.engine->Register(std::move(counting));

  SearchService service(fx.engine, {.cache = {.capacity = 0}});
  // Hold the only slot, then send a request whose deadline dies while it
  // waits for one.
  EngineQuery blocker = Q({0}, "blocking");
  blocker.eval.forced_layer = 0;
  auto f1 = QueryOnClientThread(service, blocker);
  block->WaitUntilStarted();

  EngineQuery doomed = Q({0, 1}, "counting");
  doomed.eval.deadline = Deadline::After(5);
  auto f2 = QueryOnClientThread(service, doomed);
  while (!doomed.eval.deadline.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  block->Release();
  auto r2 = f2.get();
  EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded)
      << r2.status().ToString();
  EXPECT_EQ(counter->evaluations.load(), 0);
  EXPECT_TRUE(f1.get().ok());
}

// ---------------------------------------------------------------------------
// SearchService: concurrency (re-run under TSan by tools/ci.sh)

TEST(SearchServiceTest, ConcurrentClientsAgreeWithSerialEvaluation) {
  ServiceFixture fx(/*num_threads=*/2, /*seed=*/9, /*n=*/300, /*m=*/700);

  std::vector<EngineQuery> queries;
  std::vector<std::vector<LabelId>> keyword_sets = {
      {0, 1}, {2, 3}, {0, 4, 5}, {1, 2, 3}, {4, 5}, {0, 3}};
  for (const char* algo : {"bkws", "blinks", "r-clique", "bidirectional"}) {
    for (const auto& kw : keyword_sets) queries.push_back(Q(kw, algo));
  }
  std::vector<std::vector<Answer>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = fx.engine->Evaluate(queries[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected[i] = std::move(r->answers);
  }

  SearchService service(fx.engine, {.cache = {.capacity = 16}});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (size_t rep = 0; rep < 3; ++rep) {
        for (size_t i = t % 3; i < queries.size(); ++i) {
          auto r = service.Query(queries[i]);
          if (!r.ok() || r->answers != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);

  ServiceStats s = service.Snapshot();
  EXPECT_GT(s.completed, 0u);
  EXPECT_EQ(s.rejected_overload, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
  // The tiny cache must have cycled (insertions beyond capacity => evictions).
  EXPECT_GT(s.cache_evictions, 0u);
}

TEST(SearchServiceTest, SlowQueryDoesNotHoldOthers) {
  ServiceFixture fx(/*num_threads=*/2);
  auto blocking = std::make_unique<BlockingAlgorithm>();
  const BlockingAlgorithm* block = blocking.get();
  fx.engine->Register(std::move(blocking));
  fx.engine->Register(std::make_unique<CountingAlgorithm>());

  SearchService service(fx.engine);
  EngineQuery blocker = Q({0}, "blocking");
  blocker.eval.forced_layer = 0;
  auto slow = QueryOnClientThread(service, blocker);
  // Declared after the slow caller's future, so it releases the blocker on
  // every path before that future's destructor waits for its thread.
  struct ReleaseOnExit {
    const BlockingAlgorithm* block;
    ~ReleaseOnExit() { block->Release(); }
  } release{block};
  block->WaitUntilStarted();

  // The second slot answers while the first is still held.
  auto fast = QueryOnClientThread(service, Q({0, 1}, "counting"));
  ASSERT_EQ(fast.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  auto r = fast.get();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(slow.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
}

TEST(SearchServiceTest, ShutdownResolvesQueuedRequests) {
  // A serial engine (one slot), then two slots, both held.
  for (size_t num_threads : {0, 2}) {
    SCOPED_TRACE(num_threads);
    ServiceFixture fx(num_threads);
    auto blocking = std::make_unique<BlockingAlgorithm>();
    const BlockingAlgorithm* block = blocking.get();
    fx.engine->Register(std::move(blocking));

    auto service = std::make_unique<SearchService>(
        fx.engine, SearchServiceOptions{.cache = {.capacity = 0}});
    EngineQuery q = Q({0}, "blocking");
    q.eval.forced_layer = 0;
    const int slots = static_cast<int>(fx.engine->num_slots());
    std::vector<std::future<StatusOr<QueryResult>>> in_flight;
    for (int i = 0; i < slots; ++i) {
      in_flight.push_back(QueryOnClientThread(*service, q));
    }
    block->WaitUntilStarted(slots);
    auto queued = QueryOnClientThread(*service, q);  // every slot is held
    WaitForWaiters(*service, 1);

    std::thread shutdown([&] { service->Shutdown(); });
    // Shutdown() answers the waiter at once, then waits for the callers
    // that hold slots; the release below lets them finish.
    auto r = queued.get();
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << r.status().ToString();
    block->Release();
    shutdown.join();

    for (auto& f : in_flight) {
      EXPECT_TRUE(f.get().ok());  // in-flight work completed
    }

    // Later calls resolve immediately with Unavailable.
    auto late = service->Query(Q({0, 1}));
    EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  }
}

TEST(SearchServiceTest, ConstructionStartsNoThreads) {
  ServiceFixture fx(/*num_threads=*/4);
  const int before = testing::ProcessThreadCount();
  if (before < 0) GTEST_SKIP() << "/proc/self/status is unreadable";
  SearchService service(fx.engine);
  EXPECT_EQ(testing::ProcessThreadCount(), before);
  // Queries run on the calling thread.
  EXPECT_TRUE(service.Query(Q({0, 1})).ok());
  EXPECT_EQ(testing::ProcessThreadCount(), before);
}

// ---------------------------------------------------------------------------
// Line protocol + TCP transport

TEST(LineProtocolTest, CommandsAndErrors) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  LineHandler handler(&service);

  EXPECT_EQ(handler.Handle("ping").response, "OK pong\n.\n");

  LineHandler::Result r = handler.Handle("query bkws 0,1 top_k=5");
  EXPECT_EQ(r.response.substr(0, 5), "OK n=");
  EXPECT_EQ(r.response.substr(r.response.size() - 2), ".\n");
  EXPECT_FALSE(r.close);

  EXPECT_EQ(handler.Handle("query nope 0,1").response.substr(0, 12),
            "ERR NotFound");
  EXPECT_EQ(handler.Handle("query bkws").response.substr(0, 3), "ERR");
  EXPECT_EQ(handler.Handle("bogus-command").response.substr(0, 3), "ERR");
  EXPECT_EQ(handler.Handle("query bkws 0,1 nope=3").response.substr(0, 3),
            "ERR");

  EXPECT_EQ(handler.Handle("bump").response, "OK epoch=2\n.\n");
  EXPECT_EQ(handler.Handle("stats").response.substr(0, 13), "OK submitted=");

  std::string algos = handler.Handle("algos").response;
  EXPECT_NE(algos.find("bkws"), std::string::npos);
  EXPECT_NE(algos.find("r-clique"), std::string::npos);

  LineHandler::Result quit = handler.Handle("quit");
  EXPECT_TRUE(quit.close);
}

TEST(LineProtocolTest, QueryAnswersMatchEngine) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  LineHandler handler(&service);

  auto direct = fx.engine->Evaluate(Q({0, 1}));
  ASSERT_TRUE(direct.ok());

  std::string resp = handler.Handle("query bkws 0,1").response;
  // One "A " line per answer between the head and the terminator.
  size_t lines = 0;
  for (size_t pos = 0; (pos = resp.find("\nA ", pos)) != std::string::npos;
       ++pos) {
    ++lines;
  }
  EXPECT_EQ(lines, direct->answers.size());
}

TEST(LineProtocolTest, OutOfRangeKeywordIdsAnswerInvalidArgument) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  LineHandler handler(&service);

  // kInvalidLabel itself, and one past LabelId's range (which used to wrap
  // to label 0), are both refused before the engine sees them.
  for (const char* line : {"query bkws 4294967295", "query bkws 4294967296",
                           "query bkws 0,4294967295", "query bkws -1"}) {
    EXPECT_EQ(handler.Handle(line).response.substr(0, 20),
              "ERR InvalidArgument:")
        << line;
  }
  // The largest id in range is served (no vertex carries it).
  EXPECT_EQ(handler.Handle("query bkws 4294967294").response.substr(0, 5),
            "OK n=");
  EXPECT_EQ(handler.Handle("query bkws 0,1").response.substr(0, 5), "OK n=");
}

TEST(LineProtocolTest, MalformedOptionsAnswerInvalidArgument) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  LineHandler handler(&service);

  for (const char* option :
       {"top_k=abc", "top_k=-1", "top_k=", "top_k=3x", "layer=xyz",
        "layer=99999999999", "layer=1.5", "exact=2", "exact=", "exact=yes",
        "deadline_ms=abc", "deadline_ms=nan", "deadline_ms=inf",
        "deadline_ms=", "beta=nan", "beta=0.5x", "beta=", "top_k=abc layer=xyz",
        "nope=3", "top_k"}) {
    const std::string line = std::string("query bkws 0,1 ") + option;
    EXPECT_EQ(handler.Handle(line).response.substr(0, 20),
              "ERR InvalidArgument:")
        << line;
  }
  // Well-formed values are served; a finite negative deadline is already
  // expired, as the coordinator may forward one.
  EXPECT_EQ(handler.Handle("query bkws 0,1 top_k=3 layer=-1 exact=0 "
                           "beta=0.25 deadline_ms=60000")
                .response.substr(0, 5),
            "OK n=");
  EXPECT_EQ(handler.Handle("query bkws 0,1 deadline_ms=-2.5")
                .response.substr(0, 20),
            "ERR DeadlineExceeded");
  EXPECT_EQ(handler.Handle("query bkws 0,1 deadline_ms=1e300")
                .response.substr(0, 5),
            "OK n=");
}

/// Parses a Prometheus exposition into name{labels} -> value, asserting the
/// structural rules on the way (comment lines are HELP/TYPE; sample lines
/// end in one parseable finite value).
std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> samples;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    EXPECT_NE(end, std::string::npos) << "unterminated last line";
    if (end == std::string::npos) break;
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) {
      ADD_FAILURE() << "blank line in exposition";
      continue;
    }
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    if (sp == std::string::npos) continue;
    char* parse_end = nullptr;
    double v = std::strtod(line.c_str() + sp + 1, &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    samples[line.substr(0, sp)] = v;
  }
  return samples;
}

TEST(LineProtocolTest, MetricsVerbParsesAndIsMonotone) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  LineHandler handler(&service);

  ASSERT_TRUE(service.Query(Q({0, 1})).ok());
  std::string resp = handler.Handle("metrics").response;
  ASSERT_EQ(resp.substr(0, 3), "OK\n");
  ASSERT_EQ(resp.substr(resp.size() - 2), ".\n");
  std::map<std::string, double> before =
      ParsePrometheus(resp.substr(3, resp.size() - 5));

  // The exposition covers all three instrumented layers.
  EXPECT_TRUE(before.count("bigindex_build_runs_total"));
  EXPECT_TRUE(before.count("bigindex_engine_queries_total{algorithm=\"bkws\"}"));
  EXPECT_TRUE(before.count("bigindex_server_requests_total"));
  EXPECT_TRUE(before.count("bigindex_server_request_ms_count"));
  EXPECT_GE(before["bigindex_server_completed_total"], 1);

  // The verb is case-insensitive, per the documented grammar.
  EXPECT_EQ(handler.Handle("METRICS").response.substr(0, 3), "OK\n");

  ASSERT_TRUE(service.Query(Q({0, 2})).ok());
  resp = handler.Handle("metrics").response;
  std::map<std::string, double> after =
      ParsePrometheus(resp.substr(3, resp.size() - 5));

  // Counters are monotone across requests; the request counters moved.
  // (Other tests share the process-global registry, so compare >=, and
  // completed strictly advanced because *this* service finished one more.)
  for (const auto& [name, value] : before) {
    if (name.find("_total") == std::string::npos) continue;
    ASSERT_TRUE(after.count(name)) << name << " vanished";
    EXPECT_GE(after[name], value) << name << " went backwards";
  }
  EXPECT_GE(after["bigindex_server_completed_total"],
            before["bigindex_server_completed_total"] + 1);
}

TEST(LineProtocolTest, TraceVerbsRoundTrip) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  LineHandler handler(&service);

  EXPECT_EQ(handler.Handle("trace clear").response, "OK cleared\n.\n");
  EXPECT_EQ(handler.Handle("trace on").response, "OK trace=on\n.\n");
  ASSERT_TRUE(service.Query(Q({0, 1})).ok());
  EXPECT_EQ(handler.Handle("trace off").response, "OK trace=off\n.\n");

  std::string status = handler.Handle("trace status").response;
  EXPECT_EQ(status.substr(0, 13), "OK enabled=0 ");
  EXPECT_NE(status.find(" events="), std::string::npos);

  std::string dump = handler.Handle("trace dump").response;
  ASSERT_EQ(dump.substr(0, 3), "OK\n");
  ASSERT_EQ(dump.substr(dump.size() - 2), ".\n");
  // Body is exactly one JSON line with the serving + engine spans from the
  // query that ran while tracing was on.
  std::string json = dump.substr(3, dump.size() - 6);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"name\":\"server/admit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"engine/evaluate\""), std::string::npos);

  EXPECT_EQ(handler.Handle("trace clear").response, "OK cleared\n.\n");
  std::string cleared = handler.Handle("trace dump").response;
  EXPECT_EQ(cleared.find("server/admit"), std::string::npos);
  EXPECT_EQ(handler.Handle("trace bogus").response.substr(0, 3), "ERR");
  EXPECT_EQ(handler.Handle("trace").response.substr(0, 3), "ERR");
}

TEST(LineProtocolTest, OnlyAWellFormedGetLineIsAScrape) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  for (const char* line :
       {"GET", "GET /metrics", "GET metrics HTTP/1.0", "GET /metrics HTTP/2.0",
        "GET /metrics HTTP/1.", "GET /metrics HTTP/1.0 extra",
        "GET /metrics FTP/1.0"}) {
    LineHandler handler(&service);
    EXPECT_EQ(handler.Handle(line).response,
              "ERR InvalidArgument: unknown command 'get'\n.\n")
        << line;
    // Not a scrape, so the session goes on serving the line protocol.
    EXPECT_EQ(handler.Handle("ping").response, "OK pong\n.\n") << line;
  }

  // A scrape answers nothing until the blank line that ends its headers,
  // whatever those lines hold; then the response closes the session.
  LineHandler handler(&service);
  EXPECT_EQ(handler.Handle("GET /metrics HTTP/1.1").response, "");
  EXPECT_TRUE(handler.scrape_pending());
  EXPECT_EQ(handler.Handle("ping").response, "");
  LineHandler::Result result = handler.Handle("");
  EXPECT_TRUE(result.close);
  EXPECT_EQ(result.response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_FALSE(handler.scrape_pending());
}

TEST(TcpServerTest, ServesLineProtocolOverLoopback) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  TcpServer server(&service, nullptr, {.port = 0});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind loopback socket: " << started.ToString();
  }
  ASSERT_NE(server.port(), 0);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  auto roundtrip = [&](const std::string& request) {
    std::string line = request + "\n";
    EXPECT_EQ(::write(fd, line.data(), line.size()),
              static_cast<ssize_t>(line.size()));
    std::string response;
    char chunk[1024];
    while (response.find("\n.\n") == std::string::npos &&
           response.rfind(".\n", 0) != 0) {
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      response.append(chunk, static_cast<size_t>(n));
    }
    return response;
  };

  EXPECT_EQ(roundtrip("ping"), "OK pong\n.\n");
  std::string query_resp = roundtrip("query bkws 0,1 top_k=3");
  EXPECT_EQ(query_resp.substr(0, 5), "OK n=");
  std::string err_resp = roundtrip("query nope 0,1");
  EXPECT_EQ(err_resp.substr(0, 3), "ERR");

  ::close(fd);
  server.Stop();
  ServiceStats s = service.Snapshot();
  EXPECT_GE(s.submitted, 2u);
}

int DialLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Everything the server sends until it closes the connection.
std::string ReadToEof(int fd) {
  std::string response;
  char chunk[1024];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  return response;
}

TEST(TcpServerTest, OverlongLineClosesOnlyItsConnection) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  TcpServer server(&service, nullptr, {.port = 0});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind loopback socket: " << started.ToString();
  }
  const int bystander = DialLoopback(server.port());
  const int hostile = DialLoopback(server.port());
  ASSERT_GE(bystander, 0);
  ASSERT_GE(hostile, 0);

  // One byte past the cap, with no newline: the server answers once and
  // closes this connection instead of buffering on.
  const std::string flood(kMaxRequestLineBytes + 1, 'x');
  size_t sent = 0;
  while (sent < flood.size()) {
    ssize_t n = ::send(hostile, flood.data() + sent, flood.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  EXPECT_EQ(sent, flood.size());
  EXPECT_EQ(ReadToEof(hostile).substr(0, 20), "ERR InvalidArgument:");
  ::close(hostile);

  // The other connection, and a new one, are still served.
  for (int fd : {bystander, DialLoopback(server.port())}) {
    ASSERT_GE(fd, 0);
    const std::string request = "ping\nquit\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    EXPECT_EQ(ReadToEof(fd), "OK pong\n.\nOK bye\n.\n");
    ::close(fd);
  }
  server.Stop();
}

/// Bounds every read on `fd`, so a server that never answers or never
/// closes fails the test instead of hanging it.
void SetReadTimeout(int fd, int seconds) {
  timeval timeout{.tv_sec = seconds, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

// A client may pipeline requests: a thousand lines in one write get a
// thousand replies, in order, on the one connection.
TEST(TcpServerTest, PipelinedRequestsAnswerInOrder) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  TcpServer server(&service, nullptr, {.port = 0});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind loopback socket: " << started.ToString();
  }
  const int fd = DialLoopback(server.port());
  ASSERT_GE(fd, 0);
  SetReadTimeout(fd, 10);

  std::string requests, expected;
  for (int i = 0; i < 1000; ++i) {
    requests += "ping\n";
    expected += "OK pong\n.\n";
  }
  requests += "quit\n";
  expected += "OK bye\n.\n";
  ASSERT_EQ(::send(fd, requests.data(), requests.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(requests.size()));
  EXPECT_EQ(ReadToEof(fd), expected);
  ::close(fd);
  server.Stop();
}

// curl's request shape (request line, header lines, blank line) on the
// line-protocol port gets one HTTP/1.0 response whose body is the matching
// verb's payload, and then the server closes that connection.
TEST(TcpServerTest, AnswersHttpScrapesOnTheProtocolPort) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  TcpServer server(&service, nullptr, {.port = 0});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind loopback socket: " << started.ToString();
  }
  // One traced query, so both payloads have something in them.
  LineHandler verbs(&service);
  ASSERT_EQ(verbs.Handle("trace clear").response, "OK cleared\n.\n");
  ASSERT_EQ(verbs.Handle("trace on").response, "OK trace=on\n.\n");
  ASSERT_TRUE(service.Query(Q({0, 1})).ok());
  ASSERT_EQ(verbs.Handle("trace off").response, "OK trace=off\n.\n");
  auto payload = [&](const char* verb) {
    const std::string block = verbs.Handle(verb).response;  // OK\n...\n.\n
    return block.substr(3, block.size() - 5);
  };

  for (const auto& [path, verb] :
       {std::pair{"/metrics", "metrics"}, std::pair{"/trace", "trace dump"},
        std::pair{"/", "metrics"}}) {
    SCOPED_TRACE(path);
    const int fd = DialLoopback(server.port());
    ASSERT_GE(fd, 0);
    SetReadTimeout(fd, 10);
    const std::string request = std::string("GET ") + path +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                "User-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    const std::string response = ReadToEof(fd);
    char byte;
    EXPECT_EQ(::read(fd, &byte, 1), 0) << "the server kept the connection";
    ::close(fd);

    const size_t head_end = response.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos) << response.substr(0, 200);
    const std::string head = response.substr(0, head_end + 2);
    const std::string body = response.substr(head_end + 4);
    EXPECT_EQ(head.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << head;
    EXPECT_NE(head.find("\r\nContent-Length: " + std::to_string(body.size()) +
                        "\r\n"),
              std::string::npos)
        << head;
    EXPECT_FALSE(body.empty());
    EXPECT_EQ(body, payload(verb));
  }
  EXPECT_NE(payload("trace dump").find("server/admit"), std::string::npos);
  ASSERT_EQ(verbs.Handle("trace clear").response, "OK cleared\n.\n");

  // The port goes on serving the line protocol.
  const int fd = DialLoopback(server.port());
  ASSERT_GE(fd, 0);
  SetReadTimeout(fd, 10);
  const std::string request = "ping\nquit\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  EXPECT_EQ(ReadToEof(fd), "OK pong\n.\nOK bye\n.\n");
  ::close(fd);
  server.Stop();
}

size_t OpenDescriptors() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// A connection the client closes gives its descriptor (and its thread) back
// while the server runs, not only at Stop().
TEST(TcpServerTest, ClosedConnectionsReleaseTheirDescriptors) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd to count descriptors in";
  }
  ServiceFixture fx;
  SearchService service(fx.engine);
  TcpServer server(&service, nullptr, {.port = 0});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind loopback socket: " << started.ToString();
  }
  const size_t baseline = OpenDescriptors();

  for (int round = 0; round < 200; ++round) {
    const int fd = DialLoopback(server.port());
    ASSERT_GE(fd, 0);
    SetReadTimeout(fd, 10);
    ASSERT_EQ(::send(fd, "ping\n", 5, MSG_NOSIGNAL), 5);
    std::string reply;
    char chunk[64];
    ssize_t n;
    while (reply.find("\n.\n") == std::string::npos &&
           (n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      reply.append(chunk, static_cast<size_t>(n));
    }
    ASSERT_EQ(reply, "OK pong\n.\n");
    ::close(fd);
  }

  // Each server side sees its client's close and lets go within moments.
  size_t open = OpenDescriptors();
  for (int i = 0; i < 500 && open > baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    open = OpenDescriptors();
  }
  EXPECT_LE(open, baseline);
  server.Stop();
}

// A full descriptor table fails accept() with EMFILE. The server must go on
// accepting once descriptors are free again, not stop for good.
TEST(TcpServerTest, AcceptOutlivesDescriptorExhaustion) {
  ServiceFixture fx;
  SearchService service(fx.engine);
  TcpServer server(&service, nullptr, {.port = 0});
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind loopback socket: " << started.ToString();
  }
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  SetReadTimeout(client, 10);

  // Lower this process's descriptor limit to just past `client` and take
  // every number still free below it.
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(client) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> filler;
  for (int fd; (fd = ::dup(client)) >= 0;) filler.push_back(fd);
  const int dup_errno = errno;

  // The handshake completes in the kernel; the server's accept() cannot get
  // a descriptor for it.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  const int connected =
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int fd : filler) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(dup_errno, EMFILE);
  ASSERT_EQ(connected, 0);

  const std::string request = "ping\nquit\n";
  ASSERT_EQ(::send(client, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  EXPECT_EQ(ReadToEof(client), "OK pong\n.\nOK bye\n.\n");
  ::close(client);
  server.Stop();
}

}  // namespace
}  // namespace bigindex

// PerGraphCache runs builds outside its mutex: a slow build of one graph
// must not stall lookups of graphs already cached, and racing builds of one
// graph must converge on a single cached entry. tools/ci.sh re-runs this
// suite under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <thread>

#include "graph/graph.h"
#include "search/per_graph_cache.h"

namespace bigindex {
namespace {

using std::chrono::seconds;

Graph PathGraph(size_t n) {
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) b.AddVertex(0);
  for (size_t i = 1; i < n; ++i) {
    b.AddEdge(static_cast<VertexId>(i - 1), static_cast<VertexId>(i));
  }
  return std::move(b.Build()).value();
}

// Waits for `latch` until `timeout`, so a cache that serializes builds fails
// the test instead of hanging it.
bool WaitFor(std::latch& latch, seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!latch.try_wait()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

std::unique_ptr<int> MustNotBuild() {
  ADD_FAILURE() << "rebuilt a graph that is already cached";
  return std::make_unique<int>(-1);
}

TEST(PerGraphCache, CachedLookupReturnsWhileAnotherBuildBlocks) {
  PerGraphCache<int> cache;
  Graph cached = PathGraph(3);
  Graph slow = PathGraph(4);
  const int* hit =
      cache.GetOrBuild(cached, [] { return std::make_unique<int>(1); });
  ASSERT_NE(hit, nullptr);

  std::latch building(1);
  std::latch release(1);
  std::thread builder([&] {
    const int* built = cache.GetOrBuild(slow, [&] {
      building.count_down();
      release.wait();
      return std::make_unique<int>(2);
    });
    EXPECT_EQ(*built, 2);
  });
  building.wait();  // the slow build is now in progress and blocked

  auto lookup = std::async(std::launch::async, [&] {
    return cache.GetOrBuild(cached, MustNotBuild);
  });
  EXPECT_EQ(lookup.wait_for(seconds(5)), std::future_status::ready)
      << "a cached lookup waited on another graph's build";
  release.count_down();
  EXPECT_EQ(lookup.get(), hit);
  builder.join();
}

TEST(PerGraphCache, ConcurrentBuildsOfOneGraphLeaveOneEntry) {
  PerGraphCache<int> cache;
  Graph g = PathGraph(3);
  std::latch both_building(2);
  std::atomic<int> builds{0};
  std::atomic<bool> overlapped{true};
  auto get = [&] {
    return cache.GetOrBuild(g, [&] {
      const int id = ++builds;
      both_building.count_down();
      if (!WaitFor(both_building, seconds(5))) overlapped = false;
      return std::make_unique<int>(id);
    });
  };
  auto first = std::async(std::launch::async, get);
  auto second = std::async(std::launch::async, get);
  const int* a = first.get();
  const int* b = second.get();

  EXPECT_TRUE(overlapped) << "builds of one graph were serialized";
  EXPECT_EQ(builds.load(), 2);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);  // the losing build was dropped, not cached beside
  EXPECT_EQ(cache.GetOrBuild(g, MustNotBuild), a);
}

}  // namespace
}  // namespace bigindex

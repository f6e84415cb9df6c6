// Fixed-size thread pool with a serial fallback — the execution substrate of
// parallel index construction, the shard coordinator's fan-out and the
// batch front ends (bigindex_cli batch, bench_engine).
//
// Design: persistent worker threads pulling from one mutex-guarded task
// queue. ParallelFor() is the primitive those callers use: it carves an
// index range into dynamically load-balanced chunks (workers race on an
// atomic cursor, so skewed per-item costs — some queries are 100× slower
// than others — don't idle workers), tags every invocation with a stable
// *slot* id so callers can give each concurrent strand its own scratch
// state, and blocks until the whole range is done. With zero threads the
// pool degenerates to inline serial execution, which keeps single-threaded
// builds and tiny deployments free of thread machinery.
//
// ParallelFor is re-entrant across threads (concurrent calls interleave on
// the shared workers) but must not be called from inside a pool task — the
// nested call would wait on workers that may all be occupied by its parent.

#ifndef BIGINDEX_ENGINE_EXECUTOR_H_
#define BIGINDEX_ENGINE_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bigindex {

class ExecutorPool {
 public:
  /// Sentinel for "one worker per hardware thread".
  static constexpr size_t kHardwareConcurrency = static_cast<size_t>(-1);

  /// `num_threads` with kHardwareConcurrency replaced by the hardware thread
  /// count (at least 1). The one place that rule lives: QueryEngine sizes
  /// its slots with it too.
  static size_t ResolveThreadCount(size_t num_threads);

  /// Spawns ResolveThreadCount(num_threads) workers. 0 = serial fallback:
  /// all work runs inline on the calling thread and no threads are created.
  explicit ExecutorPool(size_t num_threads);
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  /// Number of worker threads (0 in serial fallback).
  size_t num_workers() const { return workers_.size(); }

  /// Upper bound (exclusive) on the slot ids ParallelFor passes to `fn`;
  /// the natural size for a per-slot scratch array.
  size_t num_slots() const { return workers_.empty() ? 1 : workers_.size(); }

  /// Runs fn(slot, index) for every index in [0, count), then returns.
  /// Invocations sharing a slot never overlap in time, so per-slot state
  /// needs no synchronization; indices are claimed dynamically in ascending
  /// order. The first exception thrown by `fn` (if any) is rethrown here
  /// after the range completes or drains.
  void ParallelFor(size_t count,
                   const std::function<void(size_t slot, size_t index)>& fn);

  /// Enqueues one fire-and-forget task (serial fallback: runs it inline).
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool stopping_ = false;
};

}  // namespace bigindex

#endif  // BIGINDEX_ENGINE_EXECUTOR_H_

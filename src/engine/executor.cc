#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "obs/metrics.h"

namespace bigindex {
namespace {

/// Tasks sitting in the pool's queue right now. One gauge for all pools in
/// the process — the daemon runs one.
Gauge& QueueDepthGauge() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "bigindex_executor_queue_depth",
      "Tasks waiting in executor pool queues");
  return g;
}

}  // namespace

size_t ExecutorPool::ResolveThreadCount(size_t num_threads) {
  if (num_threads != kHardwareConcurrency) return num_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

ExecutorPool::ExecutorPool(size_t num_threads) {
  num_threads = ResolveThreadCount(num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ExecutorPool::~ExecutorPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ExecutorPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    QueueDepthGauge().Sub(1);
    task();
  }
}

void ExecutorPool::Submit(std::function<void()> task) {
  static Counter& tasks = MetricsRegistry::Global().GetCounter(
      "bigindex_executor_tasks_total", "Tasks submitted to executor pools");
  tasks.Inc();
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  QueueDepthGauge().Add(1);
  work_available_.notify_one();
}

void ExecutorPool::ParallelFor(
    size_t count, const std::function<void(size_t slot, size_t index)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }

  // One driver task per useful worker; each driver races on `next` so slow
  // items never strand work behind a static partition.
  struct SharedState {
    std::atomic<size_t> next{0};
    std::mutex done_mutex;
    std::condition_variable done;
    size_t drivers_left;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<SharedState>();
  const size_t drivers = std::min(count, workers_.size());
  state->drivers_left = drivers;

  for (size_t slot = 0; slot < drivers; ++slot) {
    Submit([state, &fn, count, slot] {
      for (;;) {
        size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        try {
          fn(slot, i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->done_mutex);
          if (!state->first_error) {
            state->first_error = std::current_exception();
          }
          // Drain the rest of the range so other drivers stop quickly.
          state->next.store(count, std::memory_order_relaxed);
          break;
        }
      }
      std::lock_guard<std::mutex> lock(state->done_mutex);
      if (--state->drivers_left == 0) state->done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(state->done_mutex);
  state->done.wait(lock, [&] { return state->drivers_left == 0; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace bigindex

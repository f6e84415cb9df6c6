// Span recording for bench_e2e's traced runs.
//
// Every layer boundary the bench can see from outside the library gets a
// span: the client's round trip, the front service (TcpServer's callee), each
// worker service, each coordinator fan-out call, and the update hooks around
// LiveUpdater. Spans go to per-thread buffers (one uncontended mutex per
// buffer) and are collected once the load has stopped.
//
// The recorder is always installed; it records only while recording() is on,
// so untraced runs pay one relaxed atomic load per layer crossing.

#ifndef BENCH_E2E_SPANS_H_
#define BENCH_E2E_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bench_e2e {

/// Monotonic nanoseconds (steady_clock); every span and latency sample in the
/// bench uses this one clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kClientRead,    // client round trip of one query line
  kClientUpdate,  // client update, start = scheduled send time
  kFront,         // front service Query (mono SearchService or coordinator)
  kFrontUpdate,   // front service ApplyUpdate
  kWorker,        // shard worker service Query
  kFanout,        // coordinator -> RemoteSubstrate::Query for one shard
  kBoundary,      // coordinator -> RemoteSubstrate::Boundary for one shard
  kApply,         // LiveUpdater::Apply inside the bench's updater hook
  kSwap,          // SearchService::SwapEngine inside the bench's swap hook
};

const char* SpanName(SpanKind kind);

/// Algorithm slot for spans; kNoAlgorithm for spans without one.
inline constexpr uint8_t kNoAlgorithm = 255;

/// One recorded interval. The generic fields' meaning depends on the kind:
///   client:  conn = connection id, seq = request number on it;
///            ms[0] = writer lateness (kClientUpdate).
///   front / worker: seq = request number on the serving thread, epoch and
///            key identify the cache entry, wall_ms = engine wall of the
///            returned result, evaluated = first sighting of that result,
///            ms[0..3] = explore / specialize / generate / verify,
///            count[0..3] = generalized / pruned / candidate roots / answers.
///   fanout:  key = address of the EngineQuery the coordinator passed (one
///            request's calls share it), count[3] = answers returned.
///   apply:   ms[0..3] = configure / generalize / correspondence / refine
///            summed over layers, count[0..3] = patched / incremental /
///            wholesale / copied layers.
struct Span {
  SpanKind kind = SpanKind::kClientRead;
  bool ok = true;
  bool evaluated = false;
  uint8_t algorithm = kNoAlgorithm;
  uint8_t layer = 0;
  uint32_t thread = 0;  // recorder buffer index, stable per OS thread
  uint32_t shard = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t conn = 0;
  uint64_t seq = 0;
  uint64_t epoch = 0;
  uint64_t key = 0;
  double wall_ms = 0;
  double ms[4] = {0, 0, 0, 0};
  uint32_t count[4] = {0, 0, 0, 0};

  double DurationMs() const { return (end_ns - start_ns) / 1e6; }
  bool Contains(const Span& inner) const {
    return start_ns <= inner.start_ns && inner.end_ns <= end_ns;
  }
};

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void SetRecording(bool on) {
    recording_.store(on, std::memory_order_release);
  }
  bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  /// Appends to the calling thread's buffer (stamping span.thread) when
  /// recording; no-op otherwise.
  void Record(Span span);

  /// Every buffered span, ordered by start time.
  std::vector<Span> Collect() const;

  /// Drops every buffered span.
  void Clear();

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<Span> spans;
    uint32_t index = 0;
  };
  Buffer& Local();

  std::atomic<bool> recording_{false};
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Writes `spans` as chrome://tracing JSON ("X" events, microseconds).
/// `request_of[i]` is the request id "conn:seq" spans[i] was attributed to
/// (empty = none): client and front spans by lockstep order, deeper spans by
/// time containment.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<std::string>& request_of);

}  // namespace bench_e2e

#endif  // BENCH_E2E_SPANS_H_

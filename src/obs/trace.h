// Scoped-span tracing with per-thread ring buffers and a chrome://tracing
// JSON dump.
//
//   TRACE_SPAN("bisim/compute");       // RAII: records [ctor, dtor)
//
// Disabled (the default) a span is one relaxed atomic load and a branch —
// no clock read, no store, nothing visible to the hot path. Enabled, the
// constructor reads the monotonic clock and the destructor appends one
// fixed-size event to the calling thread's ring buffer under that buffer's
// (uncontended) mutex. Rings hold the most recent kRingCapacity events per
// thread; older events are overwritten and counted as dropped.
//
// Span names must be string literals (the tracer stores the pointer, not a
// copy) and follow the `layer/phase` taxonomy documented in
// docs/OBSERVABILITY.md. Nesting needs no bookkeeping: chrome://tracing
// nests complete ("ph":"X") events of one thread by time containment.
//
// DumpJson() output loads directly in chrome://tracing or
// https://ui.perfetto.dev: save it to a file and open it.

#ifndef BIGINDEX_OBS_TRACE_H_
#define BIGINDEX_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bigindex {
namespace internal {

/// Process-wide tracing switch, inline so the disabled check compiles to a
/// load + branch at every span site. Flip through Tracer, not directly.
inline std::atomic<bool> g_trace_enabled{false};

/// Microseconds on the steady clock since the first call (one epoch for the
/// whole process, so spans from different threads share a timeline).
uint64_t TraceNowMicros();

}  // namespace internal

/// Process-wide collector of span events.
class Tracer {
 public:
  /// Events each thread's ring holds before the oldest are overwritten.
  static constexpr size_t kRingCapacity = 8192;

  static Tracer& Global();

  /// Enables/disables span recording everywhere. Cheap to toggle at any
  /// time; spans already open record on close only if tracing is still
  /// enabled when they opened (they carry their own decision).
  void SetEnabled(bool enabled) {
    internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
  }
  static bool Enabled() {
    return internal::g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// Appends one completed span for the calling thread. Called by TraceSpan;
  /// rarely useful directly.
  void Append(const char* name, uint64_t start_us, uint64_t dur_us);

  /// All buffered events as a chrome://tracing JSON document
  /// ({"traceEvents":[...]}, complete events, µs timestamps). Single line —
  /// safe to ship over the line protocol.
  std::string DumpJson() const;

  /// Drops all buffered events (the buffers themselves persist).
  void Clear();

  struct Stats {
    bool enabled = false;
    size_t threads = 0;   // threads that ever recorded a span
    size_t events = 0;    // events currently buffered
    uint64_t dropped = 0; // events overwritten by ring wrap-around
  };
  Stats GetStats() const;

 private:
  struct Event {
    const char* name;
    uint64_t start_us;
    uint64_t dur_us;
  };
  struct ThreadBuffer {
    mutable std::mutex mutex;
    uint32_t tid = 0;
    std::vector<Event> ring;  // capacity kRingCapacity once first used
    size_t next = 0;          // ring cursor
    uint64_t total = 0;       // events ever appended
  };

  ThreadBuffer& BufferForThisThread();

  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span. Decides at construction whether tracing is on; a disabled
/// span's destructor is a branch on a member.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(Tracer::Enabled() ? name : nullptr) {
    if (name_ != nullptr) start_us_ = internal::TraceNowMicros();
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer::Global().Append(name_, start_us_,
                              internal::TraceNowMicros() - start_us_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_us_ = 0;
};

}  // namespace bigindex

#define BIGINDEX_TRACE_CONCAT_(a, b) a##b
#define BIGINDEX_TRACE_CONCAT(a, b) BIGINDEX_TRACE_CONCAT_(a, b)

/// Opens a span covering the rest of the enclosing scope.
#define TRACE_SPAN(name) \
  ::bigindex::TraceSpan BIGINDEX_TRACE_CONCAT(bigindex_trace_span_, \
                                              __COUNTER__)(name)

#endif  // BIGINDEX_OBS_TRACE_H_

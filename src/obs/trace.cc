#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace bigindex {
namespace internal {

uint64_t TraceNowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch)
          .count());
}

}  // namespace internal

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
  return *tracer;                        // append during static teardown
}

struct Tracer::ThreadHolder {
  Tracer* tracer = nullptr;
  ThreadBuffer* buffer = nullptr;

  ~ThreadHolder() {
    if (buffer == nullptr) return;
    std::lock_guard<std::mutex> lock(tracer->buffers_mutex_);
    tracer->free_.push_back(buffer);
    buffer = nullptr;  // a span closed later in this thread's exit pops
                       // its own buffer, never one another thread holds
  }
};

Tracer::ThreadBuffer& Tracer::BufferForThisThread() {
  thread_local ThreadHolder holder;
  if (holder.buffer == nullptr) {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    holder.tracer = this;
    if (!free_.empty()) {
      holder.buffer = free_.back();
      free_.pop_back();
    } else {
      auto buffer = std::make_unique<ThreadBuffer>();
      buffer->tid = static_cast<uint32_t>(buffers_.size() + 1);
      holder.buffer = buffer.get();
      buffers_.push_back(std::move(buffer));
    }
  }
  return *holder.buffer;
}

void Tracer::Append(const char* name, uint64_t start_us, uint64_t dur_us) {
  ThreadBuffer& buffer = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.ring.size() < kRingCapacity) {
    buffer.ring.push_back({name, start_us, dur_us});
  } else {
    buffer.ring[buffer.next] = {name, start_us, dur_us};
    buffer.next = (buffer.next + 1) % kRingCapacity;
  }
  ++buffer.total;
}

namespace {

/// Span names are compile-time literals under our control, but escape
/// anyway so a stray quote can never corrupt the document.
void AppendJsonString(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

std::string Tracer::DumpJson() const {
  // Snapshot each buffer under its own lock; events keep arriving on other
  // threads while we dump, which is fine — a dump is a moment's view.
  struct Snapshot {
    uint32_t tid;
    std::vector<Event> events;
  };
  std::vector<Snapshot> snapshots;
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    snapshots.reserve(buffers_.size());
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      snapshots.push_back({buffer->tid, buffer->ring});
    }
  }

  std::string out;
  out.reserve(256 + snapshots.size() * 64);
  out += R"({"displayTimeUnit":"ms","traceEvents":[)";
  bool first = true;
  char buf[96];
  for (const Snapshot& snap : snapshots) {
    for (const Event& e : snap.events) {
      if (!first) out += ',';
      first = false;
      out += R"({"name":)";
      AppendJsonString(out, e.name);
      std::snprintf(buf, sizeof(buf),
                    ",\"cat\":\"bigindex\",\"ph\":\"X\",\"ts\":%llu,"
                    "\"dur\":%llu,\"pid\":1,\"tid\":%u}",
                    static_cast<unsigned long long>(e.start_us),
                    static_cast<unsigned long long>(e.dur_us), snap.tid);
      out += buf;
    }
  }
  out += "]}";
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->ring.clear();
    buffer->next = 0;
    buffer->total = 0;
  }
}

Tracer::Stats Tracer::GetStats() const {
  Stats stats;
  stats.enabled = Enabled();
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  stats.threads = buffers_.size();
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    stats.events += buffer->ring.size();
    stats.dropped += buffer->total > buffer->ring.size()
                         ? buffer->total - buffer->ring.size()
                         : 0;
  }
  return stats;
}

}  // namespace bigindex

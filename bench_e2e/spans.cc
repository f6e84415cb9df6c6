#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace bench_e2e {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientRead: return "client/read";
    case SpanKind::kClientUpdate: return "client/update";
    case SpanKind::kFront: return "front/query";
    case SpanKind::kFrontUpdate: return "front/update";
    case SpanKind::kWorker: return "worker/query";
    case SpanKind::kFanout: return "shard/fanout";
    case SpanKind::kBoundary: return "shard/boundary";
    case SpanKind::kApply: return "update/apply";
    case SpanKind::kSwap: return "update/swap";
  }
  return "unknown";
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

SpanRecorder::Buffer& SpanRecorder::Local() {
  // Buffers live as long as the recorder (the whole process), so a thread's
  // cached pointer never dangles even after the thread exits.
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    local = buffers_.back().get();
    local->index = static_cast<uint32_t>(buffers_.size() - 1);
  }
  return *local;
}

void SpanRecorder::Record(Span span) {
  if (!recording()) return;
  Buffer& buffer = Local();
  span.thread = buffer.index;
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(span);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->spans.clear();
  }
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<std::string>& request_of) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"ok\":%d,\"shard\":%u",
                 i ? "," : "", SpanName(s.kind), s.thread,
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 s.ok ? 1 : 0, s.shard);
    if (i < request_of.size() && !request_of[i].empty()) {
      std::fprintf(out, ",\"req\":\"%s\"", request_of[i].c_str());
    }
    if (s.kind == SpanKind::kFront || s.kind == SpanKind::kWorker) {
      std::fprintf(out, ",\"evaluated\":%d,\"engine_ms\":%.4f,\"layer\":%u",
                   s.evaluated ? 1 : 0, s.wall_ms, s.layer);
    }
    std::fprintf(out, "}}");
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace bench_e2e

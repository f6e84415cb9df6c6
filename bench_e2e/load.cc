#include "load.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "spans.h"
#include "stack.h"

namespace bench_e2e {

using namespace bigindex;

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL + 0x9e3779b97f4a7c15ULL;
}

/// Stream ids: reader connections use 0..readers-1; these stay clear of them.
constexpr uint64_t kShuffleStream = 1ULL << 40;
constexpr uint64_t kWriterStream = 1ULL << 41;

bool IsOk(const StatusOr<std::vector<std::string>>& lines) {
  return lines.ok() && !lines->empty() && lines->front().starts_with("OK");
}

void SleepUntilNs(int64_t t) {
  const int64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

}  // namespace

StatusOr<KeyPool> MakeKeyPool(const Dataset& dataset, uint64_t seed,
                              size_t min_keys) {
  const size_t sets_needed =
      (min_keys + kAlgorithms.size() - 1) / kAlgorithms.size();
  QueryGenOptions opts;
  opts.min_count = 30;  // bench_util's floor, 3000 x scale, at scale 0.01
  // Draw 3x the sets needed: at yago3@0.01 over half the draws are new sets.
  const std::vector<size_t> mix = opts.sizes;
  opts.sizes.clear();
  while (opts.sizes.size() < 3 * sets_needed) {
    opts.sizes.insert(opts.sizes.end(), mix.begin(), mix.end());
  }
  std::set<std::vector<LabelId>> seen;
  std::vector<std::vector<LabelId>> sets;
  for (const QuerySpec& spec : GenerateQueryWorkload(dataset, opts)) {
    EngineQuery q{.keywords = spec.keywords};
    q.NormalizeKeywords();
    if (seen.insert(q.keywords).second) sets.push_back(q.keywords);
    if (sets.size() == sets_needed) break;
  }
  if (sets.size() < sets_needed) {
    return Status::FailedPrecondition(
        "query generator produced only " + std::to_string(sets.size()) +
        " distinct keyword sets, need " + std::to_string(sets_needed));
  }

  KeyPool pool;
  pool.sample = sets.front();
  for (const auto& keywords : sets) {
    for (const char* algorithm : kAlgorithms) {
      pool.queries.push_back({.keywords = keywords,
                              .algorithm = algorithm,
                              .eval = {.top_k = 10}});
    }
  }
  Rng rng(Mix(seed, kShuffleStream));
  for (size_t i = pool.queries.size(); i > 1; --i) {
    std::swap(pool.queries[i - 1], pool.queries[rng.Uniform(i)]);
  }
  for (const EngineQuery& q : pool.queries) {
    pool.lines.push_back(FormatQueryLine(q));
  }
  return pool;
}

DrawStream::DrawStream(const LoadSpec& spec, uint64_t seed, uint64_t conn)
    : rng_(Mix(seed, conn)), sampler_(spec.key_count, spec.zipf ? 1.0 : 0.0) {}

WriterPlan::WriterPlan(const Graph& graph, uint64_t seed)
    : edges_(graph.Edges()), rng_(Mix(seed, kWriterStream)) {}

GraphUpdate WriterPlan::Next() {
  if (!removed_) current_ = edges_[rng_.Uniform(edges_.size())];
  removed_ = !removed_;
  return {removed_ ? GraphUpdate::Kind::kRemoveEdge
                   : GraphUpdate::Kind::kAddEdge,
          current_.first, current_.second};
}

uint64_t RequestSequenceHash(const KeyPool& pool, const LoadSpec& spec,
                             const Graph& graph, uint64_t seed, size_t n) {
  uint64_t h = 0;
  for (size_t c = 0; c < spec.readers; ++c) {
    DrawStream stream(spec, seed, c);
    for (size_t i = 0; i < n; ++i) {
      h = Mix(h, std::hash<std::string>{}(pool.lines[stream.Next()]));
    }
  }
  if (spec.write_hz > 0) {
    WriterPlan plan(graph, seed);
    for (size_t i = 0; i < n; ++i) {
      const GraphUpdate op = plan.Next();
      h = Mix(Mix(Mix(h, static_cast<uint64_t>(op.kind)), op.source),
              op.target);
    }
  }
  return h;
}

Status WarmKeys(uint16_t port, const KeyPool& pool,
                const std::vector<size_t>& keys) {
  const size_t conns = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<size_t> cursor{0};
  std::mutex error_mutex;
  Status error = Status::OK();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      ProtocolClient client("127.0.0.1", port);
      for (size_t i = cursor++; i < keys.size(); i = cursor++) {
        auto lines = client.Request(pool.lines[keys[i]]);
        if (!IsOk(lines)) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (error.ok()) {
            error = lines.ok() ? Status::IOError("warm: " + lines->front())
                               : lines.status();
          }
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return error;
}

LoadResult RunLoad(uint16_t port, const KeyPool& pool, const LoadSpec& spec,
                   const Graph& graph, uint64_t seed, double seconds,
                   const std::function<void()>& at_split) {
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9);
  std::atomic<int64_t> start_ns{0};  // 0 until every connection is up
  std::atomic<size_t> ready{0};
  auto await_start = [&] {
    ++ready;
    while (start_ns.load() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return start_ns.load();
  };

  struct Reader {
    std::deque<float> read_ms;
    uint64_t failed = 0;
    uint64_t first_half = 0;
  };
  std::vector<Reader> readers(spec.readers);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.readers; ++c) {
    threads.emplace_back([&, c] {
      Reader& me = readers[c];
      ProtocolClient client("127.0.0.1", port);
      (void)client.Connect();
      const int64_t start = await_start();
      const int64_t split = start + window_ns / 2;
      const int64_t end = start + window_ns;
      DrawStream stream(spec, seed, c);
      for (uint64_t seq = 0;; ++seq) {
        const int64_t t0 = NowNs();
        if (t0 >= end) break;
        auto lines = client.Request(pool.lines[stream.Next()]);
        const int64_t t1 = NowNs();
        const bool ok = IsOk(lines);
        me.read_ms.push_back(ok ? static_cast<float>((t1 - t0) / 1e6)
                                : std::numeric_limits<float>::infinity());
        if (!ok) ++me.failed;
        if (ok && t0 < split) ++me.first_half;
        if (t0 >= split) {
          Span span;
          span.kind = SpanKind::kClientRead;
          span.ok = ok;
          span.conn = c;
          span.seq = seq;
          span.start_ns = t0;
          span.end_ns = t1;
          SpanRecorder::Get().Record(span);
        }
      }
    });
  }

  LoadResult result;
  if (spec.write_hz > 0) {
    threads.emplace_back([&] {
      ProtocolClient client("127.0.0.1", port);
      (void)client.Connect();
      const int64_t start = await_start();
      const int64_t split = start + window_ns / 2;
      const int64_t period_ns = static_cast<int64_t>(1e9 / spec.write_hz);
      WriterPlan plan(graph, seed);
      for (uint64_t i = 0;; ++i) {
        const int64_t due = start + static_cast<int64_t>(i) * period_ns;
        if (due >= start + window_ns) break;
        SleepUntilNs(due);
        const int64_t sent = NowNs();
        const GraphUpdate op = plan.Next();
        auto lines = client.Request(
            FormatUpdateLine(std::span<const GraphUpdate>(&op, 1)));
        const int64_t done = NowNs();
        const bool ok = IsOk(lines);
        result.late_ms.push_back((sent - due) / 1e6);
        ++result.attempted;
        if (ok) {
          result.ops.push_back(op);
        } else {
          ++result.failed;
        }
        if (due >= split) {
          Span span;
          span.kind = SpanKind::kClientUpdate;
          span.ok = ok;
          span.conn = spec.readers;
          span.seq = i;
          span.start_ns = due;
          span.end_ns = done;
          span.ms[0] = (sent - due) / 1e6;
          SpanRecorder::Get().Record(span);
        }
      }
    });
  }

  while (ready.load() < threads.size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const int64_t start = NowNs();
  start_ns.store(start);
  SleepUntilNs(start + window_ns / 2);
  if (at_split) at_split();
  SleepUntilNs(start + window_ns);
  for (auto& t : threads) t.join();

  const struct mallinfo2 heap = mallinfo2();
  result.heap_mb = static_cast<double>(heap.uordblks + heap.hblkhd) / (1 << 20);
  for (Reader& r : readers) {
    result.read_ms.insert(result.read_ms.end(), r.read_ms.begin(),
                          r.read_ms.end());
    result.attempted += r.read_ms.size();
    result.failed += r.failed;
    result.reads_first_half += r.first_half;
  }
  return result;
}

}  // namespace bench_e2e

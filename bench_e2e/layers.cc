#include "layers.h"

#include <algorithm>
#include <map>
#include <set>

#include "stack.h"

namespace bench_e2e {

using namespace bigindex;

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

struct Mean {
  double sum = 0;
  size_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double Get() const { return n ? sum / static_cast<double>(n) : 0; }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Indices of the spans of kind a or b, grouped by recorder thread; each
/// group is in start order because `spans` is.
std::map<uint32_t, std::vector<size_t>> ByThread(const std::vector<Span>& spans,
                                                 SpanKind a, SpanKind b) {
  std::map<uint32_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind == a || spans[i].kind == b) {
      groups[spans[i].thread].push_back(i);
    }
  }
  return groups;
}

/// The span of `group` (one thread, lockstep, so non-overlapping) that
/// contains `inner`, or kNone.
size_t Containing(const std::vector<Span>& spans,
                  const std::vector<size_t>& group, const Span& inner) {
  auto it = std::upper_bound(
      group.begin(), group.end(), inner.start_ns,
      [&](int64_t t, size_t i) { return t < spans[i].start_ns; });
  if (it == group.begin()) return kNone;
  const size_t candidate = *(it - 1);
  return spans[candidate].Contains(inner) ? candidate : kNone;
}

std::string RequestId(const Span& client) {
  return std::to_string(client.conn) + ":" + std::to_string(client.seq);
}

/// Pairs each front span with the client span of the same request. A
/// connection's k-th request is the k-th request on the serving thread that
/// owns the connection; which connection a thread owns is found by time
/// containment of its spans. Returns front index -> client index.
std::vector<size_t> PairClientAndFront(const std::vector<Span>& spans) {
  std::map<std::pair<uint64_t, uint64_t>, size_t> client;
  std::set<uint64_t> conns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.kind == SpanKind::kClientRead || s.kind == SpanKind::kClientUpdate) {
      client[{s.conn, s.seq}] = i;
      conns.insert(s.conn);
    }
  }
  std::vector<size_t> pair_of(spans.size(), kNone);
  for (const auto& [thread, group] :
       ByThread(spans, SpanKind::kFront, SpanKind::kFrontUpdate)) {
    std::vector<uint64_t> candidates(conns.begin(), conns.end());
    for (size_t f : group) {
      if (candidates.size() <= 1) break;
      std::vector<uint64_t> keep;
      for (uint64_t c : candidates) {
        auto it = client.find({c, spans[f].seq});
        if (it != client.end() && spans[it->second].Contains(spans[f])) {
          keep.push_back(c);
        }
      }
      if (!keep.empty()) candidates = std::move(keep);
    }
    if (candidates.size() != 1) continue;
    for (size_t f : group) {
      auto it = client.find({candidates[0], spans[f].seq});
      if (it != client.end() && spans[it->second].Contains(spans[f])) {
        pair_of[f] = it->second;
      }
    }
  }
  return pair_of;
}

void AddServerAndEngine(const TracedWindow& w,
                        const std::vector<size_t>& pair_of, Report& report,
                        std::vector<std::string>* request_of) {
  const std::vector<Span>& spans = w.spans;
  Mean wire;
  std::vector<double> front_ms;
  for (size_t f = 0; f < spans.size(); ++f) {
    if (pair_of[f] == kNone) continue;
    const Span& client = spans[pair_of[f]];
    (*request_of)[f] = (*request_of)[pair_of[f]] = RequestId(client);
    if (spans[f].kind != SpanKind::kFront) continue;
    wire.Add(client.DurationMs() - spans[f].DurationMs());
    front_ms.push_back(spans[f].DurationMs());
  }
  Mean front;
  for (double ms : front_ms) front.Add(ms);

  // The SearchService that evaluates: the front when monolithic, the
  // workers when sharded.
  const SpanKind eval_kind = w.sharded ? SpanKind::kWorker : SpanKind::kFront;
  std::vector<const Span*> evaluated;
  for (const Span& s : spans) {
    if (s.kind == eval_kind && s.ok && s.evaluated) evaluated.push_back(&s);
  }
  Mean queue, phase[4], per_algorithm[kAlgorithms.size()];
  std::vector<double> wall_ms;
  double generalized = 0, pruned = 0, candidates = 0, answers = 0;
  size_t at_layer[kLayers + 1] = {};
  for (const Span* s : evaluated) {
    queue.Add(s->DurationMs() - s->wall_ms);
    wall_ms.push_back(s->wall_ms);
    if (s->algorithm < kAlgorithms.size()) {
      per_algorithm[s->algorithm].Add(s->wall_ms);
    }
    for (size_t i = 0; i < 4; ++i) phase[i].Add(s->ms[i]);
    generalized += s->count[0];
    pruned += s->count[1];
    candidates += s->count[2];
    answers += s->count[3];
    ++at_layer[std::min<size_t>(s->layer, kLayers)];
  }
  Mean wall;
  for (double ms : wall_ms) wall.Add(ms);

  // Per epoch, the first evaluated blinks result after the swap that opened
  // it: the cost of rebuilding per-graph indexes on a fresh engine.
  std::vector<double> first_after_swap;
  std::set<uint64_t> swapped_epochs;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kSwap) swapped_epochs.insert(s.epoch);
  }
  const uint8_t blinks = AlgorithmSlot("blinks");
  for (const Span* s : evaluated) {
    if (s->algorithm == blinks && swapped_epochs.erase(s->epoch) > 0) {
      first_after_swap.push_back(s->wall_ms);
    }
  }

  const ServiceStats& fd = w.front_delta;
  const ServiceStats& ed = w.eval_delta;
  report.Add("server.wire_mean_ms", wire.Get(), "ms", wire.n);
  report.AddSamples("server.front_mean_ms", front.Get(), "ms", front_ms);
  report.AddSamples("server.front_p99_ms", Percentile(front_ms, 0.99), "ms",
                    front_ms);
  report.Add("server.queue_mean_ms", queue.Get(), "ms", queue.n);
  report.Add("server.cache_hit_ratio",
             Ratio(fd.cache_hits, fd.cache_hits + fd.cache_misses), "ratio",
             fd.cache_hits + fd.cache_misses);
  report.Add("server.cache_evictions", fd.cache_evictions, "count");
  report.Add("server.mean_batch", Ratio(ed.batched_queries, ed.batches),
             "count", ed.batches);
  report.Add("server.rejected", ed.rejected_overload, "count");

  report.Add("engine.evaluated", evaluated.size(), "count");
  report.AddSamples("engine.eval_mean_ms", wall.Get(), "ms", wall_ms);
  report.AddSamples("engine.eval_p99_ms", Percentile(wall_ms, 0.99), "ms",
                    wall_ms);
  for (size_t a = 0; a < kAlgorithms.size(); ++a) {
    report.Add(std::string("engine.") + kAlgorithms[a] + ".eval_mean_ms",
               per_algorithm[a].Get(), "ms", per_algorithm[a].n);
  }
  const char* phases[4] = {"explore", "specialize", "generate", "verify"};
  for (size_t i = 0; i < 4; ++i) {
    report.Add(std::string("engine.") + phases[i] + "_mean_ms",
               phase[i].Get(), "ms", phase[i].n);
  }
  for (size_t l = 0; l <= kLayers; ++l) {
    report.Add("engine.layer" + std::to_string(l) + "_frac",
               Ratio(at_layer[l], evaluated.size()), "ratio",
               evaluated.size());
  }
  report.Add("engine.pruned_frac", Ratio(pruned, generalized), "ratio",
             evaluated.size());
  report.Add("engine.answers_per_candidate", Ratio(answers, candidates),
             "ratio", evaluated.size());
  report.AddSamples("engine.first_eval_after_swap_ms",
                    Median(first_after_swap), "ms", first_after_swap);
}

void AddUpdate(const TracedWindow& w, Report& report,
               std::vector<std::string>* request_of) {
  // The write path runs on the connection thread that received the update.
  const auto updates =
      ByThread(w.spans, SpanKind::kFrontUpdate, SpanKind::kFrontUpdate);
  for (size_t i = 0; i < w.spans.size(); ++i) {
    const Span& s = w.spans[i];
    auto group = updates.find(s.thread);
    if ((s.kind != SpanKind::kApply && s.kind != SpanKind::kSwap) ||
        group == updates.end()) {
      continue;
    }
    const size_t front = Containing(w.spans, group->second, s);
    if (front != kNone) (*request_of)[i] = (*request_of)[front];
  }

  std::vector<double> client_ms, apply_ms;
  Mean client, apply, swap, step[4];
  double layers[4] = {0, 0, 0, 0};
  for (const Span& s : w.spans) {
    if (s.kind == SpanKind::kClientUpdate && s.ok) {
      client_ms.push_back(s.DurationMs());
      client.Add(s.DurationMs());
    } else if (s.kind == SpanKind::kApply && s.ok) {
      apply_ms.push_back(s.DurationMs());
      apply.Add(s.DurationMs());
      for (size_t i = 0; i < 4; ++i) {
        step[i].Add(s.ms[i]);
        layers[i] += s.count[i];
      }
    } else if (s.kind == SpanKind::kSwap) {
      swap.Add(s.DurationMs());
    }
  }
  double maintain = 0;
  for (const Mean& m : step) maintain += m.Get();

  report.AddSamples("update.client_p50_ms", Percentile(client_ms, 0.5), "ms",
                    client_ms);
  report.AddSamples("update.client_p95_ms", Percentile(client_ms, 0.95), "ms",
                    client_ms);
  report.AddSamples("update.apply_mean_ms", apply.Get(), "ms", apply_ms);
  report.AddSamples("update.apply_p95_ms", Percentile(apply_ms, 0.95), "ms",
                    apply_ms);
  report.Add("update.queue_mean_ms", client.Get() - apply.Get(), "ms",
             client.n);
  const char* steps[4] = {"configure", "generalize", "correspondence",
                          "refine"};
  for (size_t i = 0; i < 4; ++i) {
    report.Add(std::string("update.") + steps[i] + "_mean_ms", step[i].Get(),
               "ms", step[i].n);
  }
  report.Add("update.swap_mean_ms", swap.Get(), "ms", swap.n);
  report.Add("update.other_mean_ms",
             apply.n ? apply.Get() - maintain - swap.Get() : 0, "ms", apply.n);
  const char* modes[4] = {"patched", "incremental", "wholesale", "copied"};
  for (size_t i = 0; i < 4; ++i) {
    report.Add(std::string("update.") + modes[i] + "_layers", layers[i],
               "count");
  }
  report.Add("update.epochs", swap.n, "count");
}

void AddShard(const TracedWindow& w, Report& report,
              std::vector<std::string>* request_of) {
  const std::vector<Span>& spans = w.spans;
  const auto fronts = ByThread(spans, SpanKind::kFront, SpanKind::kFront);

  // One request's fan-out calls share the address of the EngineQuery the
  // coordinator passes them, and each connection thread reuses one address.
  // Vote each address to the front thread whose spans contain its calls.
  std::map<uint64_t, std::map<uint32_t, size_t>> votes;
  for (const Span& f : spans) {
    if (f.kind != SpanKind::kFanout) continue;
    for (const auto& [thread, group] : fronts) {
      if (Containing(spans, group, f) != kNone) ++votes[f.key][thread];
    }
  }
  struct Group {
    int64_t first = 0, last = 0;
    double answers = 0;
  };
  std::map<size_t, Group> fanout_of;  // front span index -> its calls
  std::vector<std::vector<size_t>> calls_of(w.num_shards);  // by start
  Mean call, boundary;
  double fetched = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.kind == SpanKind::kBoundary) boundary.Add(s.DurationMs());
    if (s.kind != SpanKind::kFanout) continue;
    call.Add(s.DurationMs());
    fetched += s.count[3];
    if (s.shard < calls_of.size()) calls_of[s.shard].push_back(i);
    auto vote = votes.find(s.key);
    if (vote == votes.end()) continue;
    const uint32_t owner =
        std::max_element(vote->second.begin(), vote->second.end(),
                         [](const auto& a, const auto& b) {
                           return a.second < b.second;
                         })
            ->first;
    const size_t front = Containing(spans, fronts.at(owner), s);
    if (front == kNone) continue;
    (*request_of)[i] = (*request_of)[front];
    auto [it, fresh] = fanout_of.try_emplace(front, Group{s.start_ns, s.end_ns});
    it->second.first = std::min(it->second.first, s.start_ns);
    it->second.last = std::max(it->second.last, s.end_ns);
    it->second.answers += s.count[3];
  }

  // A worker request runs inside the fan-out call that sent it: of the calls
  // to its shard that contain it, the one that ends first (later ones were
  // queued behind it on the shard's single connection).
  Mean worker, wire;
  std::vector<double> busy(w.num_shards, 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.kind != SpanKind::kWorker || s.shard >= calls_of.size()) continue;
    worker.Add(s.DurationMs());
    busy[s.shard] += s.DurationMs();
    const std::vector<size_t>& calls = calls_of[s.shard];
    auto it = std::upper_bound(
        calls.begin(), calls.end(), s.start_ns,
        [&](int64_t t, size_t c) { return t < spans[c].start_ns; });
    size_t sender = kNone;
    for (int look = 0; it != calls.begin() && look < 64; ++look) {
      const size_t c = *--it;
      if (spans[c].Contains(s) &&
          (sender == kNone || spans[c].end_ns < spans[sender].end_ns)) {
        sender = c;
      }
    }
    if (sender == kNone) continue;
    wire.Add(spans[sender].DurationMs() - s.DurationMs());
    (*request_of)[i] = (*request_of)[sender];
  }

  Mean fanout_wall, coord_self;
  double kept = 0, grouped_fetched = 0;
  for (const auto& [front, group] : fanout_of) {
    const double wall = (group.last - group.first) / 1e6;
    fanout_wall.Add(wall);
    coord_self.Add(spans[front].DurationMs() - wall);
    kept += spans[front].count[3];
    grouped_fetched += group.answers;
  }
  size_t front_reads = 0;
  for (const auto& [thread, group] : fronts) front_reads += group.size();
  double busy_max = 0, busy_sum = 0;
  for (double b : busy) {
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }

  report.Add("shard.fanout_wall_mean_ms", fanout_wall.Get(), "ms",
             fanout_wall.n);
  report.Add("shard.coord_self_mean_ms", coord_self.Get(), "ms",
             coord_self.n);
  report.Add("shard.fanout_wire_mean_ms", wire.Get(), "ms", wire.n);
  report.Add("shard.fanout_calls_per_query", Ratio(call.n, front_reads),
             "count", front_reads);
  report.Add("shard.answers_per_fanout", Ratio(fetched, call.n), "count",
             call.n);
  report.Add("shard.fetched_per_answer", Ratio(grouped_fetched, kept), "ratio",
             fanout_of.size());
  report.Add("shard.boundary_vertex_frac", w.boundary_vertex_frac, "ratio");
  report.Add("shard.imbalance",
             busy.empty() ? 0 : Ratio(busy_max, busy_sum / busy.size()),
             "ratio", worker.n);
  report.Add("shard.boundary_calls", boundary.n, "count");
  report.Add("shard.boundary_mean_ms", boundary.Get(), "ms", boundary.n);
  report.Add("worker.front_mean_ms", worker.Get(), "ms", worker.n);
  const ServiceStats& ed = w.eval_delta;
  report.Add("worker.cache_hit_ratio",
             w.sharded ? Ratio(ed.cache_hits, ed.cache_hits + ed.cache_misses)
                       : 0,
             "ratio", ed.cache_hits + ed.cache_misses);
}

}  // namespace

ServiceStats StatsDelta(const ServiceStats& after, const ServiceStats& before) {
  ServiceStats d;
  d.rejected_overload = after.rejected_overload - before.rejected_overload;
  d.batches = after.batches - before.batches;
  d.batched_queries = after.batched_queries - before.batched_queries;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.cache_evictions = after.cache_evictions - before.cache_evictions;
  return d;
}

void AddPerLayerMetrics(const TracedWindow& window, Report& report,
                        std::vector<std::string>* request_of) {
  request_of->assign(window.spans.size(), std::string());
  const std::vector<size_t> pair_of = PairClientAndFront(window.spans);
  AddServerAndEngine(window, pair_of, report, request_of);
  AddUpdate(window, report, request_of);
  AddShard(window, report, request_of);
  // The read tail moves with host load by more than any end-to-end bound
  // would allow (see README), so it is reported here.
  report.AddSamples("client.read_p90_ms", Percentile(window.read_ms, 0.9),
                    "ms", window.read_ms);
  report.AddSamples("client.read_p99_ms", Percentile(window.read_ms, 0.99),
                    "ms", window.read_ms);
  report.Add("gen.requests", window.requests, "count");
  report.AddSamples("gen.late_p95_ms", Percentile(window.late_ms, 0.95), "ms",
                    window.late_ms);
  report.Add("trace.overhead_frac",
             1 - Ratio(window.traced_qps, window.untraced_qps), "ratio");
}

}  // namespace bench_e2e

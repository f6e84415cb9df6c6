#include "search/rclique.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>

#include "search/keyword_cones.h"

namespace bigindex {
namespace {

/// One Lawler search space: a candidate set per keyword position. Pinned
/// positions are singletons.
struct SearchSpace {
  std::vector<std::vector<VertexId>> sets;
};

/// A scored candidate answer (one pick per keyword).
struct Candidate {
  std::vector<VertexId> picks;
  uint32_t weight = 0;
  bool valid = false;
};

/// Deterministic ordering: smaller weight first, then lexicographic picks.
bool CandidateLess(const Candidate& a, const Candidate& b) {
  if (a.weight != b.weight) return a.weight < b.weight;
  return a.picks < b.picks;
}

/// Greedy 2-approximate best answer of a search space (Kargar & An):
/// anchor on the smallest candidate set; for each anchor vertex pick the
/// nearest member of every other set; keep the best fully-valid candidate
/// (all pairwise distances <= r).
class BestAnswerFinder {
 public:
  BestAnswerFinder(const Graph& g, const NeighborIndex& index, uint32_t r,
                   QueryContext& ctx)
      : index_(index),
        r_(r),
        position_mask_(ctx.ZeroedVertexArray(0, g.NumVertices())),
        touched_(ctx.VertexScratch(0)) {}

  Candidate Find(const SearchSpace& space, RCliqueStats* stats) {
    const size_t nq = space.sets.size();
    Candidate best;

    // Anchor position: smallest candidate set.
    size_t anchor = 0;
    for (size_t i = 1; i < nq; ++i) {
      if (space.sets[i].size() < space.sets[anchor].size()) anchor = i;
    }

    // Mark membership of every vertex in every non-anchor position.
    touched_.clear();
    for (size_t i = 0; i < nq; ++i) {
      if (i == anchor) continue;
      for (VertexId v : space.sets[i]) {
        if (position_mask_[v] == 0) touched_.push_back(v);
        position_mask_[v] |= (1u << i);
      }
    }

    std::vector<VertexId>& nearest = nearest_;
    std::vector<uint32_t>& nearest_dist = nearest_dist_;
    for (VertexId u : space.sets[anchor]) {
      nearest.assign(nq, kInvalidVertex);
      nearest_dist.assign(nq, kInfDistance);
      nearest[anchor] = u;
      nearest_dist[anchor] = 0;
      // One scan of u's r-neighborhood covers every other position.
      for (const auto& [v, d] : index_.Neighborhood(u)) {
        uint32_t mask = position_mask_[v];
        while (mask) {
          size_t i = static_cast<size_t>(std::countr_zero(mask));
          mask &= mask - 1;
          if (d < nearest_dist[i] ||
              (d == nearest_dist[i] && v < nearest[i])) {
            nearest_dist[i] = d;
            nearest[i] = v;
          }
        }
      }
      bool covered = true;
      for (size_t i = 0; i < nq; ++i) {
        if (nearest[i] == kInvalidVertex) {
          covered = false;
          break;
        }
      }
      if (!covered) continue;

      if (stats) ++stats->candidates_scored;
      Candidate cand;
      cand.picks = nearest;
      cand.valid = true;
      for (size_t i = 0; i < nq && cand.valid; ++i) {
        for (size_t j = i + 1; j < nq; ++j) {
          uint32_t d = index_.Distance(cand.picks[i], cand.picks[j]);
          if (d == kInfDistance || d > r_) {
            cand.valid = false;
            break;
          }
          cand.weight += d;
        }
      }
      if (cand.valid && (!best.valid || CandidateLess(cand, best))) {
        best = std::move(cand);
      }
    }

    for (VertexId v : touched_) position_mask_[v] = 0;

    // The greedy anchor scan can miss valid assignments: the nearest picks
    // per position may be pairwise-invalid while farther picks are valid.
    // Dropping such a space from the Lawler heap would silently lose every
    // answer inside it (and with it exactness of full enumeration), so when
    // the greedy finds nothing we fall back to an exact branch-and-bound.
    if (!best.valid) best = ExactBest(space, stats);
    return best;
  }

 private:
  /// Exact minimum (by CandidateLess) valid assignment of a search space,
  /// or an invalid candidate when none exists. Smallest-set-first position
  /// order, prefix pairwise pruning, and a weight bound keep the
  /// branch-and-bound cheap; it only runs when the greedy failed.
  Candidate ExactBest(const SearchSpace& space, RCliqueStats* stats) {
    const size_t nq = space.sets.size();
    std::vector<size_t> order(nq);
    for (size_t i = 0; i < nq; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return space.sets[a].size() < space.sets[b].size();
    });
    Candidate best;
    std::vector<VertexId> picks(nq, kInvalidVertex);
    auto recurse = [&](auto&& self, size_t depth, uint32_t weight) -> void {
      // Remaining picks only add nonnegative distance, so a partial weight
      // strictly above the incumbent cannot win (ties still can, on picks).
      if (best.valid && weight > best.weight) return;
      if (depth == nq) {
        if (stats) ++stats->candidates_scored;
        Candidate c;
        c.picks = picks;
        c.weight = weight;
        c.valid = true;
        if (!best.valid || CandidateLess(c, best)) best = std::move(c);
        return;
      }
      size_t pos = order[depth];
      for (VertexId v : space.sets[pos]) {
        uint32_t add = 0;
        bool ok = true;
        for (size_t j = 0; j < depth; ++j) {
          uint32_t d = index_.Distance(picks[order[j]], v);
          if (d == kInfDistance || d > r_) {
            ok = false;
            break;
          }
          add += d;
        }
        if (!ok) continue;
        picks[pos] = v;
        self(self, depth + 1, weight + add);
      }
    };
    recurse(recurse, 0, 0);
    return best;
  }

  const NeighborIndex& index_;
  uint32_t r_;
  // Per-vertex mask and its touched list, borrowed from the QueryContext
  // (zeroed at acquisition; Find() restores the zeros via touched_).
  std::vector<uint32_t>& position_mask_;
  std::vector<VertexId>& touched_;
  std::vector<VertexId> nearest_;
  std::vector<uint32_t> nearest_dist_;
};

Answer CandidateToAnswer(const Candidate& c) {
  Answer a;
  a.keyword_vertices = c.picks;
  a.vertices = c.picks;
  a.score = c.weight;
  a.root = kInvalidVertex;
  CanonicalizeAnswer(a);
  return a;
}

}  // namespace

StatusOr<NeighborIndex> NeighborIndex::Build(const Graph& g, uint32_t r,
                                             size_t memory_budget_bytes) {
  NeighborIndex index;
  const size_t n = g.NumVertices();
  index.offsets_.assign(n + 1, 0);
  const size_t entry_size = sizeof(std::pair<VertexId, uint32_t>);

  std::vector<uint32_t> dist(n, kInfDistance);
  std::vector<VertexId> queue;
  std::vector<std::pair<VertexId, uint32_t>> local;
  const CsrView out = g.Out(), in = g.In();
  for (VertexId s = 0; s < n; ++s) {
    // Undirected bounded BFS from s (excluding s itself).
    local.clear();
    queue.clear();
    dist[s] = 0;
    queue.push_back(s);
    size_t head = 0;
    while (head < queue.size()) {
      VertexId v = queue[head++];
      uint32_t d = dist[v];
      if (d >= r) break;
      auto visit = [&](VertexId w) {
        if (dist[w] != kInfDistance) return;
        dist[w] = d + 1;
        queue.push_back(w);
        local.emplace_back(w, d + 1);
      };
      const auto oi = out[v];
      for (uint64_t i = oi.begin; i < oi.end; ++i) visit(out.Slot(i));
      const auto ii = in[v];
      for (uint64_t i = ii.begin; i < ii.end; ++i) visit(in.Slot(i));
    }
    for (VertexId v : queue) dist[v] = kInfDistance;  // reset

    std::sort(local.begin(), local.end());
    index.entries_.insert(index.entries_.end(), local.begin(), local.end());
    index.offsets_[s + 1] = index.entries_.size();

    if (index.entries_.size() * entry_size > memory_budget_bytes) {
      return Status::FailedPrecondition(
          "neighbor index exceeds memory budget (the r-clique neighbor list "
          "is O(|V| * m̄); see Sec. 6.2 on IMDB)");
    }
  }
  return index;
}

uint32_t NeighborIndex::Distance(VertexId u, VertexId v) const {
  if (u == v) return 0;
  auto nbh = Neighborhood(u);
  auto it = std::lower_bound(
      nbh.begin(), nbh.end(), v,
      [](const std::pair<VertexId, uint32_t>& e, VertexId x) {
        return e.first < x;
      });
  if (it == nbh.end() || it->first != v) return kInfDistance;
  return it->second;
}

size_t NeighborIndex::EstimateMemoryBytes(const Graph& g, uint32_t r,
                                          size_t samples, Rng& rng) {
  const size_t n = g.NumVertices();
  if (n == 0 || samples == 0) return 0;
  std::vector<uint32_t> dist(n, kInfDistance);
  std::vector<VertexId> queue;
  size_t total = 0;
  const CsrView out = g.Out(), in = g.In();
  for (size_t i = 0; i < samples; ++i) {
    VertexId s = static_cast<VertexId>(rng.Uniform(n));
    queue.clear();
    dist[s] = 0;
    queue.push_back(s);
    size_t head = 0;
    while (head < queue.size()) {
      VertexId v = queue[head++];
      uint32_t d = dist[v];
      if (d >= r) break;
      auto visit = [&](VertexId w) {
        if (dist[w] != kInfDistance) return;
        dist[w] = d + 1;
        queue.push_back(w);
      };
      const auto oi = out[v];
      for (uint64_t i = oi.begin; i < oi.end; ++i) visit(out.Slot(i));
      const auto ii = in[v];
      for (uint64_t i = ii.begin; i < ii.end; ++i) visit(in.Slot(i));
    }
    total += queue.size() - 1;
    for (VertexId v : queue) dist[v] = kInfDistance;
  }
  double avg = static_cast<double>(total) / samples;
  return static_cast<size_t>(avg * n *
                             sizeof(std::pair<VertexId, uint32_t>));
}

std::vector<Answer> RCliqueSearch(const Graph& g, const NeighborIndex& index,
                                  const std::vector<LabelId>& keywords,
                                  const RCliqueOptions& options,
                                  QueryContext& ctx, RCliqueStats* stats) {
  std::vector<Answer> answers;
  const size_t nq = keywords.size();
  if (nq == 0 || nq > kMaxKeywords || g.NumVertices() == 0) return answers;

  SearchSpace root_space;
  root_space.sets.reserve(nq);
  for (LabelId q : keywords) {
    auto vs = g.VerticesWithLabel(q);
    if (vs.empty()) return answers;
    root_space.sets.emplace_back(vs.begin(), vs.end());
  }

  BestAnswerFinder finder(g, index, options.r, ctx);

  struct QueueEntry {
    Candidate best;
    SearchSpace space;
  };
  auto entry_greater = [](const QueueEntry& a, const QueueEntry& b) {
    return CandidateLess(b.best, a.best);  // min-heap by candidate order
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      decltype(entry_greater)>
      spaces(entry_greater);

  if (stats) ++stats->spaces_explored;
  Candidate first = finder.Find(root_space, stats);
  if (first.valid) spaces.push({std::move(first), std::move(root_space)});

  const size_t want = options.top_k == 0 ? SIZE_MAX : options.top_k;
  while (!spaces.empty() && answers.size() < want) {
    QueueEntry entry =
        std::move(const_cast<QueueEntry&>(spaces.top()));
    spaces.pop();
    answers.push_back(CandidateToAnswer(entry.best));

    // Lawler decomposition: pin positions < i to the emitted picks, exclude
    // the emitted pick at position i, keep tails intact. Subspaces are
    // pairwise disjoint and their union is the parent minus the answer.
    for (size_t i = 0; i < nq; ++i) {
      SearchSpace sub;
      sub.sets.reserve(nq);
      for (size_t j = 0; j < i; ++j) {
        sub.sets.push_back({entry.best.picks[j]});
      }
      std::vector<VertexId> restricted = entry.space.sets[i];
      restricted.erase(std::remove(restricted.begin(), restricted.end(),
                                   entry.best.picks[i]),
                       restricted.end());
      if (restricted.empty()) continue;
      sub.sets.push_back(std::move(restricted));
      for (size_t j = i + 1; j < nq; ++j) {
        sub.sets.push_back(entry.space.sets[j]);
      }
      if (stats) ++stats->spaces_explored;
      Candidate best = finder.Find(sub, stats);
      if (best.valid) spaces.push({std::move(best), std::move(sub)});
    }
  }
  return answers;
}

std::vector<Answer> RCliqueSearch(const Graph& g, const NeighborIndex& index,
                                  const std::vector<LabelId>& keywords,
                                  const RCliqueOptions& options,
                                  RCliqueStats* stats) {
  QueryContext ctx;
  return RCliqueSearch(g, index, keywords, options, ctx, stats);
}

std::vector<Answer> RCliqueEnumerateAll(const Graph& g,
                                        const NeighborIndex& index,
                                        const std::vector<LabelId>& keywords,
                                        uint32_t r) {
  std::vector<Answer> answers;
  const size_t nq = keywords.size();
  if (nq == 0 || g.NumVertices() == 0) return answers;
  std::vector<std::span<const VertexId>> sets;
  for (LabelId q : keywords) {
    sets.push_back(g.VerticesWithLabel(q));
    if (sets.back().empty()) return answers;
  }

  std::vector<VertexId> picks(nq);
  // Depth-first product with prefix pairwise pruning.
  auto recurse = [&](auto&& self, size_t depth, uint32_t weight) -> void {
    if (depth == nq) {
      Candidate c;
      c.picks = picks;
      c.weight = weight;
      c.valid = true;
      answers.push_back(CandidateToAnswer(c));
      return;
    }
    for (VertexId v : sets[depth]) {
      uint32_t add = 0;
      bool ok = true;
      for (size_t j = 0; j < depth; ++j) {
        uint32_t d = index.Distance(picks[j], v);
        if (d == kInfDistance || d > r) {
          ok = false;
          break;
        }
        add += d;
      }
      if (!ok) continue;
      picks[depth] = v;
      self(self, depth + 1, weight + add);
    }
  };
  recurse(recurse, 0, 0);
  SortAnswers(answers);
  return answers;
}

std::vector<Answer> RCliqueAlgorithm::Evaluate(const Graph& g,
                                               const std::vector<LabelId>& keywords,
                                               QueryContext& ctx) const {
  const NeighborIndex* index =
      cache_.GetOrBuild(g, [&]() -> std::unique_ptr<NeighborIndex> {
        auto built =
            NeighborIndex::Build(g, options_.r, options_.memory_budget_bytes);
        if (!built.ok()) return nullptr;
        return std::make_unique<NeighborIndex>(std::move(built).value());
      });
  if (index == nullptr) return {};  // infeasible index: no answers (see docs)
  return RCliqueSearch(g, *index, keywords, options_, ctx);
}

std::optional<Answer> RCliqueAlgorithm::VerifyCandidate(
    const Graph& g, const std::vector<LabelId>& keywords,
    const Answer& candidate, QueryContext& ctx) const {
  const size_t nq = keywords.size();
  if (candidate.keyword_vertices.size() != nq) return std::nullopt;
  for (size_t i = 0; i < nq; ++i) {
    if (g.label(candidate.keyword_vertices[i]) != keywords[i]) {
      return std::nullopt;
    }
  }

  BallCache& cache = ctx.Balls();
  cache.SwitchTo(&g, options_.r);
  if (cache.balls.size() > 2048) cache.balls.clear();
  std::vector<VertexId>& queue = ctx.VertexScratch(0);
  auto ball_of = [&](VertexId u)
      -> const std::unordered_map<VertexId, uint32_t>& {
    auto it = cache.balls.find(u);
    if (it != cache.balls.end()) return it->second;
    // One bounded undirected BFS per distinct keyword vertex; every pairwise
    // check against it becomes a hash lookup.
    std::unordered_map<VertexId, uint32_t> ball;
    queue.clear();
    queue.push_back(u);
    ball.emplace(u, 0);
    size_t head = 0;
    const CsrView out = g.Out(), in = g.In();
    while (head < queue.size()) {
      VertexId x = queue[head++];
      uint32_t d = ball[x];
      if (d >= options_.r) break;
      auto visit = [&](VertexId w) {
        if (ball.emplace(w, d + 1).second) queue.push_back(w);
      };
      const auto oi = out[x];
      for (uint64_t i = oi.begin; i < oi.end; ++i) visit(out.Slot(i));
      const auto ii = in[x];
      for (uint64_t i = ii.begin; i < ii.end; ++i) visit(in.Slot(i));
    }
    return cache.balls.emplace(u, std::move(ball)).first->second;
  };

  Answer a;
  a.keyword_vertices = candidate.keyword_vertices;
  a.vertices = candidate.keyword_vertices;
  a.root = kInvalidVertex;
  for (size_t i = 0; i < nq; ++i) {
    const auto& ball = ball_of(a.keyword_vertices[i]);
    for (size_t j = i + 1; j < nq; ++j) {
      auto it = ball.find(a.keyword_vertices[j]);
      if (it == ball.end() || it->second > options_.r) return std::nullopt;
      a.score += it->second;
    }
  }
  CanonicalizeAnswer(a);
  return a;
}

}  // namespace bigindex

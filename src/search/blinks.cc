#include "search/blinks.h"

#include <algorithm>
#include <cassert>

#include "search/bkws.h"

namespace bigindex {
namespace {

/// A lazily expanded backward BFS cone for one keyword: level L is expanded
/// on demand; after ExpandLevel() returns, every vertex at distance <=
/// frontier_dist() from the keyword set is discovered with its exact
/// distance, witness keyword vertex, and next hop. Per-vertex arrays are
/// borrowed from a context ConeScratch (clean on entry, released by the
/// search when done).
class LazyCone {
 public:
  LazyCone(const Graph& g, LabelId keyword, uint32_t d_max, ConeScratch& s)
      : in_(g.In()), d_max_(d_max), s_(s) {
    for (VertexId v : g.VerticesWithLabel(keyword)) {
      s_.dist[v] = 0;
      s_.witness[v] = v;
      s_.parent[v] = v;
      s_.queue.push_back(v);
    }
    level_end_ = s_.queue.size();
  }

  uint32_t frontier_dist() const { return frontier_dist_; }
  bool Exhausted() const {
    return frontier_dist_ >= d_max_ || head_ >= s_.queue.size();
  }

  /// Expands one BFS level. Returns the vertices newly discovered.
  std::span<const VertexId> ExpandLevel(size_t* popped) {
    size_t new_begin = s_.queue.size();
    while (head_ < level_end_) {
      VertexId v = s_.queue[head_++];
      if (popped) ++(*popped);
      const auto [begin, end] = in_[v];
      for (uint64_t i = begin; i < end; ++i) {
        VertexId u = in_.Slot(i);
        if (s_.dist[u] != kInfDistance) continue;
        s_.dist[u] = frontier_dist_ + 1;
        s_.witness[u] = s_.witness[v];
        s_.parent[u] = v;
        s_.queue.push_back(u);
      }
    }
    ++frontier_dist_;
    level_end_ = s_.queue.size();
    return {s_.queue.data() + new_begin, s_.queue.size() - new_begin};
  }

  uint32_t dist(VertexId v) const { return s_.dist[v]; }
  VertexId witness(VertexId v) const { return s_.witness[v]; }

  /// Appends the path from root toward its witness (excludes root).
  void AppendPath(VertexId root, std::vector<VertexId>& out) const {
    VertexId v = root;
    while (v != s_.witness[v]) {
      v = s_.parent[v];
      out.push_back(v);
    }
  }

  void Release() { s_.Release(); }

 private:
  const CsrView in_;
  uint32_t d_max_;
  ConeScratch& s_;
  size_t head_ = 0;
  size_t level_end_ = 0;
  uint32_t frontier_dist_ = 0;
};

}  // namespace

std::vector<Answer> BlinksSearch(const Graph& g,
                                 const std::vector<LabelId>& keywords,
                                 const BlinksOptions& options,
                                 QueryContext& ctx, BlinksStats* stats) {
  std::vector<Answer> answers;
  const size_t nq = keywords.size();
  if (nq == 0 || g.NumVertices() == 0) return answers;
  assert(nq <= 32 && "keyword mask is 32 bits");

  std::vector<LazyCone> cones;
  cones.reserve(nq);
  for (size_t i = 0; i < nq; ++i) {
    cones.emplace_back(g, keywords[i], options.d_max,
                       ctx.Cone(i, g.NumVertices()));
  }

  // Per-vertex bookkeeping for partial roots.
  std::vector<uint32_t>& known_mask = ctx.ZeroedVertexArray(0, g.NumVertices());
  std::vector<uint32_t>& sum_known = ctx.ZeroedVertexArray(1, g.NumVertices());
  const uint32_t full_mask =
      nq == 32 ? 0xFFFFFFFFu : ((1u << nq) - 1);
  std::vector<VertexId>& partial = ctx.VertexScratch(0);   // >=1 cone, not complete
  std::vector<VertexId>& complete = ctx.VertexScratch(1);  // all cones (answer roots)

  BlinksStats local_stats;
  BlinksStats& st = stats ? *stats : local_stats;

  auto record_discovery = [&](size_t cone_idx, VertexId v) {
    bool was_virgin = known_mask[v] == 0;
    known_mask[v] |= (1u << cone_idx);
    sum_known[v] += cones[cone_idx].dist(v);
    if (known_mask[v] == full_mask) {
      complete.push_back(v);
    } else if (was_virgin) {
      partial.push_back(v);
    }
  };

  // Seed: level-0 vertices are already in the cones; register them.
  for (size_t i = 0; i < nq; ++i) {
    for (VertexId v : g.VerticesWithLabel(keywords[i])) {
      record_discovery(i, v);
    }
  }

  // Round-robin expansion, smallest frontier first (He et al.'s strategy of
  // advancing the least-advanced cursor keeps the lower bound tight).
  const bool want_topk = options.top_k != 0;
  while (true) {
    // Early termination: the k best complete roots beat every possible
    // future or incomplete root.
    if (want_topk && complete.size() >= options.top_k) {
      // kth best score among complete roots.
      std::vector<uint32_t>& scores = ctx.VertexScratch(2);
      scores.reserve(complete.size());
      for (VertexId v : complete) scores.push_back(sum_known[v]);
      std::nth_element(scores.begin(), scores.begin() + options.top_k - 1,
                       scores.end());
      uint32_t kth = scores[options.top_k - 1];

      // Lower bound over roots never discovered by cone i: dist_i >= f_i+1.
      uint64_t lb_virgin = 0;
      for (const LazyCone& cone : cones) {
        lb_virgin += cone.frontier_dist() + 1;
      }
      // Lower bound over partially discovered roots.
      uint64_t lb_partial = UINT64_MAX;
      for (VertexId v : partial) {
        if (known_mask[v] == full_mask) continue;  // completed meanwhile
        uint64_t lb = sum_known[v];
        for (size_t j = 0; j < nq; ++j) {
          if (!(known_mask[v] >> j & 1)) lb += cones[j].frontier_dist() + 1;
        }
        lb_partial = std::min(lb_partial, lb);
      }
      // Strict: at lb == kth a future root could tie the kth score and win
      // the deterministic tie-break, so only stop when strictly better.
      if (kth < std::min(lb_virgin, lb_partial)) {
        st.early_terminated = true;
        break;
      }
    }

    // Pick the non-exhausted cone with the smallest frontier distance.
    size_t pick = nq;
    for (size_t i = 0; i < nq; ++i) {
      if (cones[i].Exhausted()) continue;
      if (pick == nq ||
          cones[i].frontier_dist() < cones[pick].frontier_dist()) {
        pick = i;
      }
    }
    if (pick == nq) break;  // all exhausted: results are exact and complete

    auto fresh = cones[pick].ExpandLevel(&st.vertices_popped);
    ++st.levels_expanded;
    for (VertexId v : fresh) record_discovery(pick, v);
  }

  // Materialize answers from complete roots.
  answers.reserve(complete.size());
  for (VertexId r : complete) {
    Answer a;
    a.root = r;
    a.score = sum_known[r];
    a.vertices.push_back(r);
    for (const LazyCone& cone : cones) {
      a.keyword_vertices.push_back(cone.witness(r));
      if (options.materialize_paths) {
        cone.AppendPath(r, a.vertices);
      } else {
        a.vertices.push_back(cone.witness(r));
      }
    }
    CanonicalizeAnswer(a);
    answers.push_back(std::move(a));
  }
  for (LazyCone& cone : cones) cone.Release();

  SortAnswers(answers);
  if (want_topk && answers.size() > options.top_k) {
    answers.resize(options.top_k);
  }
  return answers;
}

std::vector<Answer> BlinksSearch(const Graph& g,
                                 const std::vector<LabelId>& keywords,
                                 const BlinksOptions& options,
                                 BlinksStats* stats) {
  QueryContext ctx;
  return BlinksSearch(g, keywords, options, ctx, stats);
}

std::vector<Answer> BlinksAlgorithm::Evaluate(
    const Graph& g, const std::vector<LabelId>& keywords,
    QueryContext& ctx) const {
  return BlinksSearch(g, keywords, options_, ctx);
}

std::optional<Answer> BlinksAlgorithm::VerifyCandidate(
    const Graph& g, const std::vector<LabelId>& keywords,
    const Answer& candidate, QueryContext& ctx) const {
  return CompleteRootedAnswer(g, keywords, candidate.root, options_.d_max,
                              options_.materialize_paths, ctx);
}

}  // namespace bigindex

#include "search/keyword_cones.h"

#include <algorithm>
#include <utility>

namespace bigindex {

KeywordCones::KeywordCones(const Graph& g, const std::vector<LabelId>& keywords,
                           uint32_t d_max, QueryContext& ctx)
    : in_(g.In()), out_(g.Out()), d_max_(d_max) {
  const size_t nq = keywords.size();
  if (nq == 0 || nq > kMaxKeywords || g.NumVertices() == 0) return;
  for (LabelId keyword : keywords) {
    if (g.VerticesWithLabel(keyword).empty()) return;
  }
  size_ = nq;
  for (size_t i = 0; i < nq; ++i) {
    ConeScratch& s = ctx.Cone(i, g.NumVertices());
    for (VertexId v : g.VerticesWithLabel(keywords[i])) {
      s.dist[v] = 0;
      s.queue.push_back(v);
    }
    cones_[i] = &s;
    cursors_[i] = {0, s.queue.size(), 0};
  }
}

KeywordCones::~KeywordCones() {
  for (size_t i = 0; i < size_; ++i) cones_[i]->Release();
}

std::span<const VertexId> KeywordCones::Frontier(size_t i) const {
  const Cursor& c = cursors_[i];
  return {cones_[i]->queue.data() + c.head, c.end - c.head};
}

std::span<const VertexId> KeywordCones::ExpandLevel(size_t i) {
  ConeScratch& s = *cones_[i];
  Cursor& c = cursors_[i];
  const uint32_t d = c.level + 1;
  for (size_t h = c.head; h < c.end; ++h) {
    // Backward: u -> v means u reaches the keyword through v.
    const auto [begin, end] = in_[s.queue[h]];
    for (uint64_t idx = begin; idx < end; ++idx) {
      const VertexId u = in_.Slot(idx);
      if (s.dist[u] == kInfDistance) {
        s.dist[u] = d;
        s.queue.push_back(u);
      }
    }
  }
  c = {c.end, s.queue.size(), d};
  return Frontier(i);
}

VertexId KeywordCones::Witness(size_t i, VertexId v) const {
  ConeScratch& s = *cones_[i];
  if (s.dist[v] == 0) return v;
  if (s.witness[v] != kInvalidVertex) return s.witness[v];
  // Post-order over the shortest-path DAG below v: a frame is resolved once
  // every next hop is, and an unresolved next hop is walked first, its edge
  // revisited after it. Distances fall by one per frame, so no vertex is
  // ever on the stack twice.
  stack_.push_back({v, out_[v].begin});
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    const uint32_t hop_dist = s.dist[f.v] - 1;
    const uint64_t end = out_[f.v].end;
    for (; f.next < end; ++f.next) {
      const VertexId u = out_.Slot(f.next);
      if (s.dist[u] != hop_dist) continue;
      const VertexId w = hop_dist == 0 ? u : s.witness[u];
      if (w == kInvalidVertex) break;
      if (std::pair(w, u) < std::pair(f.witness, f.hop)) {
        f.witness = w;
        f.hop = u;
      }
    }
    if (f.next < end) {
      const VertexId u = out_.Slot(f.next);
      stack_.push_back({u, out_[u].begin});  // invalidates f
      continue;
    }
    s.witness[f.v] = f.witness;
    s.parent[f.v] = f.hop;
    s.resolved.push_back(f.v);
    stack_.pop_back();
  }
  return s.witness[v];
}

std::vector<Answer> KeywordCones::Answers(size_t top_k) const {
  std::vector<Answer> answers;
  if (size_ == 0) return answers;
  // A root is reached by every cone, so the smallest cone's touched list is
  // a superset of the roots.
  size_t smallest = 0;
  for (size_t i = 1; i < size_; ++i) {
    if (cones_[i]->queue.size() < cones_[smallest]->queue.size()) {
      smallest = i;
    }
  }
  // (score, root) packed into one key: roots are unique, so key order is
  // AnswerLess order, and only the roots that make the cut are assembled.
  std::vector<uint64_t> ranked;
  for (VertexId r : cones_[smallest]->queue) {
    uint32_t score = 0;
    bool complete = true;
    for (size_t i = 0; i < size_ && complete; ++i) {
      complete = Reached(i, r);
      if (complete) score += dist(i, r);
    }
    if (complete) ranked.push_back(uint64_t{score} << 32 | r);
  }
  if (top_k != 0 && ranked.size() > top_k) {
    std::nth_element(ranked.begin(), ranked.begin() + top_k, ranked.end());
    ranked.resize(top_k);
  }
  std::sort(ranked.begin(), ranked.end());
  answers.reserve(ranked.size());
  for (uint64_t key : ranked) {
    Answer a;
    a.root = static_cast<VertexId>(key);
    a.score = static_cast<uint32_t>(key >> 32);
    a.vertices.push_back(a.root);
    for (size_t i = 0; i < size_; ++i) {
      a.keyword_vertices.push_back(Witness(i, a.root));
      const ConeScratch& s = *cones_[i];
      for (VertexId v = a.root; s.dist[v] != 0;) {
        v = s.parent[v];
        a.vertices.push_back(v);
      }
    }
    CanonicalizeAnswer(a);
    answers.push_back(std::move(a));
  }
  return answers;
}

std::optional<Answer> CompleteRootedAnswer(
    const Graph& g, const std::vector<LabelId>& keywords, VertexId root,
    uint32_t d_max, QueryContext& ctx) {
  if (root >= g.NumVertices() || keywords.empty()) return std::nullopt;
  const size_t nq = keywords.size();

  // Forward bounded BFS from the root with parent tracking.
  ConeScratch& s = ctx.Cone(0, g.NumVertices());
  struct Lease {
    ConeScratch& s;
    ~Lease() { s.Release(); }
  } lease{s};
  s.dist[root] = 0;
  s.parent[root] = root;
  s.queue.push_back(root);
  // Best (dist, vertex) per keyword, tie-broken by smallest vertex id.
  auto& best = ctx.BestPerKeyword();
  best.assign(nq, {kInfDistance, kInvalidVertex});
  auto consider = [&](VertexId v, uint32_t d) {
    LabelId l = g.label(v);
    for (size_t i = 0; i < nq; ++i) {
      if (keywords[i] == l && std::make_pair(d, v) < best[i]) {
        best[i] = {d, v};
      }
    }
  };
  consider(root, 0);
  const CsrView out = g.Out();
  size_t head = 0;
  while (head < s.queue.size()) {
    VertexId v = s.queue[head++];
    uint32_t d = s.dist[v];
    if (d >= d_max) continue;
    const auto [begin, end] = out[v];
    for (uint64_t i = begin; i < end; ++i) {
      VertexId w = out.Slot(i);
      if (s.dist[w] != kInfDistance) continue;
      s.dist[w] = d + 1;
      s.parent[w] = v;
      consider(w, d + 1);
      s.queue.push_back(w);
    }
  }
  for (const auto& [d, v] : best) {
    if (d == kInfDistance) return std::nullopt;
  }

  Answer a;
  a.root = root;
  a.vertices.push_back(root);
  for (const auto& [d, v] : best) {
    a.score += d;
    a.keyword_vertices.push_back(v);
    for (VertexId x = v; x != root; x = s.parent[x]) a.vertices.push_back(x);
  }
  CanonicalizeAnswer(a);
  return a;
}

}  // namespace bigindex

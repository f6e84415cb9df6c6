#include "search/keyword_cones.h"

#include <utility>

namespace bigindex {

KeywordCones::KeywordCones(const Graph& g, const std::vector<LabelId>& keywords,
                           uint32_t d_max, QueryContext& ctx)
    : in_(g.In()), d_max_(d_max) {
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
      s.witness[v] = v;
      s.parent[v] = v;
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
    const VertexId v = s.queue[h];
    const VertexId w = s.witness[v];
    // Backward: u -> v means u reaches the keyword through v.
    const auto [begin, end] = in_[v];
    for (uint64_t idx = begin; idx < end; ++idx) {
      const VertexId u = in_.Slot(idx);
      if (s.dist[u] == kInfDistance) {
        s.dist[u] = d;
        s.witness[u] = w;
        s.parent[u] = v;
        s.queue.push_back(u);
      } else if (s.dist[u] == d &&
                 std::pair(w, v) < std::pair(s.witness[u], s.parent[u])) {
        s.witness[u] = w;
        s.parent[u] = v;
      }
    }
  }
  c = {c.end, s.queue.size(), d};
  return Frontier(i);
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
  for (VertexId r : cones_[smallest]->queue) {
    uint32_t score = 0;
    bool complete = true;
    for (size_t i = 0; i < size_ && complete; ++i) {
      complete = Reached(i, r);
      if (complete) score += dist(i, r);
    }
    if (!complete) continue;
    Answer a;
    a.root = r;
    a.score = score;
    a.vertices.push_back(r);
    for (size_t i = 0; i < size_; ++i) {
      const ConeScratch& s = *cones_[i];
      a.keyword_vertices.push_back(s.witness[r]);
      for (VertexId v = r; v != s.witness[v];) {
        v = s.parent[v];
        a.vertices.push_back(v);
      }
    }
    CanonicalizeAnswer(a);
    answers.push_back(std::move(a));
  }
  SortAnswers(answers);
  if (top_k != 0 && answers.size() > top_k) answers.resize(top_k);
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

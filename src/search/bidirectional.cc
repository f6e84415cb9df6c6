#include "search/bidirectional.h"

#include <array>
#include <utility>

#include "search/bkws.h"

namespace bigindex {
namespace {

/// Queries with more keywords are refused (no answers).
constexpr size_t kMaxKeywords = 32;

/// One keyword cone's level cursor. The cone's queue holds its vertices in
/// BFS order; queue[head, end) is the frontier at distance `level`, and
/// everything before `head` has been expanded.
struct ConeLevel {
  size_t head = 0;
  size_t end = 0;
  uint32_t level = 0;
  double activation = 0;  // base · decay^level
};

}  // namespace

std::vector<Answer> BidirectionalSearch(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const BidirectionalOptions& options,
                                        QueryContext& ctx,
                                        BidirectionalStats* stats) {
  std::vector<Answer> answers;
  const size_t nq = keywords.size();
  if (nq == 0 || nq > kMaxKeywords || g.NumVertices() == 0) return answers;

  // Per-cone distance tables from context scratch. Each queue is the cone's
  // FIFO and its touched list, so the invariant is restored in O(touched)
  // on every exit path.
  std::array<ConeScratch*, kMaxKeywords> cones{};
  for (size_t i = 0; i < nq; ++i) cones[i] = &ctx.Cone(i, g.NumVertices());
  struct ConeLease {
    std::array<ConeScratch*, kMaxKeywords>& cones;
    ~ConeLease() {
      for (ConeScratch* s : cones) {
        if (s != nullptr) s->Release();
      }
    }
  } lease{cones};

  std::array<ConeLevel, kMaxKeywords> levels;
  for (size_t i = 0; i < nq; ++i) {
    auto origins = g.VerticesWithLabel(keywords[i]);
    if (origins.empty()) return answers;  // some keyword is unmatchable
    ConeScratch& s = *cones[i];
    for (VertexId v : origins) {
      s.queue.push_back(v);
      s.dist[v] = 0;
      s.witness[v] = v;
      s.parent[v] = v;
    }
    // Spreading activation: a cone's origins share activation 1/|origins|.
    levels[i] = {0, s.queue.size(), 0,
                 1.0 / static_cast<double>(origins.size())};
  }

  // Activation decides the work order: the cone whose frontier carries the
  // most activation (ties to the lower index) expands one whole level, so
  // selective keywords grow first and hub-heavy cones wait. Exhaustive
  // within d_max, so the order never changes the result — only how soon
  // each root completes.
  //
  // Each cone's (dist, witness, parent) is the least fixed point over its
  // shortest-path DAG: dist is the BFS distance, and (witness, parent) is
  // the least (witness[v], v) over the DAG predecessors v. A "first
  // relaxation wins" tie-break would make the tree depend on expansion
  // order, which is not a component-local quantity — taking the least pair
  // makes it a pure function of the component, so sharded and monolithic
  // evaluation produce identical answers. Expanding a level at a time
  // reaches that fixed point in one pass: every vertex of level d is final
  // before level d is expanded, so nothing is pushed twice.
  const CsrView in = g.In();
  while (true) {
    size_t next = nq;
    for (size_t i = 0; i < nq; ++i) {
      const ConeLevel& c = levels[i];
      if (c.head == c.end || c.level >= options.d_max) continue;
      if (next == nq || c.activation > levels[next].activation) next = i;
    }
    if (next == nq) break;

    ConeScratch& s = *cones[next];
    ConeLevel& c = levels[next];
    const uint32_t d = c.level + 1;
    for (size_t h = c.head; h < c.end; ++h) {
      const VertexId v = s.queue[h];
      if (stats) {
        // Forward: another cone already reached v, so v is a candidate root.
        bool forward = false;
        for (size_t j = 0; j < nq && !forward; ++j) {
          forward = j != next && cones[j]->dist[v] != kInfDistance;
        }
        ++(forward ? stats->forward_pops : stats->backward_pops);
      }
      const VertexId w = s.witness[v];
      const auto [begin, end] = in[v];
      for (uint64_t idx = begin; idx < end; ++idx) {
        const VertexId u = in.Slot(idx);
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
    c = {c.end, s.queue.size(), d, c.activation * options.decay};
  }

  // A root is reached by every cone, so the smallest cone's touched list is
  // a superset of the roots; answer order is normalized below.
  size_t smallest = 0;
  for (size_t i = 1; i < nq; ++i) {
    if (cones[i]->queue.size() < cones[smallest]->queue.size()) smallest = i;
  }
  for (VertexId r : cones[smallest]->queue) {
    uint32_t score = 0;
    bool complete = true;
    for (size_t i = 0; i < nq; ++i) {
      if (cones[i]->dist[r] == kInfDistance) {
        complete = false;
        break;
      }
      score += cones[i]->dist[r];
    }
    if (!complete) continue;
    Answer a;
    a.root = r;
    a.score = score;
    a.vertices.push_back(r);
    for (size_t i = 0; i < nq; ++i) {
      const ConeScratch& s = *cones[i];
      a.keyword_vertices.push_back(s.witness[r]);
      if (options.materialize_paths) {
        VertexId v = r;
        while (v != s.witness[v]) {
          v = s.parent[v];
          a.vertices.push_back(v);
        }
      } else {
        a.vertices.push_back(s.witness[r]);
      }
    }
    CanonicalizeAnswer(a);
    answers.push_back(std::move(a));
  }

  SortAnswers(answers);
  if (options.top_k != 0 && answers.size() > options.top_k) {
    answers.resize(options.top_k);
  }
  return answers;
}

std::vector<Answer> BidirectionalSearch(const Graph& g,
                                        const std::vector<LabelId>& keywords,
                                        const BidirectionalOptions& options,
                                        BidirectionalStats* stats) {
  QueryContext ctx;
  return BidirectionalSearch(g, keywords, options, ctx, stats);
}

std::optional<Answer> BidirectionalAlgorithm::VerifyCandidate(
    const Graph& g, const std::vector<LabelId>& keywords,
    const Answer& candidate, QueryContext& ctx) const {
  return CompleteRootedAnswer(g, keywords, candidate.root, options_.d_max,
                              options_.materialize_paths, ctx);
}

}  // namespace bigindex

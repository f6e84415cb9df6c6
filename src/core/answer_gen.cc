#include "core/answer_gen.h"

#include <algorithm>
#include <numeric>

namespace bigindex {
namespace {

/// Directed adjacency of the generalized answer graph over positions:
/// fwd[p][q] iff (vertices[p] -> vertices[q]) is an edge of G^m.
struct AnswerTopology {
  size_t size = 0;
  std::vector<uint8_t> fwd;  // row-major size x size

  bool Fwd(size_t p, size_t q) const { return fwd[p * size + q] != 0; }
  bool Adjacent(size_t p, size_t q) const { return Fwd(p, q) || Fwd(q, p); }

  size_t UndirectedDegree(size_t p) const {
    size_t d = 0;
    for (size_t q = 0; q < size; ++q) {
      if (q != p && Adjacent(p, q)) ++d;
    }
    return d;
  }
};

AnswerTopology BuildTopology(const Graph& layer_graph,
                             const std::vector<VertexId>& vertices) {
  AnswerTopology topo;
  topo.size = vertices.size();
  topo.fwd.assign(topo.size * topo.size, 0);
  for (size_t p = 0; p < topo.size; ++p) {
    for (size_t q = 0; q < topo.size; ++q) {
      if (p != q && layer_graph.HasEdge(vertices[p], vertices[q])) {
        topo.fwd[p * topo.size + q] = 1;
      }
    }
  }
  return topo;
}

/// Checks Def 4.2's edge condition between an assigned position pair.
bool EdgesRealized(const Graph& g0, const AnswerTopology& topo, size_t p,
                   VertexId vp, size_t q, VertexId vq) {
  if (topo.Fwd(p, q) && !g0.HasEdge(vp, vq)) return false;
  if (topo.Fwd(q, p) && !g0.HasEdge(vq, vp)) return false;
  return true;
}

/// Converts a full position assignment into an Answer skeleton (score 0; the
/// evaluator verifies and scores exactly).
Answer AssignmentToAnswer(const SpecializedAnswer& spec,
                          const std::vector<VertexId>& assignment,
                          size_t num_keywords) {
  Answer a;
  a.vertices = assignment;
  a.keyword_vertices.assign(num_keywords, kInvalidVertex);
  for (size_t p = 0; p < assignment.size(); ++p) {
    int k = spec.keyword_of[p];
    if (k != kNoKeyword) a.keyword_vertices[k] = assignment[p];
  }
  a.root = spec.root_position >= 0 ? assignment[spec.root_position]
                                   : kInvalidVertex;
  CanonicalizeAnswer(a);
  return a;
}

}  // namespace

SpecializedAnswer SpecializeAnswer(const BigIndex& index,
                                   const Answer& generalized, size_t m,
                                   const std::vector<LabelId>& keywords) {
  SpecializedAnswer spec;
  spec.generalized = generalized;
  spec.layer = m;
  const size_t num_pos = generalized.vertices.size();
  spec.candidates.resize(num_pos);
  spec.keyword_of.assign(num_pos, kNoKeyword);

  for (size_t p = 0; p < num_pos; ++p) {
    VertexId gv = generalized.vertices[p];
    if (generalized.root != kInvalidVertex && gv == generalized.root) {
      spec.root_position = static_cast<int>(p);
    }
    for (size_t k = 0; k < generalized.keyword_vertices.size(); ++k) {
      if (generalized.keyword_vertices[k] == gv) {
        spec.keyword_of[p] = static_cast<int>(k);
        break;  // Def 4.1: generalized keywords are distinct labels
      }
    }

    // Layer-by-layer specialization (Algorithm 2 Step 2) with candidate
    // filtering for keyword nodes (Prop 4.1 / isKey of Sec. 4.3.1): a
    // specialized vertex survives only if its label equals the keyword's
    // generalization at that layer.
    std::vector<VertexId> current{gv};
    for (size_t l = m; l >= 1; --l) {
      std::vector<VertexId> next;
      for (VertexId u : current) {
        auto members = index.SpecializeVertex(u, l);
        next.insert(next.end(), members.begin(), members.end());
      }
      if (spec.keyword_of[p] != kNoKeyword) {
        LabelId want = index.GeneralizeLabel(
            keywords[spec.keyword_of[p]], l - 1);
        const Graph& lower = index.LayerGraph(l - 1);
        std::erase_if(next, [&](VertexId v) { return lower.label(v) != want; });
      }
      std::sort(next.begin(), next.end());
      current = std::move(next);
      if (current.empty()) break;
    }
    if (current.empty() && spec.keyword_of[p] != kNoKeyword) {
      spec.pruned_empty = true;
    }
    spec.candidates[p] = std::move(current);
  }
  return spec;
}

std::vector<VertexId> SpecializeRoot(const BigIndex& index, VertexId root,
                                     size_t m) {
  // Plain Bisim^-1 chain without keyword filtering.
  std::vector<VertexId> current{root};
  for (size_t l = m; l >= 1; --l) {
    std::vector<VertexId> next;
    for (VertexId u : current) {
      auto members = index.SpecializeVertex(u, l);
      next.insert(next.end(), members.begin(), members.end());
    }
    current = std::move(next);
  }
  std::sort(current.begin(), current.end());
  return current;
}

std::vector<Answer> GenerateAnswersVertexBased(const BigIndex& index,
                                               const SpecializedAnswer& spec,
                                               const AnswerGenOptions& options,
                                               AnswerGenStats* stats) {
  std::vector<Answer> out;
  const size_t num_pos = spec.candidates.size();
  if (num_pos == 0 || spec.pruned_empty) return out;
  for (const auto& c : spec.candidates) {
    if (c.empty()) return out;  // nothing can realize this position
  }
  const Graph& g0 = index.base();
  AnswerTopology topo =
      BuildTopology(index.LayerGraph(spec.layer), spec.generalized.vertices);

  // Specialization order (Sec. 4.3.2): ascending |χ^-1(a_i)|.
  std::vector<size_t> order(num_pos);
  std::iota(order.begin(), order.end(), 0);
  if (options.use_specialization_order) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return spec.candidates[a].size() < spec.candidates[b].size();
    });
  }

  // Partial answers: assignments over the full position range with
  // kInvalidVertex for not-yet-specialized positions (Algorithm 3's G_par).
  std::vector<std::vector<VertexId>> partials{
      std::vector<VertexId>(num_pos, kInvalidVertex)};
  for (size_t step = 0; step < num_pos && !partials.empty(); ++step) {
    size_t p = order[step];
    std::vector<std::vector<VertexId>> next;
    bool capped = false;
    for (const auto& partial : partials) {
      for (VertexId v : spec.candidates[p]) {
        bool ok = true;
        for (size_t t = 0; t < step && ok; ++t) {
          size_t q = order[t];
          ok = EdgesRealized(g0, topo, p, v, q, partial[q]);
        }
        if (!ok) continue;
        if (next.size() >= options.max_partial_answers) {
          capped = true;
          break;
        }
        next.push_back(partial);
        next.back()[p] = v;
        if (stats) ++stats->partial_answers_created;
      }
      if (capped) break;
    }
    if (capped && stats) ++stats->cap_hits;
    partials = std::move(next);
  }

  out.reserve(partials.size());
  for (const auto& assignment : partials) {
    out.push_back(AssignmentToAnswer(
        spec, assignment, spec.generalized.keyword_vertices.size()));
    if (stats) ++stats->realizations;
  }
  return out;
}

namespace {

/// One decomposition path: a sequence of positions. Consecutive positions
/// are adjacent in the answer topology; endpoints are joints, leaves, or
/// cycle break-points; singletons cover isolated positions.
using PositionPath = std::vector<size_t>;

/// Step 1 of Algorithm 4 (answer_decomposition): split the generalized
/// answer graph into paths at its joint vertices (undirected degree > 2).
std::vector<PositionPath> DecomposeIntoPaths(const AnswerTopology& topo) {
  const size_t n = topo.size;
  std::vector<size_t> degree(n);
  std::vector<uint8_t> is_endpoint(n, 0);
  for (size_t p = 0; p < n; ++p) {
    degree[p] = topo.UndirectedDegree(p);
    // Endpoints: leaves (deg <= 1) and joint vertices (deg > 2).
    is_endpoint[p] = degree[p] <= 1 || degree[p] > 2;
  }

  // used[p][q]: undirected edge (p, q) already covered by a path.
  std::vector<uint8_t> used(n * n, 0);
  auto mark = [&](size_t p, size_t q) {
    used[p * n + q] = used[q * n + p] = 1;
  };
  auto unused_neighbor = [&](size_t p) -> size_t {
    for (size_t q = 0; q < n; ++q) {
      if (q != p && topo.Adjacent(p, q) && !used[p * n + q]) return q;
    }
    return n;
  };

  std::vector<PositionPath> paths;
  auto walk_from = [&](size_t start) {
    for (size_t first = unused_neighbor(start); first != n;
         first = unused_neighbor(start)) {
      PositionPath path{start, first};
      mark(start, first);
      size_t cur = first;
      while (!is_endpoint[cur]) {
        size_t nxt = unused_neighbor(cur);
        if (nxt == n) break;  // closed back into the path
        mark(cur, nxt);
        path.push_back(nxt);
        cur = nxt;
      }
      paths.push_back(std::move(path));
    }
  };

  for (size_t p = 0; p < n; ++p) {
    if (is_endpoint[p]) walk_from(p);
  }
  // Leftover degree-2 cycles without endpoints: break at the smallest
  // position and walk around.
  for (size_t p = 0; p < n; ++p) {
    if (unused_neighbor(p) != n) walk_from(p);
  }
  // Isolated positions become singleton paths.
  for (size_t p = 0; p < n; ++p) {
    if (degree[p] == 0) paths.push_back({p});
  }
  return paths;
}

}  // namespace

std::vector<Answer> GenerateAnswersPathBased(const BigIndex& index,
                                             const SpecializedAnswer& spec,
                                             const AnswerGenOptions& options,
                                             AnswerGenStats* stats) {
  std::vector<Answer> out;
  const size_t num_pos = spec.candidates.size();
  if (num_pos == 0 || spec.pruned_empty) return out;
  for (const auto& c : spec.candidates) {
    if (c.empty()) return out;
  }
  const Graph& g0 = index.base();
  AnswerTopology topo =
      BuildTopology(index.LayerGraph(spec.layer), spec.generalized.vertices);
  std::vector<PositionPath> paths = DecomposeIntoPaths(topo);

  // Keyword-bearing, small-candidate paths first (Sec. 4.3.3: keyword paths
  // are selective and keep intermediate partial sets small).
  auto path_weight = [&](const PositionPath& path) {
    size_t total = 0;
    bool has_kw = false;
    for (size_t p : path) {
      total += spec.candidates[p].size();
      has_kw |= spec.keyword_of[p] != kNoKeyword;
    }
    return std::make_pair(has_kw ? 0 : 1, total);
  };
  if (options.use_specialization_order) {
    std::stable_sort(paths.begin(), paths.end(),
                     [&](const PositionPath& a, const PositionPath& b) {
                       return path_weight(a) < path_weight(b);
                     });
  }

  // Step 2: specialize one path at a time; Step 3: join partial answers at
  // joint vertices (Def 4.3 — shared positions must agree).
  std::vector<std::vector<VertexId>> partials{
      std::vector<VertexId>(num_pos, kInvalidVertex)};
  for (const PositionPath& path : paths) {
    // Realize this path: all concrete sequences respecting chain edges.
    std::vector<std::vector<VertexId>> seqs{{}};
    for (size_t step = 0; step < path.size(); ++step) {
      size_t p = path[step];
      std::vector<std::vector<VertexId>> next;
      for (const auto& seq : seqs) {
        for (VertexId v : spec.candidates[p]) {
          if (step > 0 &&
              !EdgesRealized(g0, topo, p, v, path[step - 1],
                             seq[step - 1])) {
            continue;
          }
          // Cycle paths revisit their break-point position: both visits
          // must pick the same concrete vertex.
          bool consistent = true;
          for (size_t t = 0; t < step && consistent; ++t) {
            if (path[t] == p) consistent = seq[t] == v;
          }
          if (!consistent) continue;
          if (next.size() >= options.max_partial_answers) break;
          next.push_back(seq);
          next.back().push_back(v);
          if (stats) ++stats->partial_answers_created;
        }
      }
      if (next.size() >= options.max_partial_answers && stats) {
        ++stats->cap_hits;
      }
      seqs = std::move(next);
      if (seqs.empty()) break;
    }
    if (seqs.empty()) return out;  // no realization of this path at all

    // Join with accumulated partials (Def 4.3 path qualification: agree on
    // already-assigned shared positions; they are joints by construction).
    std::vector<std::vector<VertexId>> joined;
    bool capped = false;
    for (const auto& partial : partials) {
      for (const auto& seq : seqs) {
        bool ok = true;
        for (size_t step = 0; step < path.size() && ok; ++step) {
          VertexId assigned = partial[path[step]];
          ok = assigned == kInvalidVertex || assigned == seq[step];
        }
        // Cross-path chord edges between this path's fresh vertices and
        // previously assigned positions are validated pairwise.
        for (size_t step = 0; step < path.size() && ok; ++step) {
          size_t p = path[step];
          if (partial[p] != kInvalidVertex) continue;  // shared, checked
          for (size_t q = 0; q < num_pos && ok; ++q) {
            if (partial[q] == kInvalidVertex) continue;
            ok = EdgesRealized(g0, topo, p, seq[step], q, partial[q]);
          }
        }
        if (!ok) continue;
        if (joined.size() >= options.max_partial_answers) {
          capped = true;
          break;
        }
        joined.push_back(partial);
        for (size_t step = 0; step < path.size(); ++step) {
          joined.back()[path[step]] = seq[step];
        }
        if (stats) ++stats->partial_answers_created;
      }
      if (capped) break;
    }
    if (capped && stats) ++stats->cap_hits;
    partials = std::move(joined);
    if (partials.empty()) return out;
  }

  out.reserve(partials.size());
  for (const auto& assignment : partials) {
    out.push_back(AssignmentToAnswer(
        spec, assignment, spec.generalized.keyword_vertices.size()));
    if (stats) ++stats->realizations;
  }
  return out;
}

}  // namespace bigindex

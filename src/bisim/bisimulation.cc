#include "bisim/bisimulation.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "bisim/signature.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bigindex {

namespace {
constexpr uint64_t kZeroOffsets[1] = {0};
}  // namespace

std::span<const uint64_t> BisimMapping::EmptyOffsets() {
  return {kZeroOffsets, 1};
}

BisimMapping::BisimMapping(std::span<const VertexId> vertex_to_super,
                           size_t num_blocks) {
  const size_t n = vertex_to_super.size();
  auto arena = std::make_shared<Arena>(
      Arena::AlignedSize<VertexId>(n) +
      Arena::AlignedSize<uint64_t>(num_blocks + 1) +
      Arena::AlignedSize<VertexId>(n));
  std::span<VertexId> v2s = arena->Carve<VertexId>(n);
  std::span<uint64_t> offsets = arena->Carve<uint64_t>(num_blocks + 1);
  std::span<VertexId> members = arena->Carve<VertexId>(n);

  std::copy(vertex_to_super.begin(), vertex_to_super.end(), v2s.begin());
  std::fill(offsets.begin(), offsets.end(), 0);
  for (VertexId s : v2s) offsets[s + 1]++;
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId v = 0; v < n; ++v) members[cursor[v2s[v]]++] = v;

  storage_ = std::move(arena);
  vertex_to_super_ = v2s;
  member_offsets_ = offsets;
  members_ = members;
}

BisimMapping BisimMapping::FromStorage(
    StorageHandle storage, std::span<const VertexId> vertex_to_super,
    std::span<const uint64_t> member_offsets,
    std::span<const VertexId> members) {
  BisimMapping m;
  m.storage_ = std::move(storage);
  m.vertex_to_super_ = vertex_to_super;
  m.member_offsets_ = member_offsets;
  m.members_ = members;
  return m;
}

namespace {

constexpr uint32_t kUnset = UINT32_MAX;

// Kahn's algorithm, sinks first. `pending[v]` counts v's out-edges still to
// be released and `order` holds the vertices already at 0; each listed
// vertex releases one out-edge of every in-neighbor, and an in-neighbor
// reaching 0 is appended. So every vertex lands after all of its counted
// successors, and a vertex that reaches a cycle among counted vertices never
// lands. Every in-neighbor of a listed vertex must carry a count.
void ReleaseSuccessorsFirst(const CsrView& in, std::vector<uint32_t>& pending,
                            std::vector<VertexId>& order) {
  for (size_t i = 0; i < order.size(); ++i) {
    const auto [b, e] = in[order[i]];
    for (uint64_t k = b; k < e; ++k) {
      const VertexId p = in.Slot(k);
      if (--pending[p] == 0) order.push_back(p);
    }
  }
}

// The well-founded vertices of g, each after all of its successors.
// `pending` is left non-zero exactly on the cyclic remainder.
std::vector<VertexId> WellFoundedOrder(const Graph& g,
                                       std::vector<uint32_t>& pending) {
  const size_t n = g.NumVertices();
  const CsrView out = g.Out();
  pending.resize(n);
  std::vector<VertexId> order;
  order.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto [b, e] = out[v];
    pending[v] = static_cast<uint32_t>(e - b);
    if (b == e) order.push_back(v);
  }
  ReleaseSuccessorsFirst(g.In(), pending, order);
  return order;
}

// v's signature into `sig`: `head` (a label or v's current block), then the
// sorted, deduplicated blocks of v's successors.
template <typename BlockOf>
void Sign(const CsrView& out, VertexId v, uint32_t head, BlockOf block_of,
          std::vector<uint32_t>& sig) {
  sig.clear();
  sig.push_back(head);
  const auto [b, e] = out[v];
  for (uint64_t i = b; i < e; ++i) sig.push_back(block_of(out.Slot(i)));
  std::sort(sig.begin() + 1, sig.end());
  sig.erase(std::unique(sig.begin() + 1, sig.end()), sig.end());
}

// Refines the cyclic remainder (pending != 0) to a fixpoint with the blocks
// below `pinned` fixed: the remainder starts partitioned by label, and each
// round re-partitions it by (current block, successor blocks). Refinement
// only splits, so a round that keeps the block count is the fixpoint.
// Returns the block-id bound; `rounds` receives the round count.
size_t RefineRemainder(const Graph& g, std::span<const LabelId> labels,
                       const std::vector<uint32_t>& pending,
                       std::vector<uint32_t>& block, size_t pinned,
                       size_t* rounds) {
  std::vector<VertexId> rest;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (pending[v] != 0) rest.push_back(v);
  }
  const auto base = static_cast<uint32_t>(pinned);
  SignatureInterner interner;
  for (VertexId v : rest) block[v] = base + interner.Intern({&labels[v], 1});
  size_t count = interner.size();
  const CsrView out = g.Out();
  std::vector<uint32_t> next(rest.size());
  std::vector<uint32_t> sig;
  auto block_of = [&block](VertexId w) { return block[w]; };
  for (*rounds = 1;; ++*rounds) {
    interner.Reset();
    for (size_t k = 0; k < rest.size(); ++k) {
      Sign(out, rest[k], block[rest[k]], block_of, sig);
      next[k] = base + interner.Intern(sig);
    }
    for (size_t k = 0; k < rest.size(); ++k) block[rest[k]] = next[k];
    if (interner.size() == count) break;
    count = interner.size();
  }
  return pinned + count;
}

// The previous supernode whose row — (label, sorted successor blocks) — is
// `sig`, or kInvalidVertex. A maximal bisimulation's summary has pairwise
// distinct rows, so at most one matches. The candidates are the smallest of
// the label's supernodes and each successor block's in-neighbors; a block id
// past the table is a new block, which no previous row names.
VertexId FindRow(const Graph& table, std::span<const uint32_t> sig) {
  const std::span<const uint32_t> succ = sig.subspan(1);
  if (!succ.empty() && succ.back() >= table.NumVertices()) {
    return kInvalidVertex;
  }
  std::span<const VertexId> candidates = table.VerticesWithLabel(sig[0]);
  for (uint32_t t : succ) {
    const std::span<const VertexId> in = table.InNeighbors(t);
    if (in.size() < candidates.size()) candidates = in;
  }
  for (VertexId s : candidates) {
    if (table.label(s) == sig[0] &&
        std::ranges::equal(table.OutNeighbors(s), succ)) {
      return s;
    }
  }
  return kInvalidVertex;
}

// The next-layer link of a summary `bisim` of g that was computed from
// scratch: each supernode stands in for the previous block of one member —
// one outside the cone when it has such a member, whose behavior is
// unchanged — unless another supernode claimed that block first. It is
// changed unless its label and its row, read through the link, are that
// block's. `moved` counts the vertices whose supernode stands in for a block
// other than their own previous one.
template <typename PriorBlock>
void LinkByMembers(const Graph& table, const BisimResult& bisim,
                   std::span<const char> in_cone, PriorBlock prior_block,
                   ConeResult& result) {
  const Graph& summary = bisim.summary;
  const size_t num_blocks = summary.NumVertices();
  std::vector<VertexId>& link = result.next_to_prior;
  link.assign(num_blocks, kInvalidVertex);
  std::vector<char> claimed(table.NumVertices(), 0);
  for (VertexId j = 0; j < num_blocks; ++j) {
    const std::span<const VertexId> members = bisim.mapping.Members(j);
    const auto outside = std::ranges::find_if(
        members, [&](VertexId x) { return !in_cone[x]; });
    const VertexId t =
        prior_block(outside != members.end() ? *outside : members.front());
    if (t != kInvalidVertex && !claimed[t]) {
      claimed[t] = 1;
      link[j] = t;
    }
  }
  bool same_numbering = num_blocks == table.NumVertices();
  std::vector<VertexId> row;
  for (VertexId j = 0; j < num_blocks; ++j) {
    bool same = link[j] != kInvalidVertex &&
                summary.label(j) == table.label(link[j]);
    if (same) {
      row.clear();
      for (VertexId w : summary.OutNeighbors(j)) row.push_back(link[w]);
      std::sort(row.begin(), row.end());
      same = std::ranges::equal(row, table.OutNeighbors(link[j]));
    }
    if (!same) result.next_changed.push_back(j);
    same_numbering &= link[j] == j;
  }
  for (VertexId x = 0; x < bisim.mapping.NumVertices(); ++x) {
    result.moved += link[bisim.mapping.SuperOf(x)] != prior_block(x);
  }
  if (same_numbering) link.clear();
}

}  // namespace

BisimResult ComputeBisimulation(const Graph& g,
                                std::span<const LabelId> labels) {
  TRACE_SPAN("bisim/compute");
  static Counter& runs = MetricsRegistry::Global().GetCounter(
      "bigindex_bisim_runs_total", "Bisimulation summarizations computed");
  static Counter& rounds_total = MetricsRegistry::Global().GetCounter(
      "bigindex_bisim_rounds_total",
      "Refinement rounds over cyclic remainders across all runs");
  static Counter& signatures = MetricsRegistry::Global().GetCounter(
      "bigindex_bisim_signatures_total",
      "Vertex signatures computed (well-founded vertices once, the cyclic "
      "remainder once per round)");
  runs.Inc();

  const size_t n = g.NumVertices();
  assert(labels.size() == n);
  std::vector<uint32_t> pending;
  const std::vector<VertexId> order = WellFoundedOrder(g, pending);

  // Each well-founded vertex once, successors first: its block is final.
  std::vector<uint32_t> block(n, kUnset);
  SignatureInterner interner;
  std::vector<uint32_t> sig;
  const CsrView out = g.Out();
  auto block_of = [&block](VertexId w) { return block[w]; };
  for (VertexId v : order) {
    Sign(out, v, labels[v], block_of, sig);
    block[v] = interner.Intern(sig);
  }
  size_t num_blocks = interner.size();
  size_t rounds = 0;
  if (order.size() < n) {
    num_blocks =
        RefineRemainder(g, labels, pending, block, num_blocks, &rounds);
  }
  rounds_total.Inc(rounds);
  signatures.Inc(order.size() + rounds * (n - order.size()));
  return MaterializeQuotient(g, labels, std::move(block), num_blocks);
}

size_t CountWellFounded(const Graph& g) {
  std::vector<uint32_t> pending;
  return WellFoundedOrder(g, pending).size();
}

StatusOr<ConeResult> ResignCone(const Graph& g,
                                std::span<const LabelId> labels,
                                const BisimResult& prior,
                                std::span<const VertexId> to_prior,
                                std::span<const VertexId> changed,
                                size_t max_cone) {
  TRACE_SPAN("bisim/cone");
  const size_t n = g.NumVertices();
  const Graph& table = prior.summary;  // previous signatures, one per row
  const size_t old_blocks = table.NumVertices();
  const bool identity = to_prior.empty();
  if (labels.size() != n) {
    return Status::InvalidArgument("labels size != vertex count");
  }
  if (prior.mapping.NumSupernodes() != old_blocks) {
    return Status::InvalidArgument("prior mapping and summary disagree");
  }
  if (identity ? prior.mapping.NumVertices() != n : to_prior.size() != n) {
    return Status::InvalidArgument("to_prior size != vertex count");
  }
  for (VertexId p : to_prior) {
    if (p != kInvalidVertex && p >= prior.mapping.NumVertices()) {
      return Status::InvalidArgument("to_prior vertex out of range");
    }
  }
  for (VertexId v : changed) {
    if (v >= n) return Status::InvalidArgument("changed vertex out of range");
  }
  auto prior_block = [&](VertexId x) -> VertexId {
    const VertexId p = identity ? x : to_prior[x];
    return p == kInvalidVertex ? kInvalidVertex : prior.mapping.SuperOf(p);
  };

  ConeResult result;
  // The cone: `changed` and every ancestor. Nothing outside it reaches a
  // changed vertex, so its forward structure, and with it its block, is the
  // previous one.
  const CsrView in = g.In();
  std::vector<char> in_cone(n, 0);
  std::vector<VertexId> cone;
  for (VertexId v : changed) {
    if (!in_cone[v]) {
      in_cone[v] = 1;
      cone.push_back(v);
    }
  }
  for (size_t i = 0; i < cone.size() && cone.size() <= max_cone; ++i) {
    const auto [b, e] = in[cone[i]];
    for (uint64_t k = b; k < e; ++k) {
      const VertexId p = in.Slot(k);
      if (!in_cone[p]) {
        in_cone[p] = 1;
        cone.push_back(p);
      }
    }
  }
  result.cone = cone.size();
  if (cone.size() > max_cone) return result;

  // Successors first within the cone. A cycle in the cone stops the order
  // short: then the kernel re-runs on the whole layer, and its supernodes
  // are linked to the previous ones through their members.
  const CsrView out = g.Out();
  std::vector<uint32_t> pending(n, 0);
  std::vector<VertexId> order;
  order.reserve(cone.size());
  for (VertexId x : cone) {
    const auto [b, e] = out[x];
    for (uint64_t i = b; i < e; ++i) pending[x] += in_cone[out.Slot(i)];
    if (pending[x] == 0) order.push_back(x);
  }
  ReleaseSuccessorsFirst(in, pending, order);
  result.applied = true;
  if (order.size() < cone.size()) {
    result.rerun = true;
    result.bisim = ComputeBisimulation(g, labels);
    LinkByMembers(table, result.bisim, in_cone, prior_block, result);
    return result;
  }

  // Every vertex's block: the previous one outside the cone, and inside it
  // the one signed here, each cone vertex once, successors first. A
  // previous row's signature rejoins that block; any other signature is a
  // new block, numbered past the table.
  std::vector<uint32_t> names(n);
  if (identity) {
    std::ranges::copy(prior.mapping.VertexToSuper(), names.begin());
  } else {
    for (VertexId x = 0; x < n; ++x) names[x] = prior_block(x);
  }
  SignatureInterner fresh;
  std::vector<uint32_t> sig;
  auto name_of = [&names](VertexId w) { return names[w]; };
  for (VertexId x : order) {
    Sign(out, x, labels[x], name_of, sig);
    const VertexId row = FindRow(table, sig);
    const uint32_t name =
        row != kInvalidVertex
            ? row
            : static_cast<uint32_t>(old_blocks + fresh.Intern(sig));
    result.moved += name != names[x];
    names[x] = name;
  }
  if (identity && result.moved == 0) {
    result.reused = true;
    result.bisim = prior;
    return result;
  }

  // Renumber in first-occurrence order over g's vertices, the numbering
  // every summary carries; `names` becomes vertex -> supernode. Outside the
  // identity, a vertex without a counterpart must be in the cone.
  std::vector<uint32_t> canon(old_blocks + fresh.size(), kUnset);
  std::vector<uint32_t> name_at;  // new supernode -> block name
  for (VertexId x = 0; x < n; ++x) {
    if (names[x] == kInvalidVertex) {
      return Status::InvalidArgument(
          "a vertex without a counterpart is missing from changed");
    }
    uint32_t& c = canon[names[x]];
    if (c == kUnset) {
      c = static_cast<uint32_t>(name_at.size());
      name_at.push_back(names[x]);
    }
    names[x] = c;
  }
  const size_t num_blocks = name_at.size();

  // Next layer's inputs. A previous block keeps its row; a new one stands
  // in for the previous supernode of its own number if that one emptied.
  bool same_numbering = num_blocks == old_blocks;
  result.next_to_prior.assign(num_blocks, kInvalidVertex);
  for (uint32_t j = 0; j < num_blocks; ++j) {
    const uint32_t name = name_at[j];
    if (name < old_blocks) {
      result.next_to_prior[j] = name;
    } else {
      result.next_changed.push_back(j);
      if (j < old_blocks && canon[j] == kUnset) result.next_to_prior[j] = j;
    }
    same_numbering &= result.next_to_prior[j] == j;
  }
  if (same_numbering) result.next_to_prior.clear();

  result.bisim.mapping = BisimMapping(names, num_blocks);
  if (same_numbering && result.next_changed.empty()) {
    // Every previous block survives under its own number with its row.
    result.bisim.summary = table;
    return result;
  }

  // Splice: previous rows for previous blocks, signatures for new ones.
  // Renumbering mostly keeps the order, so a row is sorted only when it
  // came out unsorted.
  std::vector<LabelId> summary_labels(num_blocks);
  std::vector<uint64_t> offsets(num_blocks + 1, 0);
  std::vector<VertexId> targets;
  targets.reserve(table.NumEdges() + fresh.size());
  for (uint32_t j = 0; j < num_blocks; ++j) {
    const uint32_t name = name_at[j];
    std::span<const uint32_t> row;
    if (name < old_blocks) {
      summary_labels[j] = table.label(name);
      row = table.OutNeighbors(name);
    } else {
      const std::span<const uint32_t> s = fresh.Sig(name - old_blocks);
      summary_labels[j] = s[0];
      row = s.subspan(1);
    }
    const auto first = static_cast<ptrdiff_t>(targets.size());
    for (uint32_t t : row) {
      if (canon[t] == kUnset) {
        return Status::InvalidArgument(
            "changed misses a vertex whose out-edges changed");
      }
      targets.push_back(canon[t]);
    }
    if (!std::is_sorted(targets.begin() + first, targets.end())) {
      std::sort(targets.begin() + first, targets.end());
    }
    offsets[j + 1] = targets.size();
  }
  result.bisim.summary =
      Graph::FromAdjacency(summary_labels, offsets, targets);
  return result;
}

BisimResult MaterializeQuotient(const Graph& g,
                                std::span<const LabelId> labels,
                                std::vector<uint32_t> partition,
                                size_t id_bound,
                                std::vector<uint32_t>* old_to_final) {
  TRACE_SPAN("bisim/materialize");
  const size_t n = g.NumVertices();
  std::vector<uint32_t> dense(id_bound, kUnset);
  uint32_t num_blocks = 0;
  for (VertexId v = 0; v < n; ++v) {
    uint32_t& d = dense[partition[v]];
    if (d == kUnset) d = num_blocks++;
    partition[v] = d;
  }

  BisimResult result;
  result.mapping = BisimMapping(partition, num_blocks);
  const BisimMapping& mapping = result.mapping;

  // Each block's out-edges once: the stamp marks the target blocks already
  // seen for the current block, and each block's targets are sorted in
  // place, so the quotient's CSR is written directly — ~|E_q| entries, no
  // sort over |E|. The graph is the one every vertex-level edge would give.
  std::vector<LabelId> block_labels(num_blocks);
  std::vector<uint64_t> offsets(num_blocks + 1, 0);
  std::vector<VertexId> targets;
  targets.reserve(g.NumEdges());
  const CsrView out = g.Out();
  std::vector<uint32_t> stamp(num_blocks, kUnset);
  for (uint32_t s = 0; s < num_blocks; ++s) {
    block_labels[s] = labels[mapping.Members(s).front()];
    const size_t first = targets.size();
    for (VertexId u : mapping.Members(s)) {
      const auto [b, e] = out[u];
      for (uint64_t i = b; i < e; ++i) {
        const uint32_t t = partition[out.Slot(i)];
        if (stamp[t] != s) {
          stamp[t] = s;
          targets.push_back(t);
        }
      }
    }
    std::sort(targets.begin() + first, targets.end());
    offsets[s + 1] = targets.size();
  }
  result.summary = Graph::FromAdjacency(block_labels, offsets, targets);
  if (old_to_final != nullptr) *old_to_final = std::move(dense);
  return result;
}

bool IsStableBisimulation(const Graph& g, const BisimMapping& mapping) {
  const size_t n = g.NumVertices();
  if (mapping.NumVertices() != n) return false;

  // Labels uniform within blocks.
  for (VertexId s = 0; s < mapping.NumSupernodes(); ++s) {
    auto members = mapping.Members(s);
    if (members.empty()) return false;
    LabelId l = g.label(members.front());
    for (VertexId v : members) {
      if (g.label(v) != l) return false;
    }
  }

  // Successor-block sets uniform within blocks.
  auto successor_blocks = [&](VertexId v) {
    std::vector<VertexId> out;
    for (VertexId w : g.OutNeighbors(v)) out.push_back(mapping.SuperOf(w));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  for (VertexId s = 0; s < mapping.NumSupernodes(); ++s) {
    auto members = mapping.Members(s);
    auto expected = successor_blocks(members.front());
    for (size_t i = 1; i < members.size(); ++i) {
      if (successor_blocks(members[i]) != expected) return false;
    }
  }
  return true;
}

}  // namespace bigindex

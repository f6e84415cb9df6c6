#include "update/incremental.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "bisim/signature.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bigindex {
namespace {

constexpr uint32_t kUnset32 = std::numeric_limits<uint32_t>::max();

// DetectMerges' fallback threshold. The merge scan runs on the summary-sized
// quotient and its localized split pass is linear in the active region, so
// it stays cheaper than wholesale re-summarization until the active set
// covers most of the quotient — a far higher bar than
// MaintainOptions::fallback_dirty_ratio, which guards O(V+E) passes.
constexpr double kMergeScanFallbackRatio = 0.75;

// Working partition for SplitToStability. `block`/`members_of` are mutually
// consistent (members ascending within each block), except that a block of
// one member may keep an empty list: SplitToStability never splits a block
// of fewer than two members, so it never reads one; `origin_of`/`fragmented`
// carry initial-block provenance: every working block descends from exactly
// one initial block (splits preserve the origin, splitting never merges),
// and an initial block fragments the first time any block of its line
// splits.
struct RefineState {
  std::vector<uint32_t> block;                    // vertex -> working block
  std::vector<std::vector<VertexId>> members_of;  // block -> members, asc.
  std::vector<uint32_t> origin_of;                // block -> initial block
  std::vector<char> fragmented;                   // initial block -> split?
};

// Worklist signature refinement to fixpoint: per round, collect the blocks
// containing frontier vertices, re-sign every member of those blocks against
// the current partition, and split by (label, sorted-unique out-neighbor
// block set). The group holding the block's first member keeps the block id;
// other groups take fresh ids, and their members' in-neighbors join the next
// frontier (their signatures now see a different block id). At fixpoint the
// partition is the *coarsest stable refinement* of the initial one — splits
// are forced (any stable refinement must make them) and untouched blocks
// stay signature-uniform by a transfer argument. Returns the round count;
// `resigned` accumulates signature recomputations.
size_t SplitToStability(const Graph& g, std::span<const LabelId> labels,
                        RefineState& rs, std::vector<VertexId> frontier,
                        size_t* resigned) {
  const CsrView out = g.Out();
  const CsrView in = g.In();
  std::vector<char> dirty_flag(g.NumVertices(), 0);
  for (VertexId v : frontier) dirty_flag[v] = 1;

  std::vector<char> touched_flag(rs.members_of.size(), 0);
  std::vector<uint32_t> touched;
  std::vector<VertexId> moved;
  std::vector<uint32_t> sig;
  size_t rounds = 0;
  while (!frontier.empty()) {
    TRACE_SPAN("update/split_round");
    ++rounds;
    touched.clear();
    for (VertexId v : frontier) {
      dirty_flag[v] = 0;
      const uint32_t b = rs.block[v];
      if (b >= touched_flag.size()) touched_flag.resize(b + 1, 0);
      if (!touched_flag[b]) {
        touched_flag[b] = 1;
        touched.push_back(b);
      }
    }
    frontier.clear();
    std::sort(touched.begin(), touched.end());

    moved.clear();
    for (uint32_t b : touched) {
      touched_flag[b] = 0;
      std::vector<VertexId>& mem = rs.members_of[b];
      if (mem.size() <= 1) continue;  // singletons cannot split

      // Group members by signature, first-occurrence group order (members
      // are ascending, so group 0 holds mem[0] and keeps the id).
      SignatureInterner group_of;
      std::vector<std::vector<VertexId>> groups;
      for (VertexId v : mem) {
        sig.clear();
        sig.push_back(labels[v]);
        const auto [s, e] = out[v];
        for (uint64_t i = s; i < e; ++i) sig.push_back(rs.block[out.Slot(i)]);
        std::sort(sig.begin() + 1, sig.end());
        sig.erase(std::unique(sig.begin() + 1, sig.end()), sig.end());
        const uint32_t group = group_of.Intern(sig);
        if (group == groups.size()) groups.emplace_back();
        groups[group].push_back(v);
      }
      if (resigned != nullptr) *resigned += mem.size();
      if (groups.size() <= 1) continue;

      rs.fragmented[rs.origin_of[b]] = 1;
      mem = std::move(groups.front());
      for (size_t j = 1; j < groups.size(); ++j) {
        const uint32_t fresh = static_cast<uint32_t>(rs.members_of.size());
        for (VertexId v : groups[j]) {
          rs.block[v] = fresh;
          moved.push_back(v);
        }
        rs.members_of.push_back(std::move(groups[j]));
        rs.origin_of.push_back(rs.origin_of[b]);
        touched_flag.push_back(0);
      }
    }

    for (VertexId v : moved) {
      const auto [s, e] = in[v];
      for (uint64_t i = s; i < e; ++i) {
        const VertexId u = in.Slot(i);
        if (!dirty_flag[u]) {
          dirty_flag[u] = 1;
          frontier.push_back(u);
        }
      }
    }
  }
  return rounds;
}

// (label, sorted-unique successor-label set) hash — a bisimulation
// invariant: bisimilar nodes have equal successor class sets, classes are
// label-uniform, hence equal successor label sets.
uint64_t OneStepInvariant(const Graph& q, VertexId v,
                          std::vector<uint32_t>& scratch) {
  scratch.clear();
  scratch.push_back(q.label(v));
  const size_t fixed = scratch.size();
  for (VertexId w : q.OutNeighbors(v)) scratch.push_back(q.label(w));
  std::sort(scratch.begin() + fixed, scratch.end());
  scratch.erase(std::unique(scratch.begin() + fixed, scratch.end()),
                scratch.end());
  return HashSignature(scratch);
}

}  // namespace

MergeScan DetectMerges(const Graph& q, std::span<const VertexId> changed,
                       ExecutorPool* pool) {
  TRACE_SPAN("update/merge_scan");
  const size_t m = q.NumVertices();
  MergeScan scan;

  // Ancestors: backward closure of the changed set. A node outside it has
  // an unchanged forward cone, so (the pre-image graph being reduced) two
  // distinct non-ancestors can never be bisimilar.
  std::vector<char> active(m, 0);
  std::vector<VertexId> stack;
  for (VertexId v : changed) {
    if (v < m && !active[v]) {
      active[v] = 1;
      stack.push_back(v);
    }
  }
  const CsrView in = q.In();
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    const auto [s, e] = in[v];
    for (uint64_t i = s; i < e; ++i) {
      const VertexId u = in.Slot(i);
      if (!active[u]) {
        active[u] = 1;
        stack.push_back(u);
      }
    }
  }

  // Partner filter: a merge class holds at most one non-ancestor, and its
  // members share the one-step invariant — so a non-ancestor is a merge
  // candidate only if some ancestor matches its hash (collisions cost work,
  // never correctness). A label pre-filter skips the invariant hash for the
  // bulk of the graph.
  {
    std::unordered_set<uint64_t> anchor;
    std::vector<char> anchor_label(q.LabelSlots(), 0);
    std::vector<uint32_t> scratch;
    for (VertexId v = 0; v < m; ++v) {
      if (active[v]) {
        anchor.insert(OneStepInvariant(q, v, scratch));
        anchor_label[q.label(v)] = 1;
      }
    }
    if (!anchor.empty()) {
      for (VertexId v = 0; v < m; ++v) {
        if (!active[v] && anchor_label[q.label(v)] &&
            anchor.count(OneStepInvariant(q, v, scratch))) {
          active[v] = 1;
        }
      }
    }
  }
  for (VertexId v = 0; v < m; ++v) scan.active += active[v];

  if (static_cast<double>(scan.active) >
      kMergeScanFallbackRatio * static_cast<double>(m)) {
    // The working set covers most of the graph — the localized refinement
    // would approximate a wholesale pass anyway.
    BisimResult merged = ComputeBisimulation(q, q.labels(), {.pool = pool});
    const auto super = merged.mapping.VertexToSuper();
    scan.block_of.assign(super.begin(), super.end());
    scan.num_classes = merged.mapping.NumSupernodes();
    scan.rounds = merged.refinement_rounds;
    scan.localized = false;
    return scan;
  }

  // Initial partition P0: actives grouped by label, everything else a
  // singleton. The maximal bisimulation refines P0 (every multi-member
  // class lies inside one active label group), so the coarsest stable
  // refinement of P0 — which the split worklist computes — IS the maximal
  // bisimulation.
  RefineState rs;
  rs.block.resize(m);
  std::vector<VertexId> frontier;
  {
    std::unordered_map<LabelId, uint32_t> label_block;
    for (VertexId v = 0; v < m; ++v) {
      if (active[v]) {
        auto [it, inserted] = label_block.try_emplace(
            q.label(v), static_cast<uint32_t>(rs.members_of.size()));
        if (inserted) rs.members_of.emplace_back();
        rs.block[v] = it->second;
        rs.members_of[it->second].push_back(v);
        frontier.push_back(v);
      } else {
        // A singleton outside the active set keeps an empty member list.
        rs.block[v] = static_cast<uint32_t>(rs.members_of.size());
        rs.members_of.emplace_back();
      }
    }
  }
  rs.origin_of.resize(rs.members_of.size());
  for (uint32_t b = 0; b < rs.origin_of.size(); ++b) rs.origin_of[b] = b;
  rs.fragmented.assign(rs.members_of.size(), 0);

  scan.rounds =
      SplitToStability(q, q.labels(), rs, std::move(frontier), nullptr);
  scan.localized = true;

  scan.block_of.resize(m);
  std::vector<uint32_t> dense(rs.members_of.size(), kUnset32);
  for (VertexId v = 0; v < m; ++v) {
    uint32_t& d = dense[rs.block[v]];
    if (d == kUnset32) d = static_cast<uint32_t>(scan.num_classes++);
    scan.block_of[v] = d;
  }
  return scan;
}

StatusOr<BisimResult> IncrementalBisimulation(
    const Graph& g, std::span<const VertexId> seed_partition,
    std::span<const VertexId> dirty, const IncrementalBisimOptions& options,
    IncrementalBisimStats* stats, IncrementalBisimTrace* trace) {
  TRACE_SPAN("update/incremental_bisim");
  static Counter& runs = MetricsRegistry::Global().GetCounter(
      "bigindex_update_incremental_runs_total",
      "Incremental bisimulation invocations");
  static Counter& resigned = MetricsRegistry::Global().GetCounter(
      "bigindex_update_resigned_vertices_total",
      "Vertex signatures recomputed by the localized split pass");
  runs.Inc();

  const size_t n = g.NumVertices();
  if (seed_partition.size() != n) {
    return Status::InvalidArgument("seed partition size != vertex count");
  }
  if (options.labels.size() != n) {
    return Status::InvalidArgument("labels size != vertex count");
  }
  for (VertexId v : dirty) {
    if (v >= n) return Status::InvalidArgument("dirty vertex out of range");
  }
  for (VertexId v : options.merge_changed) {
    if (v >= n) return Status::InvalidArgument("changed vertex out of range");
  }
  IncrementalBisimStats local_stats;
  IncrementalBisimStats& st = stats != nullptr ? *stats : local_stats;
  st = IncrementalBisimStats{};
  st.dirty_seed = dirty.size();
  if (trace != nullptr) *trace = IncrementalBisimTrace{};

  const std::span<const LabelId> labels = options.labels;

  // Densify the seed into block ids 0..B-1 (first-occurrence order; the
  // final renumber makes the choice here irrelevant to output) and build
  // block -> members lists, members ascending. Most seed blocks of a
  // summary-sized layer are singletons; they keep an empty list.
  RefineState rs;
  rs.block.resize(n);
  std::vector<VertexId> seed_value_of;
  std::vector<uint32_t> seed_dense(options.seed_id_bound, kUnset32);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId s = seed_partition[v];
    if (s >= options.seed_id_bound) {
      return Status::InvalidArgument("seed id >= seed_id_bound");
    }
    uint32_t& d = seed_dense[s];
    if (d == kUnset32) {
      d = static_cast<uint32_t>(seed_value_of.size());
      seed_value_of.push_back(s);
    }
    rs.block[v] = d;
  }
  const size_t num_seeds = seed_value_of.size();
  {
    std::vector<uint32_t> seed_size(num_seeds, 0);
    for (VertexId v = 0; v < n; ++v) ++seed_size[rs.block[v]];
    rs.members_of.resize(num_seeds);
    for (uint32_t b = 0; b < num_seeds; ++b) {
      if (seed_size[b] > 1) rs.members_of[b].reserve(seed_size[b]);
    }
    for (VertexId v = 0; v < n; ++v) {
      if (seed_size[rs.block[v]] > 1) rs.members_of[rs.block[v]].push_back(v);
    }
  }
  rs.origin_of.resize(num_seeds);
  for (uint32_t b = 0; b < num_seeds; ++b) rs.origin_of[b] = b;
  rs.fragmented.assign(num_seeds, 0);

  // Phase 1 (split): worklist refinement seeded from the dirty set.
  std::vector<VertexId> frontier;
  frontier.reserve(dirty.size());
  {
    std::vector<char> seen(n, 0);
    for (VertexId v : dirty) {
      if (!seen[v]) {
        seen[v] = 1;
        frontier.push_back(v);
      }
    }
  }
  const size_t rounds =
      SplitToStability(g, labels, rs, std::move(frontier),
                       &st.vertices_resigned);
  st.split_rounds = rounds;
  resigned.Inc(st.vertices_resigned);

  // Phase 2 (merge): the split-stable partition P may still be finer than
  // maximal bisimulation (updates can *merge* blocks). P is stable and
  // label-uniform, so max-bisim(g) is the pullback of max-bisim(g/P):
  // quotient, scan the (summary-sized) quotient for merges, compose.
  const size_t num_work = rs.members_of.size();
  std::vector<uint32_t> work_to_p1;
  BisimResult p1 = MaterializeQuotient(g, labels, std::move(rs.block),
                                       num_work, &work_to_p1);
  const size_t p1_blocks = p1.mapping.NumSupernodes();
  std::vector<uint32_t> p1_origin(p1_blocks);
  for (uint32_t w = 0; w < num_work; ++w) {
    if (work_to_p1[w] != kUnset32) p1_origin[work_to_p1[w]] = rs.origin_of[w];
  }
  st.quotient_vertices = p1_blocks;

  // The seed came from a maximal bisimulation, so the old quotient was
  // *reduced* (no two blocks bisimilar) and merge classes are confined to
  // the backward closure of the changed quotient nodes: blocks holding a
  // merge_changed vertex, plus every block descending from a fragmented
  // seed.
  std::vector<VertexId> qchanged;
  {
    std::vector<char> qflag(p1_blocks, 0);
    for (VertexId v : options.merge_changed) {
      const VertexId b = p1.mapping.SuperOf(v);
      if (!qflag[b]) {
        qflag[b] = 1;
        qchanged.push_back(b);
      }
    }
    for (uint32_t b = 0; b < p1_blocks; ++b) {
      if (rs.fragmented[p1_origin[b]] && !qflag[b]) {
        qflag[b] = 1;
        qchanged.push_back(b);
      }
    }
  }
  MergeScan scan = DetectMerges(p1.summary, qchanged, options.pool);
  st.merge_active = scan.active;
  st.merge_localized = scan.localized;

  // Discrete (no merges): P1 is the maximal bisimulation and its quotient
  // is the summary. Otherwise the summary is P1's quotient coarsened by the
  // merge classes — no second pass over the layer graph either way.
  const bool merged = scan.num_classes != p1_blocks;
  std::vector<uint32_t> class_to_final;
  BisimResult result =
      merged ? CoarsenQuotient(p1, scan.block_of, scan.num_classes,
                               &class_to_final)
             : std::move(p1);
  result.refinement_rounds = rounds + scan.rounds;

  if (trace != nullptr) {
    // A final block keeps its seed when all its P1 blocks descend from one
    // seed. Intact = the seed never split and nothing merged in: the final
    // block's member set is exactly the seed block's. Two fragments of one
    // seed re-merging in phase 2 is conservatively non-intact (members may
    // still differ from the seed's).
    const size_t num_final = result.mapping.NumSupernodes();
    std::vector<uint32_t> parts(num_final, 0);
    trace->seed_of_final.assign(num_final, kInvalidVertex);
    trace->intact.assign(num_final, 0);
    for (uint32_t b = 0; b < p1_blocks; ++b) {
      const uint32_t t = merged ? class_to_final[scan.block_of[b]] : b;
      const VertexId seed = seed_value_of[p1_origin[b]];
      if (parts[t]++ == 0) {
        trace->seed_of_final[t] = seed;
        trace->intact[t] = !rs.fragmented[p1_origin[b]];
      } else {
        if (trace->seed_of_final[t] != seed) {
          trace->seed_of_final[t] = kInvalidVertex;  // mixed seeds
        }
        trace->intact[t] = 0;
      }
    }
  }
  return result;
}

}  // namespace bigindex

#include "search/partitioner.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace bigindex {

Partition::Partition(std::vector<uint32_t> block_of, size_t num_blocks)
    : block_of_(std::move(block_of)) {
  offsets_.assign(num_blocks + 1, 0);
  members_.resize(block_of_.size());
  for (uint32_t b : block_of_) offsets_[b + 1]++;
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (VertexId v = 0; v < block_of_.size(); ++v) {
    members_[cursor[block_of_[v]]++] = v;
  }
}

Partition PartitionGraph(const Graph& g, size_t target_block_size) {
  assert(target_block_size > 0);
  const size_t n = g.NumVertices();
  std::vector<uint32_t> block_of(n, UINT32_MAX);
  uint32_t next_block = 0;
  std::vector<VertexId> queue;
  for (VertexId seed = 0; seed < n; ++seed) {
    if (block_of[seed] != UINT32_MAX) continue;
    uint32_t b = next_block++;
    size_t filled = 0;
    queue.clear();
    queue.push_back(seed);
    block_of[seed] = b;
    ++filled;
    size_t head = 0;
    while (head < queue.size() && filled < target_block_size) {
      VertexId u = queue[head++];
      auto try_assign = [&](VertexId w) {
        if (filled >= target_block_size) return;
        if (block_of[w] != UINT32_MAX) return;
        block_of[w] = b;
        ++filled;
        queue.push_back(w);
      };
      const auto oi = g.Out()[u];
      for (uint64_t i = oi.begin; i < oi.end; ++i) try_assign(g.Out().Slot(i));
      const auto ii = g.In()[u];
      for (uint64_t i = ii.begin; i < ii.end; ++i) try_assign(g.In().Slot(i));
    }
  }
  return Partition(std::move(block_of), next_block);
}

namespace {

/// Weakly-connected components in discovery order (seeded by ascending
/// vertex id): comp_of[v] plus the component count. Deterministic.
size_t WeakComponents(const Graph& g, std::vector<uint32_t>& comp_of) {
  const size_t n = g.NumVertices();
  comp_of.assign(n, UINT32_MAX);
  uint32_t next = 0;
  std::vector<VertexId> queue;
  const CsrView out = g.Out();
  const CsrView in = g.In();
  for (VertexId seed = 0; seed < n; ++seed) {
    if (comp_of[seed] != UINT32_MAX) continue;
    uint32_t c = next++;
    queue.clear();
    queue.push_back(seed);
    comp_of[seed] = c;
    size_t head = 0;
    while (head < queue.size()) {
      VertexId u = queue[head++];
      auto visit = [&](VertexId w) {
        if (comp_of[w] != UINT32_MAX) return;
        comp_of[w] = c;
        queue.push_back(w);
      };
      const auto oi = out[u];
      for (uint64_t i = oi.begin; i < oi.end; ++i) visit(out.Slot(i));
      const auto ii = in[u];
      for (uint64_t i = ii.begin; i < ii.end; ++i) visit(in.Slot(i));
    }
  }
  return next;
}

/// Longest-processing-time greedy: units (by id) with their sizes are packed
/// largest-first onto the least-loaded shard (ties: lowest shard id; equal
/// sizes: lowest unit id first). Deterministic; max load <= avg + max unit.
std::vector<uint32_t> PackUnits(const std::vector<uint64_t>& unit_size,
                                size_t num_shards) {
  std::vector<uint32_t> order(unit_size.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return unit_size[a] > unit_size[b];
  });
  std::vector<uint64_t> load(num_shards, 0);
  std::vector<uint32_t> shard_of_unit(unit_size.size(), 0);
  for (uint32_t u : order) {
    uint32_t best = 0;
    for (uint32_t s = 1; s < num_shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    shard_of_unit[u] = best;
    load[best] += unit_size[u];
  }
  return shard_of_unit;
}

}  // namespace

ShardPlan::ShardPlan(std::vector<uint32_t> shard_of, size_t num_shards,
                     std::vector<CutEdge> cut_edges, ShardMode mode)
    : shard_of_(std::move(shard_of)),
      cut_edges_(std::move(cut_edges)),
      mode_(mode) {
  offsets_.assign(num_shards + 1, 0);
  members_.resize(shard_of_.size());
  for (uint32_t s : shard_of_) offsets_[s + 1]++;
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (VertexId v = 0; v < shard_of_.size(); ++v) {
    members_[cursor[shard_of_[v]]++] = v;
  }
}

StatusOr<ShardPlan> PlanShards(const Graph& g,
                               const ShardPlanOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const size_t n = g.NumVertices();

  // Unit assignment: a unit is a weakly-connected component
  // (connectivity-closed) or a BFS block (general cut).
  std::vector<uint32_t> unit_of;
  size_t num_units;
  if (options.mode == ShardMode::kConnectivityClosed) {
    num_units = WeakComponents(g, unit_of);
  } else {
    if (options.bfs_block_size == 0) {
      return Status::InvalidArgument("bfs_block_size must be >= 1");
    }
    Partition blocks = PartitionGraph(g, options.bfs_block_size);
    num_units = blocks.NumBlocks();
    unit_of.resize(n);
    for (VertexId v = 0; v < n; ++v) unit_of[v] = blocks.BlockOf(v);
  }

  std::vector<uint64_t> unit_size(num_units, 0);
  for (uint32_t u : unit_of) unit_size[u]++;
  std::vector<uint32_t> shard_of_unit =
      PackUnits(unit_size, options.num_shards);

  std::vector<uint32_t> shard_of(n);
  for (VertexId v = 0; v < n; ++v) shard_of[v] = shard_of_unit[unit_of[v]];

  // Boundary-edge manifest: sorted by (source, target) for free — vertices
  // ascend and CSR out-neighbors are sorted.
  std::vector<CutEdge> cut;
  const CsrView out = g.Out();
  for (VertexId v = 0; v < n; ++v) {
    const auto oi = out[v];
    for (uint64_t i = oi.begin; i < oi.end; ++i) {
      VertexId w = out.Slot(i);
      if (shard_of[v] != shard_of[w]) cut.push_back({v, w});
    }
  }
  assert(options.mode != ShardMode::kConnectivityClosed || cut.empty());
  return ShardPlan(std::move(shard_of), options.num_shards, std::move(cut),
                   options.mode);
}

StatusOr<ShardExtract> ExtractShard(const Graph& g, const ShardPlan& plan,
                                    uint32_t shard) {
  if (plan.NumVertices() != g.NumVertices()) {
    return Status::InvalidArgument("plan does not cover this graph");
  }
  if (shard >= plan.num_shards()) {
    return Status::OutOfRange("shard " + std::to_string(shard) +
                              " out of range (plan has " +
                              std::to_string(plan.num_shards()) + ")");
  }
  std::span<const VertexId> members = plan.ShardMembers(shard);
  ShardExtract extract;

  // Ghost set: every distinct off-shard endpoint of a cut edge incident to
  // this shard, in either direction. The manifest is sorted by
  // (source, target), so the collected ids only need a final sort + dedup.
  std::vector<VertexId> ghost_globals;
  for (const CutEdge& e : plan.CutEdges()) {
    bool src_here = plan.ShardOf(e.source) == shard;
    bool dst_here = plan.ShardOf(e.target) == shard;
    if (src_here) ghost_globals.push_back(e.target);
    if (dst_here) ghost_globals.push_back(e.source);
  }
  std::sort(ghost_globals.begin(), ghost_globals.end());
  ghost_globals.erase(
      std::unique(ghost_globals.begin(), ghost_globals.end()),
      ghost_globals.end());

  // global_of = sorted merge of members and ghosts (disjoint by
  // construction: a ghost lives on another shard), so the remap stays
  // order-preserving with ghosts interleaved.
  extract.global_of.resize(members.size() + ghost_globals.size());
  std::merge(members.begin(), members.end(), ghost_globals.begin(),
             ghost_globals.end(), extract.global_of.begin());

  std::vector<VertexId> local_of(g.NumVertices(), kInvalidVertex);
  for (size_t i = 0; i < extract.global_of.size(); ++i) {
    local_of[extract.global_of[i]] = static_cast<VertexId>(i);
  }
  extract.ghosts.reserve(ghost_globals.size());
  for (VertexId gv : ghost_globals) extract.ghosts.push_back(local_of[gv]);
  std::sort(extract.ghosts.begin(), extract.ghosts.end());

  GraphBuilder b;
  size_t edge_estimate = ghost_globals.size();
  for (VertexId v : members) edge_estimate += g.OutDegree(v);
  b.Reserve(extract.global_of.size(), edge_estimate);
  for (VertexId v : extract.global_of) b.AddVertex(g.label(v));
  const CsrView out = g.Out();
  for (VertexId v : members) {
    const auto oi = out[v];
    for (uint64_t i = oi.begin; i < oi.end; ++i) {
      VertexId w = out.Slot(i);
      // Intra-shard edge or an outgoing cut edge to a ghost; edges to
      // vertices of other shards that are not ghosts here cannot occur
      // (any member->off-shard edge is in the manifest, so its target is
      // a ghost).
      if (local_of[w] == kInvalidVertex) continue;
      b.AddEdge(local_of[v], local_of[w]);
    }
  }
  // Incoming cut edges (ghost source -> member target) are not reachable
  // from member out-adjacency; materialize them from the manifest.
  for (const CutEdge& e : plan.CutEdges()) {
    if (plan.ShardOf(e.target) == shard) {
      b.AddEdge(local_of[e.source], local_of[e.target]);
    }
  }
  auto graph = b.Build();
  if (!graph.ok()) return graph.status();
  extract.graph = std::move(graph).value();
  return extract;
}

}  // namespace bigindex

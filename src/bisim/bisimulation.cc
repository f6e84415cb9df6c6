#include "bisim/bisimulation.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

#include "bisim/signature.h"
#include "engine/executor.h"
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

BisimResult ComputeBisimulation(const Graph& g,
                                std::span<const LabelId> labels,
                                const BisimOptions& options) {
  TRACE_SPAN("bisim/compute");
  static Counter& runs = MetricsRegistry::Global().GetCounter(
      "bigindex_bisim_runs_total", "Bisimulation summarizations computed");
  static Counter& rounds_total = MetricsRegistry::Global().GetCounter(
      "bigindex_bisim_rounds_total",
      "Signature-refinement rounds across all runs");
  static Counter& signatures = MetricsRegistry::Global().GetCounter(
      "bigindex_bisim_signatures_total",
      "Vertex signatures computed (vertices x rounds)");
  static Counter& parallel_chunks = MetricsRegistry::Global().GetCounter(
      "bigindex_build_parallel_chunks_total",
      "Vertex-range chunks processed by parallel signature refinement");
  static Counter& parallel_rounds = MetricsRegistry::Global().GetCounter(
      "bigindex_build_parallel_rounds_total",
      "Refinement rounds executed with more than one chunk");
  runs.Inc();

  const size_t n = g.NumVertices();
  assert(labels.size() == n);

  // Round 0: partition by label, densely renumbered.
  std::vector<uint32_t> block(n);
  size_t num_blocks = 0;
  {
    std::unordered_map<LabelId, uint32_t> label_rank;
    for (VertexId v = 0; v < n; ++v) {
      auto [it, inserted] =
          label_rank.try_emplace(labels[v], static_cast<uint32_t>(num_blocks));
      if (inserted) ++num_blocks;
      block[v] = it->second;
    }
  }

  // Chunking: each chunk is a contiguous vertex range that is signed and
  // locally deduplicated independently. More chunks than workers lets the
  // pool's dynamic scheduling absorb degree skew; tiny graphs stay serial
  // (one chunk) because the fan-out would cost more than the round.
  ExecutorPool* pool =
      (options.pool != nullptr && options.pool->num_workers() > 1) ? options.pool
                                                                   : nullptr;
  size_t num_chunks = 1;
  const size_t min_chunk = std::max<size_t>(options.min_chunk_vertices, 1);
  if (pool != nullptr && n >= 2 * min_chunk) {
    num_chunks = std::min(n / min_chunk, pool->num_workers() * 4);
    num_chunks = std::max<size_t>(num_chunks, 1);
  }
  auto chunk_begin = [n, num_chunks](size_t c) { return n * c / num_chunks; };

  const CsrView out = g.Out();

  std::vector<SignatureInterner> locals(num_chunks);
  SignatureInterner global;
  std::vector<uint32_t> next_block(n);
  size_t rounds = 0;
  while (true) {
    if (options.max_rounds != 0 && rounds >= options.max_rounds) break;
    TRACE_SPAN("bisim/round");

    // Parallel phase: per-chunk signature construction + local interning.
    // next_block[v] temporarily holds v's *chunk-local* block id.
    auto sign_chunk = [&](size_t, size_t c) {
      SignatureInterner& local = locals[c];
      local.Reset();
      std::vector<uint32_t> sig;
      const size_t begin = chunk_begin(c), end = chunk_begin(c + 1);
      for (VertexId v = begin; v < end; ++v) {
        // Signature: [block[v], sorted unique out-neighbor blocks].
        sig.clear();
        sig.push_back(block[v]);
        const auto [b, e] = out[v];
        for (uint64_t i = b; i < e; ++i) sig.push_back(block[out.Slot(i)]);
        std::sort(sig.begin() + 1, sig.end());
        sig.erase(std::unique(sig.begin() + 1, sig.end()), sig.end());
        next_block[v] = local.Intern(sig);
      }
    };
    if (pool != nullptr && num_chunks > 1) {
      TRACE_SPAN("build/parallel/signatures");
      pool->ParallelFor(num_chunks, sign_chunk);
      parallel_chunks.Inc(num_chunks);
      parallel_rounds.Inc();
    } else {
      for (size_t c = 0; c < num_chunks; ++c) sign_chunk(0, c);
    }

    // Serial merge: assign global ids to each chunk's distinct signatures in
    // chunk order. Local ids are first-occurrence-ordered within their chunk
    // and chunks are ascending vertex ranges, so the global ids land in
    // first-occurrence order of the whole vertex scan — exactly the ids a
    // fully serial scan assigns, independent of the chunk count.
    TRACE_SPAN("build/parallel/merge");
    global.Reset();
    std::vector<std::vector<uint32_t>> remap(num_chunks);
    for (size_t c = 0; c < num_chunks; ++c) {
      const SignatureInterner& local = locals[c];
      remap[c].resize(local.size());
      for (uint32_t local_id = 0; local_id < local.size(); ++local_id) {
        remap[c][local_id] =
            global.Intern(local.Sig(local_id), local.hash(local_id));
      }
    }

    // Rewrite chunk-local ids as global ids (cheap, memory-bound).
    auto remap_chunk = [&](size_t, size_t c) {
      const size_t begin = chunk_begin(c), end = chunk_begin(c + 1);
      for (VertexId v = begin; v < end; ++v) {
        next_block[v] = remap[c][next_block[v]];
      }
    };
    if (pool != nullptr && num_chunks > 1) {
      pool->ParallelFor(num_chunks, remap_chunk);
    } else {
      for (size_t c = 0; c < num_chunks; ++c) remap_chunk(0, c);
    }

    ++rounds;
    size_t new_count = global.size();
    bool stable = (new_count == num_blocks);
    num_blocks = new_count;
    block.swap(next_block);
    if (stable) break;
  }
  rounds_total.Inc(rounds);
  signatures.Inc(static_cast<uint64_t>(rounds) * n);

  // Block ids are already in first-occurrence order (the merge above
  // assigns them so), so the quotient builder's renumbering is the identity.
  BisimResult result = MaterializeQuotient(g, labels, std::move(block),
                                           num_blocks);
  result.refinement_rounds = rounds;
  return result;
}

BisimResult MaterializeQuotient(const Graph& g,
                                std::span<const LabelId> labels,
                                std::vector<uint32_t> partition,
                                size_t id_bound,
                                std::vector<uint32_t>* old_to_final) {
  TRACE_SPAN("bisim/materialize");
  constexpr uint32_t kUnset = UINT32_MAX;
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

BisimResult CoarsenQuotient(const BisimResult& fine,
                            std::span<const uint32_t> coarse, size_t id_bound,
                            std::vector<uint32_t>* old_to_final) {
  // Every edge of g/(coarse ∘ fine) is the coarse image of an edge of g/fine,
  // and a coarse block's first member over g lies in its lowest fine block,
  // so renumbering over the summary's scan gives the same ids.
  const Graph& q = fine.summary;
  BisimResult result = MaterializeQuotient(
      q, q.labels(), {coarse.begin(), coarse.end()}, id_bound, old_to_final);
  std::vector<VertexId> composed(fine.mapping.NumVertices());
  for (VertexId v = 0; v < composed.size(); ++v) {
    composed[v] = result.mapping.SuperOf(fine.mapping.SuperOf(v));
  }
  result.mapping = BisimMapping(composed, result.mapping.NumSupernodes());
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

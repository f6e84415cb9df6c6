#include "shard/serving_stack.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "graph/csr.h"
#include "shard/boundary.h"

namespace bigindex {

/// A cut-incident shard's boundary state: the BOUNDARY verb's export plus
/// what the near-answer filter needs. Computed from the served graph and
/// immutable once published.
struct ServingStack::Cut {
  /// Undirected distance from each local vertex to the nearest cut
  /// endpoint, capped at export_data.radius_cap (kInfDistance beyond).
  /// Ghosts and owned cut endpoints are at distance 0.
  std::vector<uint32_t> dist_to_cut;
  /// Locality radius per registered algorithm name, ascending by name;
  /// 0 = unknown (no filtering, no completion for that algorithm).
  std::vector<std::pair<std::string, uint32_t>> algo_radius;
  BoundaryExport export_data;

  uint32_t RadiusOf(std::string_view algo) const {
    auto it = std::lower_bound(
        algo_radius.begin(), algo_radius.end(), algo,
        [](const auto& e, std::string_view a) { return e.first < a; });
    if (it == algo_radius.end() || it->first != algo) return 0;
    return it->second;
  }
};

namespace {

SearchServiceOptions ServiceOptionsFor(SearchServiceOptions options,
                                       const ShardImageInfo& shard) {
  // A shard does not cache: the coordinator caches each merged answer once.
  if (shard.IsSharded()) options.cache.capacity = 0;
  return options;
}

}  // namespace

ServingStack::ServingStack(BuiltShard built, uint64_t fingerprint,
                           SearchServiceOptions service,
                           LiveUpdaterOptions updater)
    : updater_(std::make_shared<const BigIndex>(std::move(built.index)),
               /*initial_engine=*/nullptr, std::move(updater)),
      service_(updater_.versions().Current()->engine,
               ServiceOptionsFor(std::move(service), built.shard)) {
  const std::shared_ptr<const QueryEngine> engine = service_.engine_snapshot();
  service_.set_identity(ServiceIdentity{
      .fingerprint = fingerprint,
      .num_layers = static_cast<uint32_t>(engine->index().NumLayers()),
      .shard_id = built.shard.shard_id,
      .num_shards = built.shard.num_shards,
  });

  global_of_ = std::move(built.shard.global_of);
  if (!built.shard.ghosts.empty()) {
    is_ghost_.assign(global_of_.size(), false);
    for (VertexId g : built.shard.ghosts) is_ghost_[g] = true;
    InstallCut(*engine);
  } else {
    // A 1-shard connectivity-closed plan maps every vertex to itself;
    // dropping an identity remap makes Query a pure pass-through. Ghost-
    // bearing shards keep theirs: ghosts must never pass as owned.
    bool identity = true;
    for (size_t i = 0; i < global_of_.size() && identity; ++i) {
      identity = global_of_[i] == static_cast<VertexId>(i);
    }
    if (identity) global_of_.clear();
  }

  updater_.set_swap([this](std::shared_ptr<const QueryEngine> next) {
    // Install the successor's boundary before publishing its engine, so
    // post-swap queries see the matching filter.
    if (!is_ghost_.empty()) InstallCut(*next);
    return service_.SwapEngine(std::move(next));
  });
  service_.set_updater([this](std::span<const GraphUpdate> updates) {
    return updater_.Apply(updates);
  });
  service_.set_rollbacker([this] { return updater_.Rollback(); });
}

StatusOr<QueryResult> ServingStack::Query(EngineQuery query) {
  if (global_of_.empty()) return service_.Query(std::move(query));
  const std::string algorithm = query.algorithm;
  StatusOr<QueryResult> result = service_.Query(std::move(query));
  if (!result.ok()) return result;
  if (auto cut = CurrentCut(); cut != nullptr && cut->export_data.HasCut()) {
    // Near answers (anchor within the algorithm's locality radius of the
    // cut) belong to the coordinator's completion pass; answers anchored
    // beyond it are provably shard-exact. Local ids here: the filter runs
    // before the remap.
    const uint32_t rho = cut->RadiusOf(algorithm);
    if (rho > 0) {
      auto& answers = result->answers;
      answers.erase(std::remove_if(answers.begin(), answers.end(),
                                   [&](const Answer& a) {
                                     VertexId anchor = AnchorOf(a);
                                     return anchor != kInvalidVertex &&
                                            cut->dist_to_cut[anchor] <= rho;
                                   }),
                    answers.end());
    }
  }
  for (Answer& a : result->answers) {
    if (a.root != kInvalidVertex) a.root = global_of_[a.root];
    for (VertexId& v : a.vertices) v = global_of_[v];
    for (VertexId& v : a.keyword_vertices) v = global_of_[v];
  }
  return result;
}

StatusOr<UpdateOutcome> ServingStack::ApplyUpdate(
    std::span<const GraphUpdate> updates) {
  if (global_of_.empty()) return service_.ApplyUpdate(updates);
  // The coordinator broadcasts every batch and ownership is disjoint, so
  // exactly one shard applies each intra-shard edge. Applying a
  // ghost-incident op would desync the replica from its owner and mutate
  // the immutable cut manifest (DESIGN.md §9 on replanning).
  auto owned = [this](VertexId global, VertexId* local) {
    return LocalOf(global, local) &&
           (is_ghost_.empty() || !is_ghost_[*local]);
  };
  std::vector<GraphUpdate> local;
  local.reserve(updates.size());
  for (const GraphUpdate& up : updates) {
    VertexId ls, lt;
    if (owned(up.source, &ls) && owned(up.target, &lt)) {
      local.push_back({up.kind, ls, lt});
    }
  }
  const uint64_t unowned = updates.size() - local.size();
  if (local.empty()) {
    UpdateOutcome outcome;
    outcome.skipped = unowned;
    outcome.epoch = service_.epoch();
    return outcome;
  }
  StatusOr<UpdateOutcome> outcome = service_.ApplyUpdate(local);
  if (outcome.ok()) outcome->skipped += unowned;
  return outcome;
}

StatusOr<BoundaryExport> ServingStack::Boundary() {
  auto cut = CurrentCut();
  if (cut == nullptr) return BoundaryExport{};
  return cut->export_data;
}

void ServingStack::InstallCut(const QueryEngine& engine) {
  const Graph& local = engine.index().base();
  auto cut = std::make_shared<Cut>();
  uint32_t max_rho = 0;
  for (std::string_view name : engine.AlgorithmNames()) {
    const KeywordSearchAlgorithm* algo = engine.algorithm(name);
    if (algo == nullptr) continue;
    cut->algo_radius.emplace_back(std::string(name), algo->LocalityRadius());
    max_rho = std::max(max_rho, algo->LocalityRadius());
  }
  std::sort(cut->algo_radius.begin(), cut->algo_radius.end());
  // A near answer's dependence ball reaches rho from its anchor, and the
  // anchor is at most rho from the cut, so the region must cover 2*rho.
  const uint32_t cap = 2 * max_rho;
  BoundaryExport& ex = cut->export_data;
  ex.radius_cap = cap;

  // Cut endpoints present locally: the ghosts and every owned endpoint of
  // a ghost-incident edge. Each such edge IS a cut edge: a materialized
  // cut edge has exactly one owned endpoint, and intra-shard edges two, so
  // ghost-ghost edges cannot exist.
  std::vector<VertexId> seeds;
  const CsrView out = local.Out();
  for (VertexId u = 0; u < local.NumVertices(); ++u) {
    if (is_ghost_[u]) seeds.push_back(u);
    const auto oi = out[u];
    for (uint64_t i = oi.begin; i < oi.end; ++i) {
      VertexId w = out.Slot(i);
      if (is_ghost_[u] != is_ghost_[w]) seeds.push_back(is_ghost_[u] ? w : u);
    }
  }
  DistanceFromSeeds(local, seeds, cap, cut->dist_to_cut);

  const std::vector<uint32_t>& dist = cut->dist_to_cut;
  for (VertexId v = 0; v < local.NumVertices(); ++v) {
    if (!is_ghost_[v] && dist[v] <= cap) {
      ex.vertices.emplace_back(global_of_[v], local.label(v));
    }
  }
  for (VertexId u = 0; u < local.NumVertices(); ++u) {
    const auto oi = out[u];
    for (uint64_t i = oi.begin; i < oi.end; ++i) {
      VertexId w = out.Slot(i);
      if (is_ghost_[u] != is_ghost_[w]) {
        ex.cut_edges.emplace_back(global_of_[u], global_of_[w]);
      } else if (!is_ghost_[u] && dist[u] <= cap && dist[w] <= cap) {
        ex.edges.emplace_back(global_of_[u], global_of_[w]);
      }
    }
  }

  std::lock_guard<std::mutex> lock(cut_mutex_);
  cut_ = std::move(cut);
}

std::shared_ptr<const ServingStack::Cut> ServingStack::CurrentCut() const {
  std::lock_guard<std::mutex> lock(cut_mutex_);
  return cut_;
}

bool ServingStack::LocalOf(VertexId global, VertexId* local) const {
  auto it = std::lower_bound(global_of_.begin(), global_of_.end(), global);
  if (it == global_of_.end() || *it != global) return false;
  *local = static_cast<VertexId>(it - global_of_.begin());
  return true;
}

}  // namespace bigindex

#include "shard/sharded_service.h"

#include <algorithm>
#include <utility>

#include "search/answer.h"
#include "server/search_service.h"

namespace bigindex {
namespace {

/// Registry label block of every coordinator series.
constexpr std::string_view kRole = R"(role="coordinator")";

}  // namespace

ShardedSearchService::ShardedSearchService(ShardSubstrate* substrate,
                                           ShardedServiceOptions options)
    : substrate_(substrate),
      options_(options),
      pool_(options.fanout_threads),
      cache_(options.cache),
      counters_(kRole),
      shard_queries_("bigindex_server_batched_queries_total",
                     "Unique queries dispatched to engines or shards", kRole),
      shard_failures_("bigindex_server_shard_failures_total",
                      "Failed per-shard requests", kRole),
      partial_results_("bigindex_server_partial_results_total",
                       "Merges served with a shard missing", kRole) {}

Status ShardedSearchService::Attach() {
  const size_t n = substrate_->num_shards();
  if (n == 0) return Status::InvalidArgument("substrate has no shards");
  std::vector<ShardInfo> infos;
  infos.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto info = substrate_->Info(s);
    if (!info.ok()) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) +
          " unreachable at attach: " + info.status().ToString());
    }
    infos.push_back(std::move(info).value());
  }
  for (size_t s = 0; s < n; ++s) {
    const ShardInfo& info = infos[s];
    if (info.num_shards == 0) {
      // A monolithic worker is a valid 1-shard fleet, nothing else.
      if (n != 1) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(s) +
            " serves a monolithic index inside a " + std::to_string(n) +
            "-shard fleet");
      }
    } else {
      if (info.num_shards != n) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(s) + " was built for " +
            std::to_string(info.num_shards) + " shards, fleet has " +
            std::to_string(n));
      }
      if (info.shard_id != s) {
        return Status::FailedPrecondition(
            "endpoint " + std::to_string(s) + " serves shard " +
            std::to_string(info.shard_id) +
            " (endpoints must be in shard-id order)");
      }
    }
    if (info.algorithms != infos[0].algorithms) {
      return Status::FailedPrecondition(
          "shard algorithm sets disagree between shard 0 and shard " +
          std::to_string(s));
    }
  }
  algorithms_ = std::move(infos[0].algorithms);
  // A smaller shard can legitimately summarize away in fewer layers than its
  // siblings (Build stops once a layer stops compressing), so layer counts
  // are informational: present the deepest.
  num_layers_ = 0;
  for (const ShardInfo& info : infos) {
    num_layers_ = std::max(num_layers_, info.num_layers);
  }
  // A re-attach may follow a fleet rebuild: retire the region and every
  // cached answer.
  InvalidateRegion();
  AdvanceEpoch();
  attached_.store(true, std::memory_order_release);
  return Status::OK();
}

const KeywordSearchAlgorithm* ShardedSearchService::RegionState::Find(
    const std::string& name) const {
  auto it = std::lower_bound(
      algos.begin(), algos.end(), name,
      [](const auto& e, const std::string& n) { return e.first < n; });
  if (it == algos.end() || it->first != name) return nullptr;
  return it->second.get();
}

void ShardedSearchService::InvalidateRegion() {
  std::lock_guard<std::mutex> lock(region_mutex_);
  region_.reset();
}

StatusOr<std::shared_ptr<const ShardedSearchService::RegionState>>
ShardedSearchService::EnsureRegion() {
  std::lock_guard<std::mutex> lock(region_mutex_);
  if (region_ != nullptr) return region_;
  std::vector<BoundaryExport> exports;
  const size_t n = substrate_->num_shards();
  exports.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto ex = substrate_->Boundary(s);
    if (!ex.ok()) {
      // allow_partial already trades exactness for availability on the
      // query path; do the same here and assemble from the shards that
      // answered (a missing cut-incident export surfaces as Corruption
      // below). Without it, a dead shard fails the query.
      if (options_.allow_partial) {
        shard_failures_.Inc();
        continue;
      }
      return Status::Unavailable("shard " + std::to_string(s) +
                                 " boundary fetch failed: " +
                                 ex.status().ToString());
    }
    exports.push_back(std::move(ex).value());
  }
  auto assembled = AssembleBoundaryRegion(exports);
  if (!assembled.ok()) return assembled.status();
  auto state = std::make_shared<RegionState>();
  state->region = std::move(assembled).value();
  if (state->region.has_cut) {
    for (const std::string& name : algorithms_) {
      std::unique_ptr<KeywordSearchAlgorithm> algo =
          options_.make_algorithm ? options_.make_algorithm(name)
                                  : MakeDefaultAlgorithm(name);
      if (algo == nullptr) continue;  // CompleteAcrossCut rejects the query
      const uint32_t rho = algo->LocalityRadius();
      if (2 * rho > state->region.radius_cap) {
        return Status::FailedPrecondition(
            "completion for '" + name + "' needs region radius " +
            std::to_string(2 * rho) + " but the fleet exported only " +
            std::to_string(state->region.radius_cap) +
            " — worker and coordinator algorithm configurations disagree");
      }
      state->algos.emplace_back(name, std::move(algo));
    }
    // algorithms_ arrives in the workers' registration order; Find does a
    // binary search by name.
    std::sort(state->algos.begin(), state->algos.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  region_ = std::move(state);
  return region_;
}

StatusOr<std::vector<Answer>> ShardedSearchService::CompleteAcrossCut(
    const RegionState& state, const EngineQuery& query) const {
  const KeywordSearchAlgorithm* algo = state.Find(query.algorithm);
  if (algo == nullptr) {
    return Status::FailedPrecondition(
        "fleet has a cut but the coordinator has no completion instance "
        "for algorithm '" + query.algorithm +
        "' (set ShardedServiceOptions::make_algorithm)");
  }
  const uint32_t rho = algo->LocalityRadius();
  if (rho == 0) return std::vector<Answer>{};  // workers did not filter
  std::vector<Answer> answers =
      algo->Evaluate(state.region.graph, query.keywords);
  std::vector<Answer> near;
  for (Answer& a : answers) {
    VertexId anchor = AnchorOf(a);
    // Keep exactly the answers the workers withheld: anchored within rho of
    // the cut. The region's extra vertices (between rho and the export cap)
    // only exist so those answers score exactly; answers anchored out there
    // are the far shards' responsibility and are dropped here.
    if (anchor == kInvalidVertex ||
        state.region.dist_to_cut[anchor] > rho) {
      continue;
    }
    if (a.root != kInvalidVertex) a.root = state.region.global_of[a.root];
    for (VertexId& v : a.vertices) v = state.region.global_of[v];
    for (VertexId& v : a.keyword_vertices) {
      v = state.region.global_of[v];
    }
    near.push_back(std::move(a));
  }
  return near;
}

StatusOr<QueryResult> ShardedSearchService::Query(EngineQuery query) {
  Timer timer;
  counters_.submitted.Inc();
  if (!attached()) {
    return Status::FailedPrecondition("coordinator is not attached");
  }
  if (Status valid = ValidateEngineQuery(
          query, std::find(algorithms_.begin(), algorithms_.end(),
                           query.algorithm) != algorithms_.end());
      !valid.ok()) {
    counters_.rejected_invalid.Inc();
    return valid;
  }
  query.NormalizeKeywords();
  if (options_.default_deadline_ms > 0 && query.eval.deadline.IsNever()) {
    query.eval.deadline = Deadline::After(options_.default_deadline_ms);
  }
  if (query.eval.deadline.Expired()) {
    counters_.deadline_misses.Inc();
    return Status::DeadlineExceeded("deadline expired before fan-out");
  }

  // One lookup of the caller's query. The key's epoch is read before any
  // shard is asked, so a merge that raced an epoch advance is filed under
  // the retired epoch, where no later lookup finds it.
  std::string key;
  if (cache_.capacity() > 0) {
    key = SearchService::CacheKeyFor(epoch(), query);
    std::shared_ptr<const QueryResult> hit = cache_.Lookup(key);
    counters_.CacheLookup(hit != nullptr);
    if (hit != nullptr) {
      counters_.Completed(timer.ElapsedMillis());
      return QueryResult(*hit);
    }
  }

  // Boundary completion setup: with a cut in the fleet the workers withhold
  // near answers and a per-shard top-k could displace a cut-crossing
  // answer, so fan out with top_k=0 and apply the caller's cut after the
  // merge. Cut-free fleets take none of this path.
  auto region_state = EnsureRegion();
  if (!region_state.ok()) return region_state.status();
  const std::shared_ptr<const RegionState>& region = *region_state;
  const bool completing = region->region.has_cut;
  const size_t original_top_k = query.eval.top_k;
  if (completing) query.eval.top_k = 0;

  // Fan out to every shard. ParallelFor is re-entrant across threads, so
  // concurrent coordinator queries share the pool; with fanout_threads=0
  // this runs inline.
  const size_t n = substrate_->num_shards();
  std::vector<StatusOr<QueryResult>> fetched(
      n, Status::Unavailable("shard fan-out not run"));
  shard_queries_.Inc(n);
  pool_.ParallelFor(n, [&](size_t /*slot*/, size_t s) {
    fetched[s] = substrate_->Query(s, query);
  });

  bool partial = false;
  for (size_t s = 0; s < n; ++s) {
    if (fetched[s].ok()) continue;
    shard_failures_.Inc();
    if (options_.allow_partial &&
        fetched[s].status().code() != StatusCode::kInvalidArgument &&
        fetched[s].status().code() != StatusCode::kNotFound) {
      partial = true;
      continue;
    }
    if (fetched[s].status().code() == StatusCode::kDeadlineExceeded) {
      counters_.deadline_misses.Inc();
    }
    return fetched[s].status();
  }

  // Merge: shard vertex sets are disjoint, so concatenation is the union;
  // rank with the same deterministic order a monolithic evaluation uses,
  // then apply the top-k cut.
  QueryResult merged;
  merged.algorithm = query.algorithm;
  for (StatusOr<QueryResult>& r : fetched) {
    if (!r.ok()) continue;  // allow_partial skip
    merged.breakdown.layer = std::max(merged.breakdown.layer,
                                      r->breakdown.layer);
    merged.breakdown.generalized_answers += r->breakdown.generalized_answers;
    merged.breakdown.candidate_roots += r->breakdown.candidate_roots;
    merged.answers.insert(merged.answers.end(),
                          std::make_move_iterator(r->answers.begin()),
                          std::make_move_iterator(r->answers.end()));
  }
  if (completing) {
    auto near = CompleteAcrossCut(*region, query);
    if (!near.ok()) return near.status();
    merged.answers.insert(merged.answers.end(),
                          std::make_move_iterator(near->begin()),
                          std::make_move_iterator(near->end()));
  }
  SortAnswers(merged.answers);
  if (original_top_k > 0 && merged.answers.size() > original_top_k) {
    merged.answers.resize(original_top_k);
  }
  merged.breakdown.final_answers = merged.answers.size();
  merged.wall_ms = timer.ElapsedMillis();
  if (partial) {
    partial_results_.Inc();  // served, but never cached
  } else if (!key.empty()) {
    cache_.Insert(key, merged);
  }
  counters_.Completed(merged.wall_ms);
  return merged;
}

uint64_t ShardedSearchService::AdvanceEpoch() {
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  counters_.EpochChanged();
  return epoch;
}

uint64_t ShardedSearchService::BumpEpoch() {
  // Best effort on the remote side; the coordinator's cache is invalidated
  // unconditionally (a shard whose bump failed keeps serving the same
  // index, so refilled entries stay correct).
  for (size_t s = 0; s < substrate_->num_shards(); ++s) {
    (void)substrate_->BumpEpoch(s);
  }
  InvalidateRegion();
  return AdvanceEpoch();
}

StatusOr<uint64_t> ShardedSearchService::Rollback() {
  if (!attached()) {
    return Status::FailedPrecondition("coordinator is not attached");
  }
  const size_t n = substrate_->num_shards();
  std::vector<StatusOr<uint64_t>> per(
      n, Status::Unavailable("shard rollback not run"));
  pool_.ParallelFor(n, [&](size_t /*slot*/, size_t s) {
    per[s] = substrate_->Rollback(s);
  });

  bool any_changed = false;
  Status first_failure = Status::OK();
  std::vector<bool> rolled(n, false);
  for (size_t s = 0; s < n; ++s) {
    if (!per[s].ok()) {
      // A shard the last batch never touched retains no previous version
      // and answers FailedPrecondition — that is "nothing to undo here",
      // not a broadcast failure (a single-shard update must stay
      // reversible fleet-wide).
      if (per[s].status().code() == StatusCode::kFailedPrecondition) continue;
      shard_failures_.Inc();
      if (first_failure.ok()) first_failure = per[s].status();
      continue;
    }
    any_changed = true;
    rolled[s] = true;
  }
  // Any shard that rolled back changed what the fleet serves, so the epoch
  // advances before any outcome is reported: a partial rollback (a retry
  // re-broadcasts; already-rolled-back shards then answer
  // FailedPrecondition, which the retry skips) or a failed coherence check
  // below must not leave old merges reachable.
  InvalidateRegion();
  const uint64_t epoch = any_changed ? AdvanceEpoch() : this->epoch();
  if (!first_failure.ok()) return first_failure;
  if (!any_changed) {
    return Status::FailedPrecondition(
        "no shard had a previous index version to restore");
  }

  // Fleet-coherence check: every rolled-back shard must still report the
  // epoch its rollback returned — an update racing the broadcast would
  // leave the fleet serving mixed generations.
  for (size_t s = 0; s < n; ++s) {
    if (!rolled[s]) continue;
    auto info = substrate_->Info(s);
    if (!info.ok()) return info.status();
    if (info->epoch != *per[s]) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) + " epoch moved during rollback (" +
          std::to_string(*per[s]) + " -> " + std::to_string(info->epoch) +
          "); a concurrent update raced the broadcast");
    }
  }
  counters_.rollbacks.Inc();
  return epoch;
}

StatusOr<UpdateOutcome> ShardedSearchService::ApplyUpdate(
    std::span<const GraphUpdate> updates) {
  if (!attached()) {
    counters_.updates_rejected.Inc();
    return Status::FailedPrecondition("coordinator is not attached");
  }
  const size_t n = substrate_->num_shards();
  std::vector<StatusOr<UpdateOutcome>> per(
      n, Status::Unavailable("shard update not run"));
  pool_.ParallelFor(n, [&](size_t /*slot*/, size_t s) {
    per[s] = substrate_->Update(s, updates);
  });

  // Fold the per-shard outcomes.
  UpdateOutcome merged;
  bool any_changed = false;
  Status first_failure = Status::OK();
  for (size_t s = 0; s < n; ++s) {
    if (!per[s].ok()) {
      shard_failures_.Inc();
      if (first_failure.ok()) first_failure = per[s].status();
      continue;
    }
    merged.applied += per[s]->applied;
    merged.layers_rebuilt += per[s]->layers_rebuilt;
    // Mode severity: none < incremental < wholesale < rebuild (the enum's
    // declaration order); report the fleet's worst.
    if (per[s]->mode > merged.mode) merged.mode = per[s]->mode;
    if (per[s]->mode != UpdateOutcome::Mode::kNone) any_changed = true;
  }
  // An applied update can move edges near the cut, so the workers' exports
  // (recomputed at their engine swaps) may differ: re-assemble lazily. The
  // epoch advances whenever a shard changed, also when another failed: a
  // partially applied batch must not leave old merges reachable (the caller
  // retries the batch; retry is idempotent — applied ops normalize to net
  // no-ops).
  if (any_changed || !first_failure.ok()) InvalidateRegion();
  merged.epoch = any_changed ? AdvanceEpoch() : epoch();
  if (!first_failure.ok()) {
    counters_.updates_rejected.Inc();
    return first_failure;
  }

  // Ownership is disjoint, so summed applied <= batch size and the
  // coordinator-level accounting mirrors a monolithic server's.
  merged.skipped = updates.size() - merged.applied;
  counters_.UpdateApplied(merged.applied,
                          merged.mode >= UpdateOutcome::Mode::kWholesale);
  return merged;
}

ServiceStats ShardedSearchService::Snapshot() const {
  ServiceStats s;
  counters_.Fill(&s, cache_.stats());
  // Fan-out counters ride the batch fields: one "batch" per completed
  // query, batched_queries = shard requests actually sent.
  s.batches = s.completed;
  s.batched_queries = shard_queries_.value();
  s.mean_batch_size =
      s.batches ? static_cast<double>(s.batched_queries) / s.batches : 0;
  s.shard_failures = shard_failures_.value();
  s.partial_results = partial_results_.value();
  s.epoch = epoch();
  return s;
}

std::vector<std::string> ShardedSearchService::AlgorithmNames() const {
  return algorithms_;
}

ServiceIdentity ShardedSearchService::Identity() const {
  return ServiceIdentity{.fingerprint = 0,
                         .num_layers = num_layers_,
                         .shard_id = 0,
                         .num_shards = 0};
}

}  // namespace bigindex

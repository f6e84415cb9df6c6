#include "update/live_updater.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace bigindex {
namespace {

struct UpdaterMetrics {
  Counter& batches;
  Counter& edges;
  Counter& swaps;
  Histogram& apply_ms;
  Histogram& lock_wait_ms;

  static UpdaterMetrics& Get() {
    static UpdaterMetrics m{
        MetricsRegistry::Global().GetCounter(
            "bigindex_update_batches_total",
            "Update batches applied through LiveUpdater"),
        MetricsRegistry::Global().GetCounter(
            "bigindex_update_edges_total",
            "Net edge changes applied through LiveUpdater"),
        MetricsRegistry::Global().GetCounter(
            "bigindex_update_swap_total",
            "Index versions swapped into serving"),
        MetricsRegistry::Global().GetHistogram(
            "bigindex_update_apply_ms",
            "Wall time of one LiveUpdater::Apply once it holds the writer "
            "lock (maintain + engine + publish + swap), ms"),
        MetricsRegistry::Global().GetHistogram(
            "bigindex_update_lock_wait_ms",
            "Time one LiveUpdater::Apply waited for the writer lock, ms"),
    };
    return m;
  }
};

UpdateOutcome::Mode ModeOf(const MaintainReport& report) {
  if (report.full_rebuild) return UpdateOutcome::Mode::kRebuild;
  for (const MaintainLayerReport& layer : report.layers) {
    if (layer.mode == LayerMaintenance::kWholesale) {
      return UpdateOutcome::Mode::kWholesale;
    }
  }
  return UpdateOutcome::Mode::kIncremental;
}

}  // namespace

LiveUpdater::LiveUpdater(std::shared_ptr<const BigIndex> initial,
                         std::shared_ptr<const QueryEngine> initial_engine,
                         LiveUpdaterOptions options)
    : options_(std::move(options)) {
  if (initial_engine == nullptr) initial_engine = BuildEngine(initial);
  versions_.Publish(std::move(initial), std::move(initial_engine));
}

std::shared_ptr<const QueryEngine> LiveUpdater::BuildEngine(
    std::shared_ptr<const BigIndex> index) const {
  auto engine = std::make_shared<QueryEngine>(std::move(index),
                                              options_.engine);
  if (options_.configure_engine) options_.configure_engine(*engine);
  return engine;
}

StatusOr<UpdateOutcome> LiveUpdater::Apply(std::span<const GraphUpdate> updates,
                                           MaintainReport* report) {
  TRACE_SPAN("update/apply");
  UpdaterMetrics& metrics = UpdaterMetrics::Get();
  Timer wait;
  std::lock_guard<std::mutex> writer(write_mutex_);
  metrics.lock_wait_ms.Record(wait.ElapsedMillis());
  Timer timer;

  std::shared_ptr<const IndexVersion> cur = versions_.Current();

  MaintainReport local_report;
  if (report == nullptr) report = &local_report;
  auto successor = MaintainIndex(*cur->index, updates, report);
  if (!successor.ok()) return successor.status();

  UpdateOutcome outcome;
  outcome.applied = report->delta.added.size() + report->delta.removed.size();
  outcome.skipped = updates.size() - outcome.applied;
  outcome.layers_rebuilt = report->LayersRebuilt();
  metrics.batches.Inc();
  metrics.edges.Inc(outcome.applied);

  if (outcome.applied == 0) {
    // No net effect: serve the existing version unchanged. epoch = 0 tells
    // the serving layer to substitute its (un-bumped) current epoch.
    outcome.mode = UpdateOutcome::Mode::kNone;
    metrics.apply_ms.Record(timer.ElapsedMillis());
    return outcome;
  }
  outcome.mode = ModeOf(*report);

  auto index = std::make_shared<const BigIndex>(std::move(successor).value());
  std::shared_ptr<const QueryEngine> engine = BuildEngine(index);
  uint64_t sequence = versions_.Publish(std::move(index), engine);
  {
    TRACE_SPAN("update/swap");
    // Publish-then-bump: the swap hook installs the engine in the serving
    // layer BEFORE bumping the answer-cache epoch (see header contract).
    outcome.epoch = swap_ ? swap_(std::move(engine)) : sequence;
  }
  metrics.swaps.Inc();
  metrics.apply_ms.Record(timer.ElapsedMillis());
  return outcome;
}

StatusOr<uint64_t> LiveUpdater::Rollback() {
  TRACE_SPAN("update/rollback");
  std::lock_guard<std::mutex> writer(write_mutex_);
  std::shared_ptr<const IndexVersion> previous = versions_.Previous();
  if (previous == nullptr) {
    return Status::FailedPrecondition("no previous index version retained");
  }
  auto sequence = versions_.Rollback();
  if (!sequence.ok()) return sequence.status();
  UpdaterMetrics::Get().swaps.Inc();
  if (swap_) return swap_(previous->engine);
  return *sequence;
}

}  // namespace bigindex

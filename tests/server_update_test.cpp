// Serving-side live-update tests: IndexVersionStore publish/rollback
// semantics, LiveUpdater outcome accounting and swap wiring, the UPDATE
// verb through the line protocol, the FormatUpdateLine /
// ParseUpdateOutcomeLine wire round-trip, and the answer-cache
// epoch-invalidation race (a query racing an epoch swap must never be
// served a pre-swap cached answer for a post-swap epoch).
// tools/ci.sh re-runs this suite under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/big_index.h"
#include "core/index_image.h"
#include "engine/query_engine.h"
#include "graph/label_dictionary.h"
#include "obs/metrics.h"
#include "server/line_protocol.h"
#include "server/search_service.h"
#include "shard/serving_stack.h"
#include "update/delta.h"
#include "update/live_updater.h"
#include "update/version_store.h"

namespace bigindex {
namespace {

GraphUpdate Add(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kAddEdge, u, v};
}
GraphUpdate Remove(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kRemoveEdge, u, v};
}

// Ontology: leaves {0..5} -> mids {6,7,8} -> root 9 (as in server_test).
Ontology MakeOntology() {
  OntologyBuilder b;
  b.AddSupertypeEdge(0, 6);
  b.AddSupertypeEdge(1, 6);
  b.AddSupertypeEdge(2, 6);
  b.AddSupertypeEdge(3, 7);
  b.AddSupertypeEdge(4, 7);
  b.AddSupertypeEdge(5, 8);
  b.AddSupertypeEdge(6, 9);
  b.AddSupertypeEdge(7, 9);
  b.AddSupertypeEdge(8, 9);
  return std::move(b.Build()).value();
}

// Path graph 0(label 0) -> 1(label 1) -> 2(label 2), plus spare vertices.
// Removing/adding 1->2 flips whether keywords {0,2} connect — the served
// answer set changes observably with each toggle.
Graph ToggleGraph() {
  GraphBuilder b;
  for (LabelId l = 0; l < 6; ++l) b.AddVertex(l);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  return std::move(b.Build()).value();
}

std::string Serialize(const BigIndex& index) {
  LabelDictionary dict;
  for (size_t i = 0; i < 10; ++i) dict.Intern("t" + std::to_string(i));
  std::ostringstream out;
  EXPECT_TRUE(WriteIndexImage(index, dict, out).ok());
  return out.str();
}

/// The whole write path in one harness: a whole-graph ServingStack, whose
/// updater swaps successors into its service.
struct UpdateFixture {
  Ontology ontology = MakeOntology();
  ServingStack stack;
  LiveUpdater& updater = stack.updater();
  // The bootstrap generation.
  std::shared_ptr<const BigIndex> index = updater.versions().Current()->index;
  std::shared_ptr<const QueryEngine> engine =
      updater.versions().Current()->engine;

  explicit UpdateFixture(Graph g = ToggleGraph())
      : stack(BuiltShard{std::move(BigIndex::Build(g, &ontology,
                                                   {.max_layers = 2}))
                             .value(),
                         {}},
              /*fingerprint=*/0) {}

  EngineQuery ConnectivityQuery() {
    EngineQuery q;
    q.algorithm = "bkws";
    q.keywords = {0, 2};
    return q;
  }
};

// ---------------------------------------------------------------------------
// IndexVersionStore.

TEST(VersionStore, PublishRetainsPreviousAndAdvancesSequence) {
  UpdateFixture fx;  // only for a ready-made index/engine pair
  IndexVersionStore store;
  EXPECT_EQ(store.Current(), nullptr);
  EXPECT_EQ(store.Previous(), nullptr);

  EXPECT_EQ(store.Publish(fx.index, fx.engine), 1u);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->sequence, 1u);
  EXPECT_EQ(store.Previous(), nullptr);

  EXPECT_EQ(store.Publish(fx.index, fx.engine), 2u);
  EXPECT_EQ(store.Current()->sequence, 2u);
  ASSERT_NE(store.Previous(), nullptr);
  EXPECT_EQ(store.Previous()->sequence, 1u);
}

TEST(VersionStore, ReadersKeepPinnedVersionsAliveAcrossPublish) {
  UpdateFixture fx;
  IndexVersionStore store;
  store.Publish(fx.index, fx.engine);
  std::shared_ptr<const IndexVersion> pinned = store.Current();
  store.Publish(fx.index, fx.engine);
  store.Publish(fx.index, fx.engine);  // generation 1 leaves the store
  // The reader's pin is the RCU grace period: the old version stays valid
  // until the last snapshot drops.
  EXPECT_EQ(pinned->sequence, 1u);
  EXPECT_NE(pinned->index, nullptr);
  EXPECT_NE(pinned->engine, nullptr);
}

TEST(VersionStore, RollbackConsumesPreviousAndRepublishes) {
  UpdateFixture fx;
  IndexVersionStore store;
  EXPECT_EQ(store.Rollback().status().code(),
            StatusCode::kFailedPrecondition);

  store.Publish(fx.index, fx.engine);
  auto other = std::make_shared<const BigIndex>(*fx.index);
  store.Publish(other, fx.engine);

  auto rolled = store.Rollback();
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(*rolled, 3u);  // a rollback is a new generation, not a rewind
  EXPECT_EQ(store.Current()->index, fx.index);
  // The previous slot is consumed: no ping-pong rollback-of-rollback.
  EXPECT_EQ(store.Previous(), nullptr);
  EXPECT_EQ(store.Rollback().status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// LiveUpdater.

/// Sample count of one of LiveUpdater's process-wide histograms.
uint64_t UpdaterSamples(std::string_view name) {
  return MetricsRegistry::Global().GetHistogram(name, "").count();
}

TEST(LiveUpdater, OutcomeAccountingCoversWholeBatch) {
  UpdateFixture fx;
  const uint64_t apply_before = UpdaterSamples("bigindex_update_apply_ms");
  const uint64_t wait_before = UpdaterSamples("bigindex_update_lock_wait_ms");
  std::vector<GraphUpdate> batch = {
      Add(3, 4),     // net add
      Add(3, 4),     // duplicate
      Add(4, 5),     // cancelled below
      Remove(4, 5),  // add-then-remove
      Remove(2, 0),  // remove of an absent edge
  };
  auto outcome = fx.updater.Apply(batch);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, 1u);
  EXPECT_EQ(outcome->skipped, 4u);
  EXPECT_NE(outcome->mode, UpdateOutcome::Mode::kNone);
  EXPECT_GT(outcome->layers_rebuilt, 0u);
  EXPECT_EQ(outcome->epoch, fx.stack.epoch());
  // One sample per Apply in each histogram: lock wait and time under lock.
  EXPECT_EQ(UpdaterSamples("bigindex_update_apply_ms"), apply_before + 1);
  EXPECT_EQ(UpdaterSamples("bigindex_update_lock_wait_ms"), wait_before + 1);
}

TEST(LiveUpdater, NoopBatchPublishesNothing) {
  UpdateFixture fx;
  const uint64_t sequence = fx.updater.versions().Current()->sequence;
  const uint64_t epoch = fx.stack.epoch();
  const uint64_t apply_before = UpdaterSamples("bigindex_update_apply_ms");
  const uint64_t wait_before = UpdaterSamples("bigindex_update_lock_wait_ms");
  auto outcome = fx.updater.Apply(std::vector<GraphUpdate>{Remove(5, 0)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, 0u);
  EXPECT_EQ(outcome->skipped, 1u);
  EXPECT_EQ(outcome->mode, UpdateOutcome::Mode::kNone);
  EXPECT_EQ(outcome->epoch, 0u);  // sentinel: nothing was swapped
  EXPECT_EQ(fx.updater.versions().Current()->sequence, sequence);
  EXPECT_EQ(fx.stack.epoch(), epoch);
  EXPECT_EQ(UpdaterSamples("bigindex_update_apply_ms"), apply_before + 1);
  EXPECT_EQ(UpdaterSamples("bigindex_update_lock_wait_ms"), wait_before + 1);
}

TEST(LiveUpdater, SuccessorMatchesRebuildAndSwapInstallsIt) {
  UpdateFixture fx;
  auto outcome = fx.updater.Apply(std::vector<GraphUpdate>{Remove(1, 2)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, 1u);

  auto updated = ApplyUpdates(fx.index->base(),
                              std::vector<GraphUpdate>{Remove(1, 2)});
  ASSERT_TRUE(updated.ok());
  auto rebuilt = BigIndex::Build(*updated, &fx.ontology, {.max_layers = 2});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(Serialize(*fx.updater.versions().Current()->index),
            Serialize(*rebuilt));
  // The serving engine now evaluates over the successor index.
  EXPECT_EQ(fx.stack.service().engine_snapshot()->index().base().NumEdges(),
            updated->NumEdges());
}

TEST(LiveUpdater, RollbackRestoresPreviousGeneration) {
  UpdateFixture fx;
  const std::string original = Serialize(*fx.index);
  ASSERT_TRUE(fx.updater.Apply(std::vector<GraphUpdate>{Add(3, 4)}).ok());
  EXPECT_NE(Serialize(*fx.updater.versions().Current()->index), original);

  const uint64_t epoch_before = fx.stack.epoch();
  auto rolled = fx.updater.Rollback();
  ASSERT_TRUE(rolled.ok());
  EXPECT_GT(*rolled, epoch_before);  // rollback swaps: readers see a bump
  EXPECT_EQ(Serialize(*fx.updater.versions().Current()->index), original);
  EXPECT_EQ(fx.updater.Rollback().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LiveUpdater, TallerHierarchyReportsWholesaleMode) {
  // Every label is the ontology root 9 and the chain 0 -> 1 -> 2 is already
  // bisimulation-minimal, so the index has no layer. Removing 1 -> 2 makes 1
  // and 2 bisimilar: the new layer 1 has no old layer to re-sign against,
  // so it is summarized wholesale.
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.AddVertex(9);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  UpdateFixture fx(std::move(b.Build()).value());
  ASSERT_EQ(fx.index->NumLayers(), 0u);
  auto outcome =
      fx.stack.ApplyUpdate(std::vector<GraphUpdate>{Remove(1, 2)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->mode, UpdateOutcome::Mode::kWholesale);
  EXPECT_EQ(fx.updater.versions().Current()->index->NumLayers(), 1u);
  // The serving layer counts wholesale/rebuild outcomes as fallbacks.
  EXPECT_EQ(fx.stack.Snapshot().update_fallbacks, 1u);
}

// ---------------------------------------------------------------------------
// SearchService::ApplyUpdate.

TEST(ServiceUpdate, NoUpdaterWiredReturnsUnimplemented) {
  Ontology ontology = MakeOntology();
  auto index = std::make_shared<const BigIndex>(
      std::move(BigIndex::Build(ToggleGraph(), &ontology, {})).value());
  SearchService service(
      std::make_shared<const QueryEngine>(index, QueryEngineOptions{}));
  auto outcome =
      service.ApplyUpdate(std::vector<GraphUpdate>{Add(3, 4)});
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(service.Snapshot().updates_rejected, 1u);
}

TEST(ServiceUpdate, CountersAndEpochAdvanceThroughService) {
  UpdateFixture fx;
  const uint64_t epoch = fx.stack.epoch();
  auto outcome =
      fx.stack.ApplyUpdate(std::vector<GraphUpdate>{Remove(1, 2)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->epoch, epoch);
  EXPECT_EQ(outcome->epoch, fx.stack.epoch());

  // No-net-effect batch through the service: epoch unchanged but reported
  // as the current one (the updater's 0 sentinel never escapes).
  auto noop = fx.stack.ApplyUpdate(std::vector<GraphUpdate>{Add(1, 1),
                                                              Remove(1, 1)});
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->mode, UpdateOutcome::Mode::kNone);
  EXPECT_EQ(noop->epoch, fx.stack.epoch());

  ServiceStats stats = fx.stack.Snapshot();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.updates_rejected, 0u);
  EXPECT_GE(stats.epoch_age_s, 0.0);
}

TEST(ServiceUpdate, QueriesSeeTheUpdatedGraph) {
  UpdateFixture fx;
  EngineQuery q = fx.ConnectivityQuery();
  auto before = fx.stack.Query(q);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->answers.empty());  // 0 -> 1 -> 2 connects {0,2}

  auto cut = fx.stack.ApplyUpdate(std::vector<GraphUpdate>{Remove(1, 2)});
  ASSERT_TRUE(cut.ok());
  auto after = fx.stack.Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->answers.empty());

  auto heal = fx.stack.ApplyUpdate(std::vector<GraphUpdate>{Add(1, 2)});
  ASSERT_TRUE(heal.ok());
  auto healed = fx.stack.Query(q);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->answers, before->answers);
}

// The satellite race test: readers hammer one query while the writer
// toggles the connecting edge through full epoch swaps. The admission path
// captures the cache-key epoch before the engine snapshot is pinned, so a
// cache entry keyed epoch E is always computed on the engine of epoch E or
// newer — which the writer observes as: a query issued after ApplyUpdate
// returns NEVER sees the pre-swap answer set. TSan (tools/ci.sh) checks the
// same interleavings for data races.
TEST(CacheEpochRace, PostSwapQueryNeverServedPreSwapCache) {
  UpdateFixture fx;
  EngineQuery q = fx.ConnectivityQuery();
  auto connected = fx.stack.Query(q);
  ASSERT_TRUE(connected.ok());
  const std::vector<Answer> with_edge = connected->answers;
  ASSERT_FALSE(with_edge.empty());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&fx, &q, &with_edge, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = fx.stack.Query(q);
        ASSERT_TRUE(result.ok());
        // Every result is one of the two consistent states — never a
        // partial or mixed view.
        ASSERT_TRUE(result->answers.empty() || result->answers == with_edge);
      }
    });
  }

  bool present = true;
  for (int i = 0; i < 12; ++i) {
    GraphUpdate toggle = present ? Remove(1, 2) : Add(1, 2);
    present = !present;
    auto outcome = fx.stack.ApplyUpdate(std::vector<GraphUpdate>{toggle});
    ASSERT_TRUE(outcome.ok());
    // Issued strictly after the swap: must reflect the new graph, even
    // though the pre-swap answer for this exact query is still cached
    // under the old epoch.
    auto result = fx.stack.Query(q);
    ASSERT_TRUE(result.ok());
    if (present) {
      ASSERT_EQ(result->answers, with_edge) << "iteration " << i;
    } else {
      ASSERT_TRUE(result->answers.empty()) << "iteration " << i;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
}

// ---------------------------------------------------------------------------
// Wire format round-trip.

TEST(UpdateProtocol, FormatAndParseRoundTrip) {
  std::vector<GraphUpdate> batch = {Add(1, 2), Remove(3, 4), Add(5, 5)};
  EXPECT_EQ(FormatUpdateLine(batch), "update add:1:2 remove:3:4 add:5:5");

  UpdateOutcome out;
  ASSERT_TRUE(ParseUpdateOutcomeLine(
                  "OK applied=3 skipped=1 rebuilt=2 epoch=7 mode=incremental",
                  &out)
                  .ok());
  EXPECT_EQ(out.applied, 3u);
  EXPECT_EQ(out.skipped, 1u);
  EXPECT_EQ(out.layers_rebuilt, 2u);
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.mode, UpdateOutcome::Mode::kIncremental);

  // Unknown keys are skipped (forward compatibility); missing required
  // keys and unknown modes are errors.
  ASSERT_TRUE(ParseUpdateOutcomeLine(
                  "OK applied=0 shiny=yes epoch=1 mode=none", &out)
                  .ok());
  EXPECT_EQ(out.mode, UpdateOutcome::Mode::kNone);
  EXPECT_FALSE(ParseUpdateOutcomeLine("OK skipped=1 mode=none", &out).ok());
  EXPECT_FALSE(
      ParseUpdateOutcomeLine("OK applied=1 epoch=2 mode=sideways", &out).ok());
}

// ---------------------------------------------------------------------------
// The UPDATE verb through the line protocol.

TEST(UpdateVerb, EndToEndThroughLineHandler) {
  UpdateFixture fx;
  LineHandler handler(&fx.stack, nullptr);

  LineHandler::Result r = handler.Handle("update remove:1:2 add:3:4");
  ASSERT_TRUE(r.response.starts_with("OK applied=2")) << r.response;
  UpdateOutcome outcome;
  std::string head = r.response.substr(0, r.response.find('\n'));
  ASSERT_TRUE(ParseUpdateOutcomeLine(head, &outcome).ok()) << head;
  EXPECT_EQ(outcome.epoch, fx.stack.epoch());
  EXPECT_NE(outcome.mode, UpdateOutcome::Mode::kNone);

  // INFO reflects the applied batch and carries the epoch age.
  LineHandler::Result info = handler.Handle("info");
  EXPECT_NE(info.response.find("updates=2/0/"), std::string::npos)
      << info.response;
  EXPECT_NE(info.response.find("epoch_age_s="), std::string::npos);

  // Malformed ops and empty batches are protocol errors, not crashes.
  EXPECT_TRUE(handler.Handle("update").response.starts_with("ERR"));
  EXPECT_TRUE(handler.Handle("update add:1").response.starts_with("ERR"));
  EXPECT_TRUE(handler.Handle("update grow:1:2").response.starts_with("ERR"));
  EXPECT_TRUE(handler.Handle("update add:x:2").response.starts_with("ERR"));
  // 2^32 does not fit a VertexId; it must not wrap to vertex 0.
  EXPECT_TRUE(handler.Handle("update add:4294967296:1")
                  .response.starts_with("ERR"));
}

// ---------------------------------------------------------------------------
// The ROLLBACK verb.

TEST(RollbackVerb, NoRollbackerWiredReturnsUnimplemented) {
  Ontology ontology = MakeOntology();
  auto index = std::make_shared<const BigIndex>(
      std::move(BigIndex::Build(ToggleGraph(), &ontology, {})).value());
  SearchService service(
      std::make_shared<const QueryEngine>(index, QueryEngineOptions{}));
  LineHandler handler(&service, nullptr);
  LineHandler::Result r = handler.Handle("rollback");
  EXPECT_TRUE(r.response.starts_with("ERR Unimplemented")) << r.response;
}

TEST(RollbackVerb, EndToEndThroughLineHandler) {
  UpdateFixture fx;
  LineHandler handler(&fx.stack, nullptr);
  EngineQuery q = fx.ConnectivityQuery();
  auto before = fx.stack.Query(q);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->answers.empty());  // 0 -> 1 -> 2 connects {0,2}

  // Nothing retained yet: the verb refuses instead of serving garbage.
  LineHandler::Result premature = handler.Handle("rollback");
  EXPECT_TRUE(premature.response.starts_with("ERR FailedPrecondition"))
      << premature.response;

  // Cut the connecting edge, then undo it through the verb: the pre-update
  // answers come back and the epoch advances (the rollback is itself an
  // epoch swap, never an in-place mutation).
  ASSERT_TRUE(
      handler.Handle("update remove:1:2").response.starts_with("OK"));
  auto cut = fx.stack.Query(q);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->answers.empty());
  const uint64_t epoch_before = fx.stack.epoch();

  LineHandler::Result r = handler.Handle("rollback");
  ASSERT_TRUE(r.response.starts_with("OK epoch=")) << r.response;
  EXPECT_GT(fx.stack.epoch(), epoch_before);
  auto restored = fx.stack.Query(q);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->answers, before->answers);

  // One generation of history: a second consecutive rollback refuses.
  LineHandler::Result again = handler.Handle("rollback");
  EXPECT_TRUE(again.response.starts_with("ERR FailedPrecondition"))
      << again.response;

  // INFO and STATS expose the (successful) rollback count.
  LineHandler::Result info = handler.Handle("info");
  EXPECT_NE(info.response.find("rollbacks=1"), std::string::npos)
      << info.response;
  EXPECT_EQ(fx.stack.Snapshot().rollbacks, 1u);
}

TEST(UpdateVerb, DefaultQueryServiceIsReadOnly) {
  UpdateFixture fx;
  // A QueryService subclass that never overrides ApplyUpdate reports
  // Unimplemented — the compiled-in default keeps read-only services
  // read-only.
  class ReadOnly : public QueryService {
   public:
    explicit ReadOnly(QueryService* inner) : inner_(inner) {}
    StatusOr<QueryResult> Query(EngineQuery query) override {
      return inner_->Query(std::move(query));
    }
    uint64_t epoch() const override { return inner_->epoch(); }
    uint64_t BumpEpoch() override { return inner_->BumpEpoch(); }
    ServiceStats Snapshot() const override { return inner_->Snapshot(); }
    std::vector<std::string> AlgorithmNames() const override {
      return inner_->AlgorithmNames();
    }
    ServiceIdentity Identity() const override { return inner_->Identity(); }

   private:
    QueryService* inner_;
  } read_only(&fx.stack);
  EXPECT_EQ(read_only.ApplyUpdate(std::vector<GraphUpdate>{Add(0, 1)})
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace bigindex

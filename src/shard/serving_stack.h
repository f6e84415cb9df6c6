// ServingStack — one served BiG-index, the whole graph or one shard of a
// plan, behind the QueryService interface:
//
//   QueryService -> [shard edge] -> SearchService -> QueryEngine
//                                   LiveUpdater --(swap)--^
//
// Every process that serves an index stands up exactly this stack:
// bigindex_serverd (monolithic and --shard-of K), each shard of
// InProcessSubstrate, bigindex_client --inprocess and bench_server's mixed
// read/update phase. The stack owns every part and its lifecycle:
//
//   * the engine and the SearchService (admission, dispatch strands, answer
//     cache). A shard serves without an answer cache: the coordinator in
//     front of it caches each query's merged answer once.
//   * the LiveUpdater and its three hooks: successor engines are swapped
//     into the service, and the UPDATE / ROLLBACK verbs run through the
//     updater.
//   * the identity the INFO verb reports: the index's layer count, the
//     shard id/count and the image fingerprint.
//   * for a shard only, the serving edge that makes the worker speak global
//     vertex ids (DESIGN.md §9):
//       - answers are rewritten local -> global through the shard's remap.
//         The remap is strictly ascending (ExtractShard's order-preserving
//         invariant), so rewritten vertex sets stay sorted;
//       - updates are translated global -> local, and only edges whose BOTH
//         endpoints this shard owns are applied. The rest count as skipped.
//         Ghosts are present locally but not owned, so ghost-incident ops
//         are skipped everywhere;
//       - on a cut-incident shard (ghosts non-empty), answers anchored within
//         the queried algorithm's locality radius of the cut are withheld:
//         the coordinator's completion pass re-derives exactly those on the
//         assembled boundary region (the BOUNDARY verb serves this shard's
//         export). The boundary is a function of the served graph, so it is
//         recomputed for every successor engine before the swap publishes it.
//
// For the whole graph (num_shards == 0), Query and ApplyUpdate pass straight
// through to the SearchService.

#ifndef BIGINDEX_SHARD_SERVING_STACK_H_
#define BIGINDEX_SHARD_SERVING_STACK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "server/query_service.h"
#include "server/search_service.h"
#include "shard/shard_build.h"
#include "update/live_updater.h"

namespace bigindex {

class ServingStack : public QueryService {
 public:
  /// Serves `built.index`; `built.shard.num_shards == 0` means the whole
  /// graph. `fingerprint` is the index image's ImageInfo::fingerprint, 0 for
  /// an index that was never saved. `updater.engine` configures the
  /// bootstrap engine and every successor, and `updater.configure_engine`
  /// (optional) runs on each of them before it serves. The ontology the
  /// index borrows must outlive the stack.
  ServingStack(BuiltShard built, uint64_t fingerprint,
               SearchServiceOptions service = {},
               LiveUpdaterOptions updater = {});

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  StatusOr<QueryResult> Query(EngineQuery query) override;
  uint64_t epoch() const override { return service_.epoch(); }
  uint64_t BumpEpoch() override { return service_.BumpEpoch(); }
  ServiceStats Snapshot() const override { return service_.Snapshot(); }
  std::vector<std::string> AlgorithmNames() const override {
    return service_.AlgorithmNames();
  }
  ServiceIdentity Identity() const override { return service_.Identity(); }
  StatusOr<UpdateOutcome> ApplyUpdate(
      std::span<const GraphUpdate> updates) override;
  StatusOr<uint64_t> Rollback() override { return service_.Rollback(); }
  StatusOr<BoundaryExport> Boundary() override;

  /// The parts, for callers that read the serving engine or the retained
  /// index versions (tests, benches). Queries and updates go through the
  /// stack itself.
  const SearchService& service() const { return service_; }
  LiveUpdater& updater() { return updater_; }

 private:
  /// Boundary state of a cut-incident shard (defined in the .cc).
  struct Cut;

  /// Recomputes the boundary state over `engine`'s graph and publishes it.
  void InstallCut(const QueryEngine& engine);
  std::shared_ptr<const Cut> CurrentCut() const;

  /// global -> local via binary search over the ascending remap.
  bool LocalOf(VertexId global, VertexId* local) const;

  // The updater builds the bootstrap engine, so it is constructed first.
  LiveUpdater updater_;
  SearchService service_;
  /// Local -> global remap; empty for the whole graph and for a ghost-free
  /// shard whose remap is the identity, where Query passes through.
  std::vector<VertexId> global_of_;
  std::vector<bool> is_ghost_;  // indexed by local id; empty without ghosts
  mutable std::mutex cut_mutex_;
  std::shared_ptr<const Cut> cut_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SHARD_SERVING_STACK_H_

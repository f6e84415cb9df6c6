// RemoteSubstrate — every shard is a bigindex_serverd process reached over
// the line protocol (server/line_protocol.h) through a ProtocolClient with
// bounded connect timeout and exponential-backoff retry.
//
// One connection per shard, serialized by a per-shard mutex: the protocol
// is lockstep (one request, one dot-terminated response), so concurrent
// coordinator fan-outs to the *same* shard queue on its mutex while
// fan-outs to different shards proceed in parallel. A lost connection
// surfaces as kUnavailable for the affected query and is re-dialed
// transparently on the next request.
//
// The wire already speaks global vertex ids (shard workers serve behind a
// ServingStack), so this substrate does no id translation.

#ifndef BIGINDEX_SHARD_REMOTE_SUBSTRATE_H_
#define BIGINDEX_SHARD_REMOTE_SUBSTRATE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/protocol_client.h"
#include "shard/substrate.h"

namespace bigindex {

/// Address of one shard worker.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

class RemoteSubstrate : public ShardSubstrate {
 public:
  /// One endpoint per shard, in shard-id order. Connections are dialed
  /// lazily (first request), so constructing the substrate never blocks.
  RemoteSubstrate(std::vector<ShardEndpoint> endpoints,
                  ProtocolClientOptions client_options = {});

  size_t num_shards() const override { return shards_.size(); }
  StatusOr<ShardInfo> Info(size_t shard) override;
  StatusOr<QueryResult> Query(size_t shard,
                              const EngineQuery& query) override;
  StatusOr<uint64_t> BumpEpoch(size_t shard) override;
  StatusOr<UpdateOutcome> Update(size_t shard,
                                 std::span<const GraphUpdate> updates) override;
  StatusOr<uint64_t> Rollback(size_t shard) override;
  StatusOr<BoundaryExport> Boundary(size_t shard) override;

 private:
  struct Shard {
    std::mutex mutex;
    ProtocolClient client;
    Shard(const ShardEndpoint& ep, const ProtocolClientOptions& opts)
        : client(ep.host, ep.port, opts) {}
  };

  /// Checks the shard index, locks the shard and runs one checked
  /// lockstep call (ProtocolClient::Call).
  StatusOr<std::vector<std::string>> Call(size_t shard,
                                          const std::string& line);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SHARD_REMOTE_SUBSTRATE_H_

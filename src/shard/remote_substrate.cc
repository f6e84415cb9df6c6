#include "shard/remote_substrate.h"

#include <utility>

#include "server/line_protocol.h"

namespace bigindex {
namespace {

/// The epoch of a checked BUMP or ROLLBACK reply.
StatusOr<uint64_t> EpochOf(const StatusOr<std::vector<std::string>>& lines) {
  if (!lines.ok()) return lines.status();
  uint64_t epoch = 0;
  BIGINDEX_RETURN_IF_ERROR(ParseEpochLine(lines->front(), &epoch));
  return epoch;
}

}  // namespace

RemoteSubstrate::RemoteSubstrate(std::vector<ShardEndpoint> endpoints,
                                 ProtocolClientOptions client_options) {
  shards_.reserve(endpoints.size());
  for (const ShardEndpoint& ep : endpoints) {
    shards_.push_back(std::make_unique<Shard>(ep, client_options));
  }
}

StatusOr<std::vector<std::string>> RemoteSubstrate::Call(
    size_t shard, const std::string& line) {
  if (shard >= shards_.size()) {
    return Status::OutOfRange("shard " + std::to_string(shard) +
                              " out of range (substrate has " +
                              std::to_string(shards_.size()) + ")");
  }
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.client.Call(line);
}

StatusOr<ShardInfo> RemoteSubstrate::Info(size_t shard) {
  auto lines = Call(shard, "info");
  if (!lines.ok()) return lines.status();
  ShardInfo info;
  BIGINDEX_RETURN_IF_ERROR(ParseInfoLine(lines->front(), &info));
  return info;
}

StatusOr<QueryResult> RemoteSubstrate::Query(size_t shard,
                                             const EngineQuery& query) {
  auto lines = Call(shard, FormatQueryLine(query));
  if (!lines.ok()) return lines.status();
  QueryResult result;
  BIGINDEX_RETURN_IF_ERROR(ParseQueryBlock(*lines, &result));
  result.algorithm = query.algorithm;
  return result;
}

StatusOr<UpdateOutcome> RemoteSubstrate::Update(
    size_t shard, std::span<const GraphUpdate> updates) {
  auto lines = Call(shard, FormatUpdateLine(updates));
  if (!lines.ok()) return lines.status();
  UpdateOutcome outcome;
  BIGINDEX_RETURN_IF_ERROR(ParseUpdateOutcomeLine(lines->front(), &outcome));
  return outcome;
}

StatusOr<uint64_t> RemoteSubstrate::BumpEpoch(size_t shard) {
  return EpochOf(Call(shard, "bump"));
}

StatusOr<uint64_t> RemoteSubstrate::Rollback(size_t shard) {
  return EpochOf(Call(shard, "rollback"));
}

StatusOr<BoundaryExport> RemoteSubstrate::Boundary(size_t shard) {
  auto lines = Call(shard, "boundary");
  if (!lines.ok()) return lines.status();
  BoundaryExport ex;
  BIGINDEX_RETURN_IF_ERROR(ParseBoundaryBlock(*lines, &ex));
  return ex;
}

}  // namespace bigindex

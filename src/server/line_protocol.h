// The daemon's wire format: one request per line, one dot-terminated
// response block per request. Shared by the TCP server, the in-process
// client, and the protocol tests — the transport only moves lines.
//
// Requests (verbs are case-insensitive; METRICS and metrics are the same):
//   query <algo> <kw1,kw2,...> [top_k=N] [layer=M] [deadline_ms=D]
//         [exact=0|1] [beta=F]
//   stats            service counters snapshot
//   metrics          Prometheus text exposition of the process registry
//   trace on|off     enable / disable span collection
//   trace status     collector state: enabled, threads, events, dropped
//   trace dump       chrome://tracing JSON (single line) of buffered spans
//   trace clear      drop all buffered spans
//   bump             bump the index epoch (invalidates the answer cache)
//   update <op> ...  apply an edge-update batch to the served index; each op
//                    is add:<u>:<v> or remove:<u>:<v> with global vertex
//                    ids. Response: OK applied=A skipped=S rebuilt=K
//                    epoch=E mode=none|incremental|wholesale|rebuild.
//                    Read-only services answer ERR Unimplemented.
//   rollback         re-publish the previous retained index version (undo
//                    the last update batch). Response: OK epoch=E. The
//                    version store keeps one generation, so a second
//                    consecutive rollback answers ERR FailedPrecondition;
//                    services without a rollback path answer ERR
//                    Unimplemented.
//   boundary         the shard's boundary export (DESIGN.md §9): the owned
//                    vertices within the locality cap of the partition cut,
//                    their induced edges, and the cut edges themselves, all
//                    in global ids. Response head: OK vertices=N edges=M
//                    cut=C radius=R, then N lines "v <global> <label>",
//                    M lines "e <u> <v>", C lines "c <u> <v>". Ghost-free
//                    workers (monolithic, wcc shards) answer OK vertices=0
//                    edges=0 cut=0 radius=0 with no body.
//   algos            registered algorithm names
//   info             index identity: epoch, image checksum, layer count,
//                    shard id/count, algorithm names — what the shard
//                    coordinator verifies at attach time — plus live-update
//                    counters (updates=a/r/f, rollbacks) and epoch age
//   ping             liveness probe
//   quit             close the session
//
// Keywords are label *names* when the handler has a dictionary, with a
// fallback to numeric label ids; always numeric ids without one.
//
// Responses (every block ends with a line holding a single '.'):
//   OK ...head...          then, for query, one answer per line:
//   A root=<v|-> score=<s> kw=<v1,v2,...> v=<v1,v2,...>
//   .
// or
//   ERR <StatusCode>: <message>
//   .
//
// All vertex ids on the wire are *global*: a shard worker serves behind a
// ServingStack, so clients and the coordinator never see shard-local
// ids. The FormatQueryLine / Parse* helpers below are the client side of the
// format, shared by bigindex_client and the RemoteSubstrate fan-out.
//
// Raw payload blocks (metrics, trace dump) are safe inside the framing:
// Prometheus text lines and the one-line JSON dump can never consist of a
// single '.', which is the only line the framing reserves.

#ifndef BIGINDEX_SERVER_LINE_PROTOCOL_H_
#define BIGINDEX_SERVER_LINE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/label_dictionary.h"
#include "server/query_service.h"

namespace bigindex {

/// Stateless per-session request dispatcher over one QueryService (a
/// SearchService, a remapped shard worker, or the sharded coordinator).
class LineHandler {
 public:
  struct Result {
    std::string response;  // complete dot-terminated block, '\n' included
    bool close = false;    // session should end (quit command)
  };

  /// `service` is borrowed and must outlive the handler; `dict` (optional)
  /// enables name-based keywords.
  explicit LineHandler(QueryService* service,
                       const LabelDictionary* dict = nullptr)
      : service_(service), dict_(dict) {}

  /// Handles one request line (no trailing newline) and returns the full
  /// response block. Never throws; malformed input yields an ERR block.
  Result Handle(const std::string& line);

 private:
  QueryService* service_;
  const LabelDictionary* dict_;
};

// ---------------------------------------------------------------------------
// Client-side wire helpers (bigindex_client, shard/RemoteSubstrate)
// ---------------------------------------------------------------------------

/// Serializes `q` as one request line, using numeric keyword ids (parseable
/// by any server, with or without a dictionary). Emits top_k/layer/exact/
/// beta always and deadline_ms only when the deadline is set; answer_gen
/// options are not part of the wire format (server defaults apply).
std::string FormatQueryLine(const EngineQuery& q);

/// Parses one "A root=... score=... kw=... v=..." answer line. Tolerates a
/// missing v= field (older servers) by leaving `vertices` empty.
Status ParseAnswerLine(const std::string& line, Answer* out);

/// Decodes an "ERR <Code>: <message>" line back into the Status it encodes
/// (unrecognized code names decode as IOError). Returns OK only if `line`
/// is not an ERR line at all — check with starts_with("ERR") first.
Status ParseErrLine(const std::string& line);

/// The INFO verb's payload.
struct WireInfo {
  uint64_t epoch = 0;
  uint64_t fingerprint = 0;
  uint32_t num_layers = 0;
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;  // 0 = monolithic
  std::vector<std::string> algorithms;
};

/// Parses the "OK epoch=... checksum=... layers=... shard=i/n algos=a,b"
/// head line of an INFO response. Unknown keys are skipped, so newer
/// servers' extra fields (updates=, epoch_age_s=) parse cleanly.
Status ParseInfoLine(const std::string& line, WireInfo* out);

/// Serializes an edge-update batch as one UPDATE request line
/// ("update add:0:1 remove:2:3 ...", global vertex ids).
std::string FormatUpdateLine(std::span<const GraphUpdate> updates);

/// Parses one UPDATE op token, "add:<u>:<v>" or "remove:<u>:<v>". A
/// malformed token or a vertex id that does not fit VertexId fails with
/// InvalidArgument.
Status ParseUpdateOp(const std::string& token, GraphUpdate* out);

/// Parses the "OK applied=... skipped=... rebuilt=... epoch=... mode=..."
/// head line of an UPDATE response. applied= and epoch= are required;
/// unknown keys are skipped.
Status ParseUpdateOutcomeLine(const std::string& line, UpdateOutcome* out);

/// Parses a full BOUNDARY response block (head + v/e/c body lines, no dot
/// terminator) back into a BoundaryExport. The head's vertices=/edges=/cut=
/// counts must match the body line counts exactly.
Status ParseBoundaryBlock(std::span<const std::string> lines,
                          BoundaryExport* out);

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_LINE_PROTOCOL_H_

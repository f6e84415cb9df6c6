// The daemon's wire format: one request per line, one dot-terminated
// response block per request. Shared by the TCP server, the in-process
// client, and the protocol tests — the transport only moves lines. The
// formal grammar and every verb's reply head are in docs/OPERATIONS.md,
// "Line protocol".
//
// Requests (verbs are case-insensitive; METRICS and metrics are the same):
//   query <algo> <kw1,kw2,...> [top_k=N] [layer=M] [deadline_ms=D]
//         [exact=0|1] [beta=F]
//   stats | metrics | trace on|off|status|dump|clear | bump | info | algos
//   update (add:<u>:<v>|remove:<u>:<v>)... | rollback | boundary
//   ping | quit
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
// ids.
//
// This file is the codec's one home: every record's Format* and Parse*
// side, and ParseNumber, the one reader of every number on the wire (and
// of the tools' numeric flags). A malformed request answers ERR
// InvalidArgument; a malformed reply parses to IOError.
//
// Raw payload blocks (metrics, trace dump) are safe inside the framing:
// Prometheus text lines and the one-line JSON dump can never consist of a
// single '.', which is the only line the framing reserves.

#ifndef BIGINDEX_SERVER_LINE_PROTOCOL_H_
#define BIGINDEX_SERVER_LINE_PROTOCOL_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "graph/label_dictionary.h"
#include "server/query_service.h"

namespace bigindex {

/// The longest line either end of a connection reads, newline excluded. A
/// longer request answers ERR InvalidArgument and the server closes that
/// connection; a longer reply line fails ProtocolClient::Request with
/// IOError and the client disconnects. So a peer that never sends '\n'
/// cannot grow the other end's buffer without limit.
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

/// The checked number reader. True only when all of `text` is one number
/// in T's range: decimal digits for an unsigned T (hex digits with
/// base 16), an optional leading '-' for a signed T, and a finite decimal
/// or exponent form for a floating-point T. No sign '+', no whitespace, no
/// "nan" or "inf". On false, *out is left unchanged.
template <typename T>
bool ParseNumber(std::string_view text, T* out, int base = 10) {
  const char* end = text.data() + text.size();
  T value{};
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(text.data(), end, value);
    if (!std::isfinite(value)) return false;
  } else {
    r = std::from_chars(text.data(), end, value, base);
  }
  if (r.ec != std::errc() || r.ptr != end) return false;
  *out = value;
  return true;
}

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
  Result Handle(std::string_view line);

 private:
  QueryService* service_;
  const LabelDictionary* dict_;
};

// ---------------------------------------------------------------------------
// Records: each Format* writes what the Parse* after it reads. Reply
// formatters return the whole block, terminator included; reply parsers
// take what ProtocolClient::Request returns (lines, no terminator) or its
// head line, skip unknown head keys (so newer servers' extra fields parse
// cleanly) and fail with IOError.
// ---------------------------------------------------------------------------

/// A query request line, with numeric keyword ids (parseable by any server,
/// with or without a dictionary). Emits top_k/layer/exact/beta always and
/// deadline_ms only when the deadline is set; answer_gen options are not
/// part of the wire format (server defaults apply).
std::string FormatQueryLine(const EngineQuery& q);

/// The verb token is skipped unread (LineHandler has dispatched on it).
/// Keywords are `dict` names when it has them, else numeric label ids below
/// kInvalidLabel. InvalidArgument on any malformed keyword, option or value.
Status ParseQueryLine(std::string_view line, const LabelDictionary* dict,
                      EngineQuery* out);

/// The query reply: head "OK n= ms= layer=", then one A line per answer.
/// The parser fills wall_ms, breakdown.layer and .final_answers and the
/// answers; n= is required and must match the A lines.
std::string FormatQueryReply(const QueryResult& result);
Status ParseQueryBlock(std::span<const std::string> lines, QueryResult* out);

/// One "A root=<v|-> score= kw=<list> v=<list>" answer line. A missing v=
/// field (older servers) leaves `vertices` empty.
Status ParseAnswerLine(std::string_view line, Answer* out);

/// Decodes an "ERR <Code>: <message>" line back into the Status it encodes
/// (unrecognized code names decode as IOError). Returns OK only if `line`
/// is not an ERR line at all.
Status ParseErrLine(std::string_view line);

/// The INFO reply, "OK epoch= checksum=<hex> layers= shard=<id>/<count>
/// algos=a,b" plus the live-update counters of `stats` (updates=a/r/f
/// rollbacks= epoch_age_s=). epoch= and shard= are required.
std::string FormatInfoReply(const ShardInfo& info, const ServiceStats& stats);
Status ParseInfoLine(std::string_view line, ShardInfo* out);

/// The "OK epoch=E" reply of BUMP and ROLLBACK.
std::string FormatEpochReply(uint64_t epoch);
Status ParseEpochLine(std::string_view line, uint64_t* epoch);

/// An UPDATE request line, "update add:0:1 remove:2:3 ..." (global vertex
/// ids), and one of its op tokens. A malformed token or a vertex id that
/// does not fit VertexId fails with InvalidArgument.
std::string FormatUpdateLine(std::span<const GraphUpdate> updates);
Status ParseUpdateOp(std::string_view token, GraphUpdate* out);

/// The UPDATE reply, "OK applied= skipped= rebuilt= epoch= mode=".
/// applied= and epoch= are required.
std::string FormatUpdateReply(const UpdateOutcome& outcome);
Status ParseUpdateOutcomeLine(std::string_view line, UpdateOutcome* out);

/// The BOUNDARY reply: head "OK vertices= edges= cut= radius=", then the
/// v / e / c body lines, whose counts must match the head's.
std::string FormatBoundaryReply(const BoundaryExport& ex);
Status ParseBoundaryBlock(std::span<const std::string> lines,
                          BoundaryExport* out);

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_LINE_PROTOCOL_H_

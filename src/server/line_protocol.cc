#include "server/line_protocol.h"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace bigindex {
namespace {

constexpr std::string_view kSpace = " \t\n\v\f\r";

/// The tokenizer: pops the next whitespace-delimited token off the front of
/// *rest; empty once no token is left.
std::string_view NextToken(std::string_view* rest) {
  const size_t begin = rest->find_first_not_of(kSpace);
  if (begin == std::string_view::npos) {
    *rest = {};
    return {};
  }
  const size_t end = std::min(rest->find_first_of(kSpace, begin),
                              rest->size());
  const std::string_view token = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return token;
}

/// The key=value splitter: false when `token` holds no '='.
bool SplitKeyValue(std::string_view token, std::string_view* key,
                   std::string_view* value) {
  const size_t eq = token.find('=');
  if (eq == std::string_view::npos) return false;
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

/// Calls `item` on each ','-separated item of `list` (none when `list` is
/// empty); false as soon as `item` rejects one.
template <typename Fn>
bool ForEachItem(std::string_view list, Fn&& item) {
  while (!list.empty()) {
    const size_t comma = list.find(',');
    if (!item(list.substr(0, comma))) return false;
    list.remove_prefix(comma == std::string_view::npos ? list.size()
                                                       : comma + 1);
  }
  return true;
}

bool ParseVertexList(std::string_view list, std::vector<VertexId>* out) {
  return ForEachItem(list, [out](std::string_view item) {
    VertexId v = 0;
    if (!ParseNumber(item, &v)) return false;
    out->push_back(v);
    return true;
  });
}

bool ReadAnswerField(std::string_view key, std::string_view value,
                     Answer* out) {
  if (key == "root") {
    out->root = kInvalidVertex;
    return value == "-" || ParseNumber(value, &out->root);
  }
  if (key == "score") return ParseNumber(value, &out->score);
  if (key == "kw") return ParseVertexList(value, &out->keyword_vertices);
  if (key == "v") return ParseVertexList(value, &out->vertices);
  return false;
}

/// Reads the key=value fields of an "OK ..." reply head. `field(key,
/// value)` returns false on a bad value and skips keys it does not know;
/// tokens without '=' are skipped here. Every key in `required` must occur.
template <typename Fn>
Status ReadHead(std::string_view head, const char* what,
                std::initializer_list<std::string_view> required, Fn&& field) {
  std::string_view rest = head;
  if (NextToken(&rest) != "OK") {
    return Status::IOError(std::string("not a ") + what + " response: '" +
                           std::string(head) + "'");
  }
  uint64_t seen = 0;  // bit i: required[i] occurred
  std::string_view key, value;
  for (std::string_view t = NextToken(&rest); !t.empty();
       t = NextToken(&rest)) {
    if (!SplitKeyValue(t, &key, &value)) continue;
    if (!field(key, value)) {
      return Status::IOError(std::string("bad field '") + std::string(t) +
                             "' in " + what + " response");
    }
    const auto it = std::find(required.begin(), required.end(), key);
    if (it != required.end()) seen |= uint64_t{1} << (it - required.begin());
  }
  if (seen + 1 != uint64_t{1} << required.size()) {
    return Status::IOError(std::string(what) +
                           " response missing required fields: '" +
                           std::string(head) + "'");
  }
  return Status::OK();
}

std::string ErrBlock(const Status& status) {
  return "ERR " + status.ToString() + "\n.\n";
}

std::string ErrBlock(const std::string& message) {
  return ErrBlock(Status::InvalidArgument(message));
}

/// `format(*r)` when `r` holds a value, else its ERR block.
template <typename T, typename Fn>
std::string Reply(const StatusOr<T>& r, Fn&& format) {
  return r.ok() ? format(*r) : ErrBlock(r.status());
}

/// Parses "kw1,kw2,..." into label ids: by dictionary name when available,
/// else as a numeric id below kInvalidLabel.
Status ParseKeywords(std::string_view spec, const LabelDictionary* dict,
                     std::vector<LabelId>* out) {
  std::string_view bad;
  const bool ok = ForEachItem(spec, [&](std::string_view kw) {
    if (kw.empty()) return true;
    LabelId l = dict != nullptr ? dict->Find(kw) : kInvalidLabel;
    if (l == kInvalidLabel && (!ParseNumber(kw, &l) || l == kInvalidLabel)) {
      bad = kw;
      return false;
    }
    out->push_back(l);
    return true;
  });
  if (!ok) {
    return Status::InvalidArgument("unknown keyword '" + std::string(bad) +
                                   "'");
  }
  if (out->empty()) {
    return Status::InvalidArgument("no keywords in '" + std::string(spec) +
                                   "'");
  }
  return Status::OK();
}

/// Applies one "key=value" option token to the query.
Status ApplyOption(std::string_view token, EngineQuery* q) {
  std::string_view key, value;
  if (!SplitKeyValue(token, &key, &value)) {
    return Status::InvalidArgument("malformed option '" + std::string(token) +
                                   "' (want key=value)");
  }
  bool ok = false;
  if (key == "top_k") {
    ok = ParseNumber(value, &q->eval.top_k);
  } else if (key == "layer") {
    ok = ParseNumber(value, &q->eval.forced_layer);
  } else if (key == "deadline_ms") {
    double ms = 0;
    ok = ParseNumber(value, &ms);
    q->eval.deadline = Deadline::After(ms);
  } else if (key == "exact") {
    ok = value == "0" || value == "1";
    q->eval.exact_verification = value == "1";
  } else if (key == "beta") {
    ok = ParseNumber(value, &q->eval.beta);
  } else {
    return Status::InvalidArgument("unknown option '" + std::string(key) +
                                   "'");
  }
  if (!ok) {
    return Status::InvalidArgument("bad value in option '" +
                                   std::string(token) + "'");
  }
  return Status::OK();
}

/// The bodies of the `metrics` and `trace dump` replies, which a scrape
/// serves as well. The dump is one line of JSON: safe inside the
/// dot-terminated framing.
std::string MetricsPayload() {
  return MetricsRegistry::Global().RenderPrometheus();
}
std::string TraceDumpPayload() { return Tracer::Global().DumpJson() + "\n"; }

/// The path of a scrape's request line, "GET <path> HTTP/1.x" with the
/// verb already taken off; empty when the rest is not of that form.
std::string_view ParseHttpGet(std::string_view rest) {
  const std::string_view path = NextToken(&rest);
  const std::string_view version = NextToken(&rest);
  const bool ok = path.starts_with('/') && version.size() == 8 &&
                  version.starts_with("HTTP/1.") &&
                  std::isdigit(static_cast<unsigned char>(version[7])) &&
                  NextToken(&rest).empty();
  return ok ? path : std::string_view();
}

/// The scrape's whole HTTP/1.0 response: the trace dump at /trace, the
/// Prometheus exposition at any other path.
std::string FormatHttpResponse(std::string_view path) {
  const bool trace = path == "/trace";
  const std::string body = trace ? TraceDumpPayload() : MetricsPayload();
  return std::string("HTTP/1.0 200 OK\r\nContent-Type: ") +
         (trace ? "application/json"
                : "text/plain; version=0.0.4; charset=utf-8") +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

std::string HandleTrace(std::string_view args) {
  const std::string_view sub = NextToken(&args);
  if (sub.empty() || !NextToken(&args).empty()) {
    return ErrBlock("usage: trace on|off|status|dump|clear");
  }
  Tracer& tracer = Tracer::Global();
  if (sub == "on") {
    tracer.SetEnabled(true);
    return "OK trace=on\n.\n";
  }
  if (sub == "off") {
    tracer.SetEnabled(false);
    return "OK trace=off\n.\n";
  }
  if (sub == "status") {
    Tracer::Stats s = tracer.GetStats();
    std::ostringstream out;
    out << "OK enabled=" << (s.enabled ? 1 : 0) << " threads=" << s.threads
        << " events=" << s.events << " dropped=" << s.dropped << "\n.\n";
    return out.str();
  }
  if (sub == "dump") return "OK\n" + TraceDumpPayload() + ".\n";
  if (sub == "clear") {
    tracer.Clear();
    return "OK cleared\n.\n";
  }
  return ErrBlock("unknown trace subcommand '" + std::string(sub) + "'");
}

std::string HandleQuery(QueryService& service, const LabelDictionary* dict,
                        std::string_view line) {
  EngineQuery q;
  Status parsed = ParseQueryLine(line, dict, &q);
  if (!parsed.ok()) return ErrBlock(parsed);
  return Reply(service.Query(std::move(q)), FormatQueryReply);
}

std::string HandleUpdate(QueryService& service, std::string_view ops) {
  std::vector<GraphUpdate> updates;
  for (std::string_view t = NextToken(&ops); !t.empty(); t = NextToken(&ops)) {
    GraphUpdate up;
    Status parsed = ParseUpdateOp(t, &up);
    if (!parsed.ok()) return ErrBlock(parsed);
    updates.push_back(up);
  }
  if (updates.empty()) {
    return ErrBlock("usage: update (add:<u>:<v>|remove:<u>:<v>)...");
  }
  return Reply(service.ApplyUpdate(updates), FormatUpdateReply);
}

/// Round-trip double formatting (beta and deadline_ms on the wire).
std::string FormatDouble(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

void AppendList(std::ostringstream& out, const auto& items) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out << ',';
    out << items[i];
  }
}

}  // namespace

LineHandler::Result LineHandler::Handle(std::string_view line) {
  if (!http_response_.empty()) {
    // A scrape's header lines are read up to the blank line that ends them,
    // so closing after the response never resets an unread request.
    if (!line.empty()) return {};
    return {std::exchange(http_response_, {}), true};
  }
  std::string_view args = line;
  std::string cmd(NextToken(&args));
  if (cmd.empty()) return {ErrBlock("empty request"), false};
  std::transform(cmd.begin(), cmd.end(), cmd.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });

  QueryService& service = *service_;
  if (cmd == "query") return {HandleQuery(service, dict_, line), false};
  if (cmd == "stats") {
    return {"OK " + service.Snapshot().ToString() + "\n.\n", false};
  }
  if (cmd == "metrics") return {"OK\n" + MetricsPayload() + ".\n", false};
  if (cmd == "trace") return {HandleTrace(args), false};
  if (cmd == "bump") return {FormatEpochReply(service.BumpEpoch()), false};
  if (cmd == "update") return {HandleUpdate(service, args), false};
  if (cmd == "rollback") {
    return {Reply(service.Rollback(), FormatEpochReply), false};
  }
  if (cmd == "boundary") {
    return {Reply(service.Boundary(), FormatBoundaryReply), false};
  }
  if (cmd == "algos") {
    std::string out = "OK";
    for (const std::string& name : service.AlgorithmNames()) {
      out += ' ';
      out += name;
    }
    return {out + "\n.\n", false};
  }
  if (cmd == "info") {
    return {FormatInfoReply(InfoOf(service), service.Snapshot()), false};
  }
  if (cmd == "ping") return {"OK pong\n.\n", false};
  if (cmd == "quit") return {"OK bye\n.\n", true};
  if (cmd == "get") {
    const std::string_view path = ParseHttpGet(args);
    if (!path.empty()) {
      http_response_ = FormatHttpResponse(path);
      return {};
    }
  }
  return {ErrBlock("unknown command '" + cmd + "'"), false};
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

std::string FormatQueryLine(const EngineQuery& q) {
  std::ostringstream out;
  out << "query " << q.algorithm << ' ';
  AppendList(out, q.keywords);
  out << " top_k=" << q.eval.top_k << " layer=" << q.eval.forced_layer
      << " exact=" << (q.eval.exact_verification ? 1 : 0)
      << " beta=" << FormatDouble(q.eval.beta);
  if (!q.eval.deadline.IsNever()) {
    out << " deadline_ms=" << FormatDouble(q.eval.deadline.RemainingMillis());
  }
  return out.str();
}

Status ParseQueryLine(std::string_view line, const LabelDictionary* dict,
                      EngineQuery* out) {
  *out = EngineQuery{};
  NextToken(&line);  // the verb
  const std::string_view algo = NextToken(&line);
  const std::string_view keywords = NextToken(&line);
  if (keywords.empty()) {
    return Status::InvalidArgument(
        "usage: query <algo> <kw1,kw2,...> [top_k=N] [layer=M] "
        "[deadline_ms=D] [exact=0|1] [beta=F]");
  }
  out->algorithm = std::string(algo);
  BIGINDEX_RETURN_IF_ERROR(ParseKeywords(keywords, dict, &out->keywords));
  for (std::string_view t = NextToken(&line); !t.empty();
       t = NextToken(&line)) {
    BIGINDEX_RETURN_IF_ERROR(ApplyOption(t, out));
  }
  return Status::OK();
}

std::string FormatQueryReply(const QueryResult& result) {
  std::ostringstream out;
  out << "OK n=" << result.answers.size() << " ms=" << result.wall_ms
      << " layer=" << result.breakdown.layer << "\n";
  for (const Answer& a : result.answers) {
    out << "A root=";
    if (a.root == kInvalidVertex) {
      out << '-';
    } else {
      out << a.root;
    }
    out << " score=" << a.score << " kw=";
    AppendList(out, a.keyword_vertices);
    out << " v=";
    AppendList(out, a.vertices);
    out << "\n";
  }
  out << ".\n";
  return out.str();
}

Status ParseQueryBlock(std::span<const std::string> lines,
                       QueryResult* out) {
  *out = QueryResult{};
  if (lines.empty()) return Status::IOError("empty query response");
  size_t n = 0;
  auto field = [&](std::string_view key, std::string_view value) {
    if (key == "n") return ParseNumber(value, &n);
    if (key == "ms") return ParseNumber(value, &out->wall_ms);
    if (key == "layer") return ParseNumber(value, &out->breakdown.layer);
    return true;
  };
  BIGINDEX_RETURN_IF_ERROR(ReadHead(lines[0], "query", {"n"}, field));
  if (n != lines.size() - 1) {
    return Status::IOError("query response announces n=" + std::to_string(n) +
                           " but carries " + std::to_string(lines.size() - 1) +
                           " answer lines");
  }
  out->answers.resize(n);
  for (size_t i = 0; i < n; ++i) {
    BIGINDEX_RETURN_IF_ERROR(ParseAnswerLine(lines[i + 1], &out->answers[i]));
  }
  out->breakdown.final_answers = n;
  return Status::OK();
}

Status ParseAnswerLine(std::string_view line, Answer* out) {
  *out = Answer{};
  std::string_view rest = line;
  if (NextToken(&rest) != "A") {
    return Status::IOError("not an answer line: '" + std::string(line) + "'");
  }
  std::string_view key, value;
  for (std::string_view t = NextToken(&rest); !t.empty();
       t = NextToken(&rest)) {
    if (!SplitKeyValue(t, &key, &value) || !ReadAnswerField(key, value, out)) {
      return Status::IOError("malformed answer field '" + std::string(t) +
                             "'");
    }
  }
  return Status::OK();
}

Status ParseErrLine(std::string_view line) {
  if (!line.starts_with("ERR")) return Status::OK();
  const std::string_view rest = line.substr(std::min<size_t>(4, line.size()));
  const size_t colon = std::min(rest.find(':'), rest.size());
  std::string_view message = rest.substr(std::min(colon + 1, rest.size()));
  if (message.starts_with(' ')) message.remove_prefix(1);
  for (int c = 1; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    const auto code = static_cast<StatusCode>(c);
    if (rest.substr(0, colon) == StatusCodeName(code)) {
      return Status(code, std::string(message));
    }
  }
  return Status::IOError("server error: " + std::string(rest));
}

std::string FormatInfoReply(const ShardInfo& info, const ServiceStats& stats) {
  std::ostringstream out;
  out << "OK epoch=" << info.epoch << " checksum=" << std::hex
      << info.fingerprint << std::dec << " layers=" << info.num_layers
      << " shard=" << info.shard_id << '/' << info.num_shards << " algos=";
  AppendList(out, info.algorithms);
  // Live-update health; older ParseInfoLine implementations skip unknown
  // keys, so these are backward-compatible additions.
  out << " updates=" << stats.updates_applied << '/' << stats.updates_rejected
      << '/' << stats.update_fallbacks;
  out << " rollbacks=" << stats.rollbacks;
  out.precision(1);
  out << " epoch_age_s=" << std::fixed << stats.epoch_age_s;
  out << "\n.\n";
  return out.str();
}

Status ParseInfoLine(std::string_view line, ShardInfo* out) {
  *out = ShardInfo{};
  auto field = [&](std::string_view key, std::string_view value) {
    if (key == "epoch") return ParseNumber(value, &out->epoch);
    if (key == "checksum") return ParseNumber(value, &out->fingerprint, 16);
    if (key == "layers") return ParseNumber(value, &out->num_layers);
    if (key == "shard") {
      const size_t slash = value.find('/');
      return slash != std::string_view::npos &&
             ParseNumber(value.substr(0, slash), &out->shard_id) &&
             ParseNumber(value.substr(slash + 1), &out->num_shards);
    }
    if (key == "algos") {
      ForEachItem(value, [out](std::string_view name) {
        if (!name.empty()) out->algorithms.emplace_back(name);
        return true;
      });
    }
    return true;
  };
  return ReadHead(line, "INFO", {"epoch", "shard"}, field);
}

std::string FormatEpochReply(uint64_t epoch) {
  return "OK epoch=" + std::to_string(epoch) + "\n.\n";
}

Status ParseEpochLine(std::string_view line, uint64_t* epoch) {
  auto field = [&](std::string_view key, std::string_view value) {
    return key != "epoch" || ParseNumber(value, epoch);
  };
  return ReadHead(line, "epoch", {"epoch"}, field);
}

std::string FormatUpdateLine(std::span<const GraphUpdate> updates) {
  std::ostringstream out;
  out << "update";
  for (const GraphUpdate& up : updates) {
    out << (up.kind == GraphUpdate::Kind::kAddEdge ? " add:" : " remove:")
        << up.source << ':' << up.target;
  }
  return out.str();
}

Status ParseUpdateOp(std::string_view token, GraphUpdate* out) {
  const size_t c1 = token.find(':');
  const size_t c2 = c1 == std::string_view::npos ? c1 : token.find(':', c1 + 1);
  if (c2 == std::string_view::npos) {
    return Status::InvalidArgument("malformed update op '" +
                                   std::string(token) +
                                   "' (want add:<u>:<v> or remove:<u>:<v>)");
  }
  const std::string_view kind = token.substr(0, c1);
  if (kind == "add") {
    out->kind = GraphUpdate::Kind::kAddEdge;
  } else if (kind == "remove") {
    out->kind = GraphUpdate::Kind::kRemoveEdge;
  } else {
    return Status::InvalidArgument("unknown update op kind '" +
                                   std::string(kind) + "'");
  }
  if (!ParseNumber(token.substr(c1 + 1, c2 - c1 - 1), &out->source) ||
      !ParseNumber(token.substr(c2 + 1), &out->target)) {
    return Status::InvalidArgument("bad vertex id in update op '" +
                                   std::string(token) + "'");
  }
  return Status::OK();
}

std::string FormatUpdateReply(const UpdateOutcome& outcome) {
  std::ostringstream out;
  out << "OK applied=" << outcome.applied << " skipped=" << outcome.skipped
      << " rebuilt=" << outcome.layers_rebuilt << " epoch=" << outcome.epoch
      << " mode=" << UpdateModeName(outcome.mode) << "\n.\n";
  return out.str();
}

Status ParseUpdateOutcomeLine(std::string_view line, UpdateOutcome* out) {
  *out = UpdateOutcome{};
  auto field = [&](std::string_view key, std::string_view value) {
    if (key == "applied") return ParseNumber(value, &out->applied);
    if (key == "skipped") return ParseNumber(value, &out->skipped);
    if (key == "rebuilt") return ParseNumber(value, &out->layers_rebuilt);
    if (key == "epoch") return ParseNumber(value, &out->epoch);
    if (key != "mode") return true;
    using Mode = UpdateOutcome::Mode;
    for (Mode mode : {Mode::kNone, Mode::kIncremental, Mode::kWholesale,
                      Mode::kRebuild}) {
      if (value == UpdateModeName(mode)) {
        out->mode = mode;
        return true;
      }
    }
    return false;
  };
  return ReadHead(line, "UPDATE", {"applied", "epoch"}, field);
}

std::string FormatBoundaryReply(const BoundaryExport& ex) {
  std::ostringstream out;
  out << "OK vertices=" << ex.vertices.size() << " edges=" << ex.edges.size()
      << " cut=" << ex.cut_edges.size() << " radius=" << ex.radius_cap << "\n";
  for (const auto& [id, label] : ex.vertices) {
    out << "v " << id << ' ' << label << "\n";
  }
  for (const auto& [u, v] : ex.edges) out << "e " << u << ' ' << v << "\n";
  for (const auto& [u, v] : ex.cut_edges) out << "c " << u << ' ' << v << "\n";
  out << ".\n";
  return out.str();
}

Status ParseBoundaryBlock(std::span<const std::string> lines,
                          BoundaryExport* out) {
  *out = BoundaryExport{};
  if (lines.empty()) return Status::IOError("empty BOUNDARY response");
  size_t want_vertices = 0, want_edges = 0, want_cut = 0;
  auto field = [&](std::string_view key, std::string_view value) {
    if (key == "vertices") return ParseNumber(value, &want_vertices);
    if (key == "edges") return ParseNumber(value, &want_edges);
    if (key == "cut") return ParseNumber(value, &want_cut);
    if (key == "radius") return ParseNumber(value, &out->radius_cap);
    return true;
  };
  BIGINDEX_RETURN_IF_ERROR(
      ReadHead(lines[0], "BOUNDARY", {"vertices", "cut"}, field));
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view rest = lines[i];
    const std::string_view kind = NextToken(&rest);
    VertexId first = 0, second = 0;
    if (!ParseNumber(NextToken(&rest), &first) ||
        !ParseNumber(NextToken(&rest), &second) || !NextToken(&rest).empty()) {
      return Status::IOError("malformed boundary record '" + lines[i] + "'");
    }
    if (kind == "v") {
      out->vertices.emplace_back(first, static_cast<LabelId>(second));
    } else if (kind == "e") {
      out->edges.emplace_back(first, second);
    } else if (kind == "c") {
      out->cut_edges.emplace_back(first, second);
    } else {
      return Status::IOError("unknown boundary record kind '" +
                             std::string(kind) + "'");
    }
  }
  if (out->vertices.size() != want_vertices ||
      out->edges.size() != want_edges || out->cut_edges.size() != want_cut) {
    return Status::IOError("BOUNDARY body does not match head counts");
  }
  return Status::OK();
}

}  // namespace bigindex

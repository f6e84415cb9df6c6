#include "server/line_protocol.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace bigindex {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// Parses a decimal vertex id. False unless `s` is all digits and fits
/// VertexId, so an oversized id is rejected rather than wrapped.
bool ParseVertexId(const std::string& s, VertexId* out) {
  if (!AllDigits(s)) return false;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (v > std::numeric_limits<VertexId>::max()) return false;
  *out = static_cast<VertexId>(v);
  return true;
}

std::string ErrBlock(const Status& status) {
  return "ERR " + status.ToString() + "\n.\n";
}

std::string ErrBlock(const std::string& message) {
  return ErrBlock(Status::InvalidArgument(message));
}

/// Parses "kw1,kw2,..." into label ids — by dictionary name when available,
/// numeric fallback either way.
Status ParseKeywords(const std::string& spec, const LabelDictionary* dict,
                     std::vector<LabelId>* out) {
  std::stringstream kws(spec);
  std::string kw;
  while (std::getline(kws, kw, ',')) {
    if (kw.empty()) continue;
    if (dict != nullptr) {
      LabelId l = dict->Find(kw);
      if (l != kInvalidLabel) {
        out->push_back(l);
        continue;
      }
    }
    if (!AllDigits(kw)) {
      return Status::InvalidArgument("unknown keyword '" + kw + "'");
    }
    out->push_back(static_cast<LabelId>(std::strtoul(kw.c_str(), nullptr,
                                                     10)));
  }
  if (out->empty()) {
    return Status::InvalidArgument("no keywords in '" + spec + "'");
  }
  return Status::OK();
}

/// Applies one "key=value" option token to the query; false = unknown key
/// or bad value.
bool ApplyOption(const std::string& token, EngineQuery* q,
                 std::string* error) {
  size_t eq = token.find('=');
  if (eq == std::string::npos) {
    *error = "malformed option '" + token + "' (want key=value)";
    return false;
  }
  std::string key = token.substr(0, eq);
  std::string value = token.substr(eq + 1);
  if (key == "top_k") {
    q->eval.top_k = static_cast<size_t>(std::strtoul(value.c_str(), nullptr,
                                                     10));
  } else if (key == "layer") {
    q->eval.forced_layer = std::atoi(value.c_str());
  } else if (key == "deadline_ms") {
    q->eval.deadline = Deadline::After(std::atof(value.c_str()));
  } else if (key == "exact") {
    q->eval.exact_verification = value != "0";
  } else if (key == "beta") {
    q->eval.beta = std::atof(value.c_str());
  } else {
    *error = "unknown option '" + key + "'";
    return false;
  }
  return true;
}

std::string HandleTrace(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) {
    return ErrBlock("usage: trace on|off|status|dump|clear");
  }
  Tracer& tracer = Tracer::Global();
  const std::string& sub = tokens[1];
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
  if (sub == "dump") {
    // The dump is one line of JSON: safe inside the dot-terminated framing.
    return "OK\n" + tracer.DumpJson() + "\n.\n";
  }
  if (sub == "clear") {
    tracer.Clear();
    return "OK cleared\n.\n";
  }
  return ErrBlock("unknown trace subcommand '" + sub + "'");
}

std::string HandleQuery(QueryService& service, const LabelDictionary* dict,
                        const std::vector<std::string>& tokens) {
  if (tokens.size() < 3) {
    return ErrBlock("usage: query <algo> <kw1,kw2,...> [top_k=N] [layer=M] "
                    "[deadline_ms=D] [exact=0|1] [beta=F]");
  }
  EngineQuery q;
  q.algorithm = tokens[1];
  Status parsed = ParseKeywords(tokens[2], dict, &q.keywords);
  if (!parsed.ok()) return ErrBlock(parsed);
  for (size_t i = 3; i < tokens.size(); ++i) {
    std::string error;
    if (!ApplyOption(tokens[i], &q, &error)) return ErrBlock(error);
  }

  StatusOr<QueryResult> result = service.Query(std::move(q));
  if (!result.ok()) return ErrBlock(result.status());

  std::ostringstream out;
  out << "OK n=" << result->answers.size() << " ms=" << result->wall_ms
      << " layer=" << result->breakdown.layer << "\n";
  for (const Answer& a : result->answers) {
    out << "A root=";
    if (a.root == kInvalidVertex) {
      out << '-';
    } else {
      out << a.root;
    }
    out << " score=" << a.score << " kw=";
    for (size_t i = 0; i < a.keyword_vertices.size(); ++i) {
      if (i) out << ',';
      out << a.keyword_vertices[i];
    }
    out << " v=";
    for (size_t i = 0; i < a.vertices.size(); ++i) {
      if (i) out << ',';
      out << a.vertices[i];
    }
    out << "\n";
  }
  out << ".\n";
  return out.str();
}

std::string HandleInfo(QueryService& service) {
  ServiceIdentity id = service.Identity();
  ServiceStats stats = service.Snapshot();
  std::ostringstream out;
  out << "OK epoch=" << service.epoch() << " checksum=" << std::hex
      << id.fingerprint << std::dec << " layers=" << id.num_layers
      << " shard=" << id.shard_id << '/' << id.num_shards << " algos=";
  std::vector<std::string> algos = service.AlgorithmNames();
  for (size_t i = 0; i < algos.size(); ++i) {
    if (i) out << ',';
    out << algos[i];
  }
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

std::string HandleUpdate(QueryService& service,
                         const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) {
    return ErrBlock("usage: update (add:<u>:<v>|remove:<u>:<v>)...");
  }
  std::vector<GraphUpdate> updates;
  updates.reserve(tokens.size() - 1);
  for (size_t i = 1; i < tokens.size(); ++i) {
    GraphUpdate up;
    Status parsed = ParseUpdateOp(tokens[i], &up);
    if (!parsed.ok()) return ErrBlock(parsed);
    updates.push_back(up);
  }
  StatusOr<UpdateOutcome> outcome = service.ApplyUpdate(updates);
  if (!outcome.ok()) return ErrBlock(outcome.status());
  std::ostringstream out;
  out << "OK applied=" << outcome->applied << " skipped=" << outcome->skipped
      << " rebuilt=" << outcome->layers_rebuilt
      << " epoch=" << outcome->epoch << " mode=" << UpdateModeName(
             outcome->mode) << "\n.\n";
  return out.str();
}

std::string HandleBoundary(QueryService& service) {
  StatusOr<BoundaryExport> ex = service.Boundary();
  if (!ex.ok()) return ErrBlock(ex.status());
  std::ostringstream out;
  out << "OK vertices=" << ex->vertices.size() << " edges="
      << ex->edges.size() << " cut=" << ex->cut_edges.size()
      << " radius=" << ex->radius_cap << "\n";
  for (const auto& [id, label] : ex->vertices) {
    out << "v " << id << ' ' << label << "\n";
  }
  for (const auto& [u, v] : ex->edges) out << "e " << u << ' ' << v << "\n";
  for (const auto& [u, v] : ex->cut_edges) {
    out << "c " << u << ' ' << v << "\n";
  }
  out << ".\n";
  return out.str();
}

}  // namespace

LineHandler::Result LineHandler::Handle(const std::string& line) {
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return {ErrBlock("empty request"), false};
  std::string cmd = tokens[0];
  std::transform(cmd.begin(), cmd.end(), cmd.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });

  if (cmd == "query") {
    return {HandleQuery(*service_, dict_, tokens), false};
  }
  if (cmd == "stats") {
    return {"OK " + service_->Snapshot().ToString() + "\n.\n", false};
  }
  if (cmd == "metrics") {
    return {"OK\n" + MetricsRegistry::Global().RenderPrometheus() + ".\n",
            false};
  }
  if (cmd == "trace") {
    return {HandleTrace(tokens), false};
  }
  if (cmd == "bump") {
    return {"OK epoch=" + std::to_string(service_->BumpEpoch()) + "\n.\n",
            false};
  }
  if (cmd == "update") {
    return {HandleUpdate(*service_, tokens), false};
  }
  if (cmd == "rollback") {
    StatusOr<uint64_t> epoch = service_->Rollback();
    if (!epoch.ok()) return {ErrBlock(epoch.status()), false};
    return {"OK epoch=" + std::to_string(*epoch) + "\n.\n", false};
  }
  if (cmd == "boundary") {
    return {HandleBoundary(*service_), false};
  }
  if (cmd == "algos") {
    std::string out = "OK";
    for (const std::string& name : service_->AlgorithmNames()) {
      out += ' ';
      out += name;
    }
    return {out + "\n.\n", false};
  }
  if (cmd == "info") {
    return {HandleInfo(*service_), false};
  }
  if (cmd == "ping") {
    return {"OK pong\n.\n", false};
  }
  if (cmd == "quit") {
    return {"OK bye\n.\n", true};
  }
  return {ErrBlock("unknown command '" + cmd + "'"), false};
}

// ---------------------------------------------------------------------------
// Client-side wire helpers
// ---------------------------------------------------------------------------

namespace {

/// Round-trip double formatting (beta on the wire).
std::string FormatDouble(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

Status ParseVertexList(const std::string& spec, std::vector<VertexId>* out) {
  std::stringstream in(spec);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    VertexId v = kInvalidVertex;
    if (!ParseVertexId(tok, &v)) {
      return Status::IOError("bad vertex id '" + tok + "' in answer line");
    }
    out->push_back(v);
  }
  return Status::OK();
}

}  // namespace

Status ParseUpdateOp(const std::string& token, GraphUpdate* out) {
  size_t c1 = token.find(':');
  size_t c2 = c1 == std::string::npos ? std::string::npos
                                      : token.find(':', c1 + 1);
  if (c2 == std::string::npos) {
    return Status::InvalidArgument("malformed update op '" + token +
                                   "' (want add:<u>:<v> or remove:<u>:<v>)");
  }
  std::string kind = token.substr(0, c1);
  std::string u = token.substr(c1 + 1, c2 - c1 - 1);
  std::string v = token.substr(c2 + 1);
  if (kind == "add") {
    out->kind = GraphUpdate::Kind::kAddEdge;
  } else if (kind == "remove") {
    out->kind = GraphUpdate::Kind::kRemoveEdge;
  } else {
    return Status::InvalidArgument("unknown update op kind '" + kind + "'");
  }
  if (!ParseVertexId(u, &out->source) || !ParseVertexId(v, &out->target)) {
    return Status::InvalidArgument("bad vertex id in update op '" + token +
                                   "'");
  }
  return Status::OK();
}

std::string FormatQueryLine(const EngineQuery& q) {
  std::ostringstream out;
  out << "query " << q.algorithm << ' ';
  for (size_t i = 0; i < q.keywords.size(); ++i) {
    if (i) out << ',';
    out << q.keywords[i];
  }
  out << " top_k=" << q.eval.top_k << " layer=" << q.eval.forced_layer
      << " exact=" << (q.eval.exact_verification ? 1 : 0)
      << " beta=" << FormatDouble(q.eval.beta);
  if (!q.eval.deadline.IsNever()) {
    out << " deadline_ms=" << FormatDouble(q.eval.deadline.RemainingMillis());
  }
  return out.str();
}

Status ParseAnswerLine(const std::string& line, Answer* out) {
  *out = Answer{};
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0] != "A") {
    return Status::IOError("not an answer line: '" + line + "'");
  }
  for (size_t i = 1; i < tokens.size(); ++i) {
    size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      return Status::IOError("malformed answer field '" + tokens[i] + "'");
    }
    std::string key = tokens[i].substr(0, eq);
    std::string value = tokens[i].substr(eq + 1);
    if (key == "root") {
      if (value == "-") {
        out->root = kInvalidVertex;
      } else if (!ParseVertexId(value, &out->root)) {
        return Status::IOError("bad root '" + value + "'");
      }
    } else if (key == "score") {
      if (!AllDigits(value)) return Status::IOError("bad score '" + value + "'");
      out->score = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr,
                                                      10));
    } else if (key == "kw") {
      BIGINDEX_RETURN_IF_ERROR(ParseVertexList(value, &out->keyword_vertices));
    } else if (key == "v") {
      BIGINDEX_RETURN_IF_ERROR(ParseVertexList(value, &out->vertices));
    } else {
      return Status::IOError("unknown answer field '" + key + "'");
    }
  }
  return Status::OK();
}

Status ParseErrLine(const std::string& line) {
  if (!line.starts_with("ERR")) return Status::OK();
  std::string rest = line.size() > 4 ? line.substr(4) : "";
  std::string code = rest, message;
  size_t colon = rest.find(':');
  if (colon != std::string::npos) {
    code = rest.substr(0, colon);
    message = rest.substr(colon + 1);
    if (!message.empty() && message.front() == ' ') message.erase(0, 1);
  }
  if (code == "InvalidArgument") return Status::InvalidArgument(message);
  if (code == "NotFound") return Status::NotFound(message);
  if (code == "Corruption") return Status::Corruption(message);
  if (code == "IOError") return Status::IOError(message);
  if (code == "FailedPrecondition") return Status::FailedPrecondition(message);
  if (code == "OutOfRange") return Status::OutOfRange(message);
  if (code == "Unimplemented") return Status::Unimplemented(message);
  if (code == "DeadlineExceeded") return Status::DeadlineExceeded(message);
  if (code == "Unavailable") return Status::Unavailable(message);
  return Status::IOError("server error: " + rest);
}

Status ParseInfoLine(const std::string& line, WireInfo* out) {
  *out = WireInfo{};
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0] != "OK") {
    return Status::IOError("not an INFO response: '" + line + "'");
  }
  bool saw_epoch = false, saw_shard = false;
  for (size_t i = 1; i < tokens.size(); ++i) {
    size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) continue;
    std::string key = tokens[i].substr(0, eq);
    std::string value = tokens[i].substr(eq + 1);
    if (key == "epoch") {
      saw_epoch = true;
      out->epoch = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "checksum") {
      out->fingerprint = std::strtoull(value.c_str(), nullptr, 16);
    } else if (key == "layers") {
      out->num_layers =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "shard") {
      saw_shard = true;
      size_t slash = value.find('/');
      if (slash == std::string::npos) {
        return Status::IOError("malformed shard field '" + value + "'");
      }
      out->shard_id =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
      out->num_shards = static_cast<uint32_t>(
          std::strtoul(value.c_str() + slash + 1, nullptr, 10));
    } else if (key == "algos") {
      std::stringstream in(value);
      std::string name;
      while (std::getline(in, name, ',')) {
        if (!name.empty()) out->algorithms.push_back(name);
      }
    }
  }
  if (!saw_epoch || !saw_shard) {
    return Status::IOError("INFO response missing required fields: '" +
                           line + "'");
  }
  return Status::OK();
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

Status ParseUpdateOutcomeLine(const std::string& line, UpdateOutcome* out) {
  *out = UpdateOutcome{};
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0] != "OK") {
    return Status::IOError("not an UPDATE response: '" + line + "'");
  }
  bool saw_applied = false, saw_epoch = false;
  for (size_t i = 1; i < tokens.size(); ++i) {
    size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) continue;
    std::string key = tokens[i].substr(0, eq);
    std::string value = tokens[i].substr(eq + 1);
    if (key == "applied") {
      saw_applied = true;
      out->applied = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "skipped") {
      out->skipped = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "rebuilt") {
      out->layers_rebuilt = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "epoch") {
      saw_epoch = true;
      out->epoch = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "mode") {
      if (value == "none") {
        out->mode = UpdateOutcome::Mode::kNone;
      } else if (value == "incremental") {
        out->mode = UpdateOutcome::Mode::kIncremental;
      } else if (value == "wholesale") {
        out->mode = UpdateOutcome::Mode::kWholesale;
      } else if (value == "rebuild") {
        out->mode = UpdateOutcome::Mode::kRebuild;
      } else {
        return Status::IOError("unknown update mode '" + value + "'");
      }
    }
  }
  if (!saw_applied || !saw_epoch) {
    return Status::IOError("UPDATE response missing required fields: '" +
                           line + "'");
  }
  return Status::OK();
}

Status ParseBoundaryBlock(std::span<const std::string> lines,
                          BoundaryExport* out) {
  *out = BoundaryExport{};
  if (lines.empty()) return Status::IOError("empty BOUNDARY response");
  std::vector<std::string> head = Tokenize(lines[0]);
  if (head.empty() || head[0] != "OK") {
    return Status::IOError("not a BOUNDARY response: '" + lines[0] + "'");
  }
  size_t want_vertices = 0, want_edges = 0, want_cut = 0;
  bool saw_vertices = false, saw_cut = false;
  for (size_t i = 1; i < head.size(); ++i) {
    size_t eq = head[i].find('=');
    if (eq == std::string::npos) continue;
    std::string key = head[i].substr(0, eq);
    const char* value = head[i].c_str() + eq + 1;
    if (key == "vertices") {
      saw_vertices = true;
      want_vertices = std::strtoull(value, nullptr, 10);
    } else if (key == "edges") {
      want_edges = std::strtoull(value, nullptr, 10);
    } else if (key == "cut") {
      saw_cut = true;
      want_cut = std::strtoull(value, nullptr, 10);
    } else if (key == "radius") {
      out->radius_cap =
          static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    }
  }
  if (!saw_vertices || !saw_cut) {
    return Status::IOError("BOUNDARY response missing required fields: '" +
                           lines[0] + "'");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> tokens = Tokenize(lines[i]);
    if (tokens.size() != 3 ||
        !AllDigits(tokens[1]) || !AllDigits(tokens[2])) {
      return Status::IOError("malformed boundary record '" + lines[i] + "'");
    }
    auto first = static_cast<VertexId>(
        std::strtoul(tokens[1].c_str(), nullptr, 10));
    auto second = static_cast<VertexId>(
        std::strtoul(tokens[2].c_str(), nullptr, 10));
    if (tokens[0] == "v") {
      out->vertices.emplace_back(first, static_cast<LabelId>(second));
    } else if (tokens[0] == "e") {
      out->edges.emplace_back(first, second);
    } else if (tokens[0] == "c") {
      out->cut_edges.emplace_back(first, second);
    } else {
      return Status::IOError("unknown boundary record kind '" + tokens[0] +
                             "'");
    }
  }
  if (out->vertices.size() != want_vertices ||
      out->edges.size() != want_edges || out->cut_edges.size() != want_cut) {
    return Status::IOError("BOUNDARY body does not match head counts");
  }
  return Status::OK();
}

}  // namespace bigindex

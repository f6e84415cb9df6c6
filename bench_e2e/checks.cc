#include "checks.h"

#include <algorithm>
#include <string>
#include <tuple>

namespace bench_e2e {

using namespace bigindex;

namespace {

std::vector<std::tuple<VertexId, std::vector<VertexId>, uint32_t>> Identities(
    const std::vector<Answer>& answers) {
  std::vector<std::tuple<VertexId, std::vector<VertexId>, uint32_t>> ids;
  for (const Answer& a : answers) {
    ids.emplace_back(a.root, a.keyword_vertices, a.score);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

StatusOr<std::vector<Answer>> QueryOverWire(ProtocolClient& client,
                                            const EngineQuery& query) {
  auto lines = client.Request(FormatQueryLine(query));
  if (!lines.ok()) return lines.status();
  if (lines->empty() || !lines->front().starts_with("OK")) {
    return Status::IOError(lines->empty() ? "empty response"
                                          : lines->front());
  }
  std::vector<Answer> answers(lines->size() - 1);
  for (size_t i = 1; i < lines->size(); ++i) {
    Status parsed = ParseAnswerLine((*lines)[i], &answers[i - 1]);
    if (!parsed.ok()) return parsed;
  }
  return answers;
}

}  // namespace

bool SameAnswers(const std::vector<Answer>& got,
                 const std::vector<Answer>& want, Compare mode) {
  if (mode == Compare::kFull) return got == want;
  return Identities(got) == Identities(want);
}

Status CheckOverWire(uint16_t port, const QueryEngine& reference,
                     const std::vector<CheckCase>& cases) {
  ProtocolClient client("127.0.0.1", port);
  for (const CheckCase& c : cases) {
    auto want = reference.Evaluate(c.query);
    if (!want.ok()) return want.status();
    auto got = QueryOverWire(client, c.query);
    if (!got.ok()) return got.status();
    if (!SameAnswers(*got, want->answers, c.mode)) {
      return Status::FailedPrecondition(
          "answers differ from the reference for '" +
          FormatQueryLine(c.query) + "': got " + std::to_string(got->size()) +
          ", want " + std::to_string(want->answers.size()));
    }
  }
  return Status::OK();
}

Status NegativeControl(const QueryEngine& reference,
                       const std::vector<CheckCase>& cases) {
  for (const CheckCase& c : cases) {
    auto want = reference.Evaluate(c.query);
    if (!want.ok()) return want.status();
    if (want->answers.size() < 2) continue;
    std::vector<Answer> dropped = want->answers;
    dropped.pop_back();
    std::vector<Answer> rescored = want->answers;
    rescored.front().score += 1;
    for (Compare mode : {Compare::kFull, Compare::kIdentity}) {
      if (SameAnswers(dropped, want->answers, mode) ||
          SameAnswers(rescored, want->answers, mode)) {
        return Status::FailedPrecondition(
            "comparator accepted a perturbed answer set");
      }
    }
    return Status::OK();
  }
  return Status::FailedPrecondition("no check case has two answers");
}

}  // namespace bench_e2e

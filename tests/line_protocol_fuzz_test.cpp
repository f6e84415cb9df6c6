// LineProtocolFuzz: the wire codec (server/line_protocol.h) under random
// and hostile input.
//
// Every record round-trips Format* -> Parse* over random values that
// include 0 and each field type's max. Every well-formed line, truncated
// at every byte and with each number replaced by a hostile token ("", -1,
// 1x, 99999999999999999999, nan), parses to a Status and never crashes;
// hostile query requests also go through a LineHandler over a real engine.
// A fake server that answers with one endless line shows ProtocolClient
// stops reading at kMaxRequestLineBytes. tools/ci.sh runs this suite under
// ASan+UBSan with halt_on_error=1.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/big_index.h"
#include "engine/query_engine.h"
#include "server/line_protocol.h"
#include "server/protocol_client.h"
#include "server/search_service.h"
#include "testing/random_graph.h"
#include "util/random.h"

namespace bigindex {
namespace {

constexpr const char* kHostileNumbers[] = {"", "-1", "1x",
                                           "99999999999999999999", "nan"};

/// 0, T's max, or a random value, with equal odds.
template <typename T>
T Pick(Rng& rng) {
  switch (rng.Uniform(3)) {
    case 0: return 0;
    case 1: return std::numeric_limits<T>::max();
    default: return static_cast<T>(rng.Next());
  }
}

/// A response block's lines, without the terminating "." (what
/// ProtocolClient::Request returns).
std::vector<std::string> Lines(const std::string& block) {
  std::vector<std::string> lines;
  for (size_t start = 0; start < block.size();) {
    size_t nl = block.find('\n', start);
    if (nl == std::string::npos) nl = block.size();
    lines.push_back(block.substr(start, nl - start));
    start = nl + 1;
  }
  if (!lines.empty() && lines.back() == ".") lines.pop_back();
  return lines;
}

/// `text` truncated at every byte, then with each run of digits replaced,
/// one run at a time, by each hostile token.
std::vector<std::string> HostileVariants(const std::string& text) {
  std::vector<std::string> out;
  for (size_t n = 0; n < text.size(); ++n) out.push_back(text.substr(0, n));
  for (size_t i = 0; i < text.size();) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[j])) ||
            text[j] == '.')) {
      ++j;
    }
    for (const char* h : kHostileNumbers) {
      out.push_back(text.substr(0, i) + h + text.substr(j));
    }
    i = j;
  }
  return out;
}

EngineQuery RandomQuery(Rng& rng) {
  EngineQuery q;
  q.algorithm = std::string(kDefaultAlgorithms[rng.Uniform(4)]);
  const size_t k = rng.UniformRange(1, 4);
  for (size_t i = 0; i < k; ++i) {
    // kInvalidLabel is not a keyword; the largest id in range is.
    q.keywords.push_back(std::min<LabelId>(Pick<LabelId>(rng),
                                           kInvalidLabel - 1));
  }
  q.eval.top_k = Pick<size_t>(rng);
  q.eval.forced_layer = rng.Bernoulli(0.5) ? -1 : Pick<int>(rng);
  q.eval.exact_verification = rng.Bernoulli(0.5);
  q.eval.beta = rng.Bernoulli(0.2) ? std::numeric_limits<double>::max()
                                   : rng.NextDouble();
  if (rng.Bernoulli(0.5)) {
    q.eval.deadline = Deadline::After(1e6 * rng.NextDouble() - 10);
  }
  return q;
}

QueryResult RandomResult(Rng& rng) {
  QueryResult r;
  // Exactly representable in the reply's 6 significant digits.
  r.wall_ms = static_cast<double>(rng.Uniform(1000)) / 8;
  r.breakdown.layer = Pick<size_t>(rng);
  const size_t n = rng.Uniform(4);
  for (size_t i = 0; i < n; ++i) {
    Answer a;
    a.root = rng.Bernoulli(0.3) ? kInvalidVertex : Pick<VertexId>(rng);
    a.score = Pick<uint32_t>(rng);
    for (size_t j = rng.UniformRange(1, 3); j > 0; --j) {
      a.keyword_vertices.push_back(Pick<VertexId>(rng));
    }
    for (size_t j = rng.Uniform(4); j > 0; --j) {
      a.vertices.push_back(Pick<VertexId>(rng));
    }
    r.answers.push_back(std::move(a));
  }
  r.breakdown.final_answers = n;
  return r;
}

ShardInfo RandomInfo(Rng& rng) {
  ShardInfo info{Pick<uint64_t>(rng), Pick<uint64_t>(rng),
                 Pick<uint32_t>(rng), Pick<uint32_t>(rng),
                 Pick<uint32_t>(rng), {}};
  for (size_t i = rng.Uniform(5); i > 0; --i) {
    info.algorithms.emplace_back(kDefaultAlgorithms[rng.Uniform(4)]);
  }
  return info;
}

UpdateOutcome RandomOutcome(Rng& rng) {
  return {Pick<uint64_t>(rng), Pick<uint64_t>(rng), Pick<uint64_t>(rng),
          Pick<uint64_t>(rng),
          static_cast<UpdateOutcome::Mode>(rng.Uniform(4))};
}

std::vector<GraphUpdate> RandomUpdates(Rng& rng) {
  std::vector<GraphUpdate> batch(rng.UniformRange(1, 4));
  for (GraphUpdate& up : batch) {
    up.kind = rng.Bernoulli(0.5) ? GraphUpdate::Kind::kAddEdge
                                 : GraphUpdate::Kind::kRemoveEdge;
    up.source = Pick<VertexId>(rng);
    up.target = Pick<VertexId>(rng);
  }
  return batch;
}

BoundaryExport RandomBoundary(Rng& rng) {
  BoundaryExport ex;
  ex.radius_cap = Pick<uint32_t>(rng);
  for (size_t i = rng.Uniform(4); i > 0; --i) {
    ex.vertices.emplace_back(Pick<VertexId>(rng), Pick<LabelId>(rng));
  }
  for (size_t i = rng.Uniform(4); i > 0; --i) {
    ex.edges.emplace_back(Pick<VertexId>(rng), Pick<VertexId>(rng));
  }
  for (size_t i = rng.Uniform(4); i > 0; --i) {
    ex.cut_edges.emplace_back(Pick<VertexId>(rng), Pick<VertexId>(rng));
  }
  return ex;
}

/// The update ops of an UPDATE request line, parsed one token at a time.
Status ParseUpdateOps(const std::string& line, std::vector<GraphUpdate>* out) {
  out->clear();
  size_t start = line.find(' ');
  while (start != std::string::npos) {
    const size_t end = line.find(' ', start + 1);
    GraphUpdate up;
    BIGINDEX_RETURN_IF_ERROR(ParseUpdateOp(
        line.substr(start + 1, end == std::string::npos ? end
                                                        : end - start - 1),
        &up));
    out->push_back(up);
    start = end;
  }
  return Status::OK();
}

TEST(LineProtocolFuzz, EveryRecordRoundTrips) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    const EngineQuery q = RandomQuery(rng);
    EngineQuery parsed_q;
    ASSERT_TRUE(ParseQueryLine(FormatQueryLine(q), nullptr, &parsed_q).ok())
        << FormatQueryLine(q);
    EXPECT_EQ(parsed_q.algorithm, q.algorithm);
    EXPECT_EQ(parsed_q.keywords, q.keywords);
    EXPECT_EQ(parsed_q.eval.top_k, q.eval.top_k);
    EXPECT_EQ(parsed_q.eval.forced_layer, q.eval.forced_layer);
    EXPECT_EQ(parsed_q.eval.exact_verification, q.eval.exact_verification);
    EXPECT_EQ(parsed_q.eval.beta, q.eval.beta);
    ASSERT_EQ(parsed_q.eval.deadline.IsNever(), q.eval.deadline.IsNever());
    if (!q.eval.deadline.IsNever()) {
      EXPECT_NEAR(parsed_q.eval.deadline.RemainingMillis(),
                  q.eval.deadline.RemainingMillis(), 1000);
    }

    const QueryResult r = RandomResult(rng);
    QueryResult parsed_r;
    ASSERT_TRUE(ParseQueryBlock(Lines(FormatQueryReply(r)), &parsed_r).ok())
        << FormatQueryReply(r);
    EXPECT_EQ(parsed_r.wall_ms, r.wall_ms);
    EXPECT_EQ(parsed_r.breakdown.layer, r.breakdown.layer);
    EXPECT_EQ(parsed_r.breakdown.final_answers, r.answers.size());
    ASSERT_EQ(parsed_r.answers.size(), r.answers.size());
    for (size_t i = 0; i < r.answers.size(); ++i) {
      EXPECT_EQ(parsed_r.answers[i].root, r.answers[i].root);
      EXPECT_EQ(parsed_r.answers[i].score, r.answers[i].score);
      EXPECT_EQ(parsed_r.answers[i].keyword_vertices,
                r.answers[i].keyword_vertices);
      EXPECT_EQ(parsed_r.answers[i].vertices, r.answers[i].vertices);
    }

    const ShardInfo info = RandomInfo(rng);
    ShardInfo parsed_info;
    const std::string info_block = FormatInfoReply(info, ServiceStats{});
    ASSERT_TRUE(ParseInfoLine(Lines(info_block)[0], &parsed_info).ok())
        << info_block;
    EXPECT_EQ(parsed_info.epoch, info.epoch);
    EXPECT_EQ(parsed_info.fingerprint, info.fingerprint);
    EXPECT_EQ(parsed_info.num_layers, info.num_layers);
    EXPECT_EQ(parsed_info.shard_id, info.shard_id);
    EXPECT_EQ(parsed_info.num_shards, info.num_shards);
    EXPECT_EQ(parsed_info.algorithms, info.algorithms);

    const uint64_t epoch = Pick<uint64_t>(rng);
    uint64_t parsed_epoch = 0;
    ASSERT_TRUE(
        ParseEpochLine(Lines(FormatEpochReply(epoch))[0], &parsed_epoch).ok());
    EXPECT_EQ(parsed_epoch, epoch);

    const std::vector<GraphUpdate> batch = RandomUpdates(rng);
    std::vector<GraphUpdate> parsed_batch;
    ASSERT_TRUE(ParseUpdateOps(FormatUpdateLine(batch), &parsed_batch).ok())
        << FormatUpdateLine(batch);
    ASSERT_EQ(parsed_batch.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(parsed_batch[i].kind, batch[i].kind);
      EXPECT_EQ(parsed_batch[i].source, batch[i].source);
      EXPECT_EQ(parsed_batch[i].target, batch[i].target);
    }

    const UpdateOutcome outcome = RandomOutcome(rng);
    UpdateOutcome parsed_outcome;
    ASSERT_TRUE(ParseUpdateOutcomeLine(Lines(FormatUpdateReply(outcome))[0],
                                       &parsed_outcome)
                    .ok());
    EXPECT_EQ(parsed_outcome.applied, outcome.applied);
    EXPECT_EQ(parsed_outcome.skipped, outcome.skipped);
    EXPECT_EQ(parsed_outcome.layers_rebuilt, outcome.layers_rebuilt);
    EXPECT_EQ(parsed_outcome.epoch, outcome.epoch);
    EXPECT_EQ(parsed_outcome.mode, outcome.mode);

    const BoundaryExport ex = RandomBoundary(rng);
    BoundaryExport parsed_ex;
    ASSERT_TRUE(
        ParseBoundaryBlock(Lines(FormatBoundaryReply(ex)), &parsed_ex).ok());
    EXPECT_EQ(parsed_ex.radius_cap, ex.radius_cap);
    EXPECT_EQ(parsed_ex.vertices, ex.vertices);
    EXPECT_EQ(parsed_ex.edges, ex.edges);
    EXPECT_EQ(parsed_ex.cut_edges, ex.cut_edges);
  }
}

TEST(LineProtocolFuzz, HostileRepliesParseToAStatus) {
  // Each reply as text, and the parser that reads it. Only "no crash" is
  // asserted for the variants: some stay well-formed (a shorter number, a
  // hostile token inside a field the parser skips).
  using Parser = std::function<Status(const std::vector<std::string>&)>;
  const std::vector<std::pair<std::string, Parser>> records = [] {
    Rng rng(7);
    ShardInfo info = RandomInfo(rng);
    info.algorithms = {"bkws", "blinks"};
    BoundaryExport ex = RandomBoundary(rng);
    ex.vertices = {{3, 4}};
    ex.edges = {{5, 6}};
    ex.cut_edges = {{7, 8}};
    return std::vector<std::pair<std::string, Parser>>{
        {FormatQueryReply(RandomResult(rng)),
         [](const auto& lines) {
           QueryResult r;
           return ParseQueryBlock(lines, &r);
         }},
        {"A root=12 score=3 kw=4,5 v=6,7,8\n",
         [](const auto& lines) {
           Answer a;
           return lines.empty() ? Status::OK() : ParseAnswerLine(lines[0], &a);
         }},
        {FormatInfoReply(info, ServiceStats{}),
         [](const auto& lines) {
           ShardInfo i;
           return lines.empty() ? Status::OK() : ParseInfoLine(lines[0], &i);
         }},
        {FormatEpochReply(42),
         [](const auto& lines) {
           uint64_t e = 0;
           return lines.empty() ? Status::OK() : ParseEpochLine(lines[0], &e);
         }},
        {FormatUpdateReply({3, 1, 2, 9, UpdateOutcome::Mode::kIncremental}),
         [](const auto& lines) {
           UpdateOutcome o;
           return lines.empty() ? Status::OK()
                                : ParseUpdateOutcomeLine(lines[0], &o);
         }},
        {FormatUpdateLine(RandomUpdates(rng)) + "\n",
         [](const auto& lines) {
           std::vector<GraphUpdate> ops;
           return lines.empty() ? Status::OK()
                                : ParseUpdateOps(lines[0], &ops);
         }},
        {FormatBoundaryReply(ex),
         [](const auto& lines) {
           BoundaryExport b;
           return ParseBoundaryBlock(lines, &b);
         }},
        {"ERR InvalidArgument: bad value 12\n",
         [](const auto& lines) {
           return lines.empty() ? Status::OK() : ParseErrLine(lines[0]);
         }},
    };
  }();
  size_t variants = 0;
  for (const auto& [text, parse] : records) {
    ASSERT_TRUE(parse(Lines(text)).ok() || text.starts_with("ERR")) << text;
    for (const std::string& hostile : HostileVariants(text)) {
      (void)parse(Lines(hostile));
      ++variants;
    }
  }
  EXPECT_GT(variants, 500u);
}

TEST(LineProtocolFuzz, MalformedNumbersInRepliesAreRejected) {
  QueryResult r;
  for (const char* head : {"OK n=1x ms=1 layer=0", "OK ms=1 layer=0",
                           "OK n=0 ms=nan layer=0", "OK n=0 ms=1 layer=-1",
                           "OK n=2 ms=1 layer=0"}) {
    EXPECT_FALSE(ParseQueryBlock(std::vector<std::string>{head}, &r).ok())
        << head;
  }
  Answer a;
  for (const char* line :
       {"A root=4294967296 score=1 kw=1", "A root=- score=-1 kw=1",
        "A root=- score=1 kw=1,,2", "A root=- score=1 kw=1x", "A root"}) {
    EXPECT_FALSE(ParseAnswerLine(line, &a).ok()) << line;
  }
  ShardInfo info;
  for (const char* line :
       {"OK epoch=1x shard=0/0", "OK epoch=1 shard=0/", "OK epoch=1 shard=0",
        "OK epoch=1 shard=0/0 checksum=xyz", "OK epoch=1 shard=0/0 layers=-1",
        "OK epoch=99999999999999999999 shard=0/0"}) {
    EXPECT_FALSE(ParseInfoLine(line, &info).ok()) << line;
  }
  uint64_t epoch = 0;
  for (const char* line : {"OK", "OK epoch=", "OK epoch=-1", "ERR epoch=1",
                           "OK epoch=nan"}) {
    EXPECT_FALSE(ParseEpochLine(line, &epoch).ok()) << line;
  }
  UpdateOutcome outcome;
  EXPECT_FALSE(
      ParseUpdateOutcomeLine("OK applied=1 skipped=x epoch=2", &outcome).ok());
  BoundaryExport ex;
  for (const std::vector<std::string>& block :
       {std::vector<std::string>{"OK vertices=1 cut=0", "v 1 4294967296"},
        std::vector<std::string>{"OK vertices=0 cut=0 radius=x"},
        std::vector<std::string>{"OK vertices=99999999999999999999 cut=0"},
        std::vector<std::string>{"OK vertices=1 cut=0", "v 1 2 3"}}) {
    EXPECT_FALSE(ParseBoundaryBlock(block, &ex).ok()) << block[0];
  }
}

TEST(LineProtocolFuzz, HostileQueryRequestsAnswerErrAndTheServerServesOn) {
  testing::RandomInstance inst = testing::MakeRandomInstance(
      {.num_vertices = 120, .num_labels = 8, .seed = 3},
      {.num_leaves = 8, .height = 2, .seed = 3});
  auto index = BigIndex::Build(inst.graph, &inst.ontology, {.max_layers = 2});
  ASSERT_TRUE(index.ok());
  SearchService service(std::make_shared<QueryEngine>(
      std::make_shared<const BigIndex>(std::move(index).value())));
  LineHandler handler(&service);

  EngineQuery q;
  q.algorithm = "bkws";
  q.keywords = {0, 1};
  q.eval.top_k = 3;
  q.eval.deadline = Deadline::After(60000);
  const std::string line = FormatQueryLine(q);
  ASSERT_TRUE(handler.Handle(line).response.starts_with("OK n=")) << line;

  for (const std::string& hostile : HostileVariants(line)) {
    const std::string response = handler.Handle(hostile).response;
    ASSERT_TRUE(response.starts_with("OK n=") ||
                response.starts_with("ERR "))
        << hostile;
    ASSERT_TRUE(response.ends_with("\n.\n")) << hostile;
    EngineQuery parsed;
    const Status status = ParseQueryLine(hostile, nullptr, &parsed);
    EXPECT_TRUE(status.ok() || status.code() == StatusCode::kInvalidArgument)
        << hostile;
    // A hostile token in place of a number is never read as a number.
    if (hostile.find("1x") != std::string::npos ||
        hostile.find("nan") != std::string::npos) {
      EXPECT_TRUE(response.starts_with("ERR InvalidArgument:")) << hostile;
    }
  }
  EXPECT_TRUE(handler.Handle(line).response.starts_with("OK n="));
}

TEST(LineProtocolFuzz, EndlessReplyLineFailsTheRequestAndDisconnects) {
  // A hostile peer: accepts one connection, reads the request, then streams
  // 'x' without ever sending '\n' until the client hangs up. It stops at 4x
  // the cap and closes, so a client without a cap would see the connection
  // drop (Unavailable) rather than keep the test running.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    char request[256];
    (void)::read(fd, request, sizeof(request));
    const std::string chunk(64 * 1024, 'x');
    for (size_t streamed = 0; streamed < 4 * kMaxRequestLineBytes;) {
      const ssize_t n =
          ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
      if (n <= 0) break;
      streamed += static_cast<size_t>(n);
    }
    ::close(fd);
  });

  ProtocolClient client("127.0.0.1", ntohs(addr.sin_port));
  auto reply = client.Request("info");
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kIOError)
      << reply.status().ToString();
  EXPECT_FALSE(client.connected());
  peer.join();
  ::close(listener);
}

}  // namespace
}  // namespace bigindex

// bigindex_client — line-protocol client for bigindex_serverd.
//
// Two modes:
//   bigindex_client --connect <host> <port> [--connect-timeout-ms N]
//                   [--connect-retries N]
//       Connects over TCP (bounded connect timeout, exponential-backoff
//       retry — an unreachable server exits with a kUnavailable message
//       instead of hanging), forwards stdin lines, prints response blocks.
//   bigindex_client --inprocess [dataset] [scale] [layers]
//       Spins up the whole serving stack (dataset → index → ServingStack,
//       live updater included so the UPDATE verb works) inside this
//       process and feeds stdin lines straight to the LineHandler — the
//       same protocol with no sockets, handy for scripted smoke tests and
//       for exploring a dataset interactively.
//   bigindex_client --update <host> <port> (add:<u>:<v>|remove:<u>:<v>)...
//       One-shot edge-update batch: sends a single UPDATE request and
//       prints the outcome (applied/skipped/rebuilt/epoch/mode). Exits 0
//       only if the server applied the batch.
//   bigindex_client --rollback <host> <port>
//       One-shot ROLLBACK: re-publishes the server's previous retained
//       index version (undo the last update batch) and prints the new
//       epoch. Exits non-zero when no previous version is retained
//       (FailedPrecondition) or the server has no rollback path
//       (Unimplemented).
//
// Reads requests from stdin (one per line; '#' comments and blank lines are
// skipped) until EOF or a `quit` command.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "bigindex.h"
#include "count_flag.h"

namespace bigindex {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  bigindex_client --connect <host> <port>\n"
               "                  [--connect-timeout-ms N]"
               " [--connect-retries N]\n"
               "  bigindex_client --inprocess [dataset] [scale] [layers]\n"
               "  bigindex_client --update <host> <port>"
               " (add:<u>:<v>|remove:<u>:<v>)...\n"
               "  bigindex_client --rollback <host> <port>\n");
  return 1;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

bool SkippableLine(const std::string& line) {
  return line.empty() || line[0] == '#';
}

/// Reads the <host> <port> arguments every network mode starts with.
bool ParseHostPort(char** argv, std::string* host, uint16_t* port) {
  size_t value = 0;
  if (!ParseCount("port", argv[1], &value, kMaxPort)) return false;
  *host = argv[0];
  *port = static_cast<uint16_t>(value);
  return true;
}

int RunInProcess(int argc, char** argv) {
  std::string dataset_name = argc > 0 ? argv[0] : "yago3";
  double scale = 0.01;
  size_t layers = 4;
  if ((argc > 1 && !ParseReal("scale", argv[1], &scale)) ||
      (argc > 2 && !ParseCount("layers", argv[2], &layers))) {
    return Usage();
  }

  auto ds = MakeDataset(dataset_name, scale);
  if (!ds.ok()) return Fail(ds.status());
  auto index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                               {.max_layers = layers});
  if (!index.ok()) return Fail(index.status());
  // The stack wires the write path, so interactive `update add:0:1 ...`
  // lines work.
  ServingStack stack(
      BuiltShard{std::move(index).value(), {}}, /*fingerprint=*/0, {},
      {.engine = {.num_threads = ExecutorPool::kHardwareConcurrency}});
  LineHandler handler(&stack, ds->dict.get());
  std::fprintf(stderr, "in-process %s (|V|=%zu); type requests:\n",
               dataset_name.c_str(), ds->graph.NumVertices());

  std::string line;
  while (std::getline(std::cin, line)) {
    if (SkippableLine(line)) continue;
    LineHandler::Result result = handler.Handle(line);
    std::fputs(result.response.c_str(), stdout);
    std::fflush(stdout);
    if (result.close) break;
  }
  return 0;
}

int RunConnect(int argc, char** argv) {
  std::string host;
  uint16_t port = 0;
  if (argc < 2 || !ParseHostPort(argv, &host, &port)) return Usage();
  ProtocolClientOptions options;
  for (int i = 2; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--connect-timeout-ms") == 0) {
      if (!ParseReal("--connect-timeout-ms", next("--connect-timeout-ms"),
                     &options.connect_timeout_ms)) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--connect-retries") == 0) {
      // N retries = 1 initial attempt + N backed-off re-dials.
      size_t retries = 0;
      if (!ParseCount("--connect-retries", next("--connect-retries"),
                      &retries, INT_MAX - 1)) {
        return Usage();
      }
      options.max_attempts = 1 + static_cast<int>(retries);
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return Usage();
    }
  }

  ProtocolClient client(host, port, options);
  Status connected = client.Connect();
  if (!connected.ok()) return Fail(connected);

  // Request/response lockstep: send a line, then print the response block
  // (the client strips the terminating '.'; re-add it so scripted consumers
  // of our stdout see the same framing the raw protocol uses).
  std::string line;
  while (std::getline(std::cin, line)) {
    if (SkippableLine(line)) continue;
    if (line == "quit") {
      // The server closes the connection after `quit`; the lockstep reader
      // would report that as an error, so just stop cleanly.
      break;
    }
    auto block = client.Request(line);
    if (!block.ok()) return Fail(block.status());
    for (const std::string& resp : *block) std::printf("%s\n", resp.c_str());
    std::printf(".\n");
    std::fflush(stdout);
  }
  return 0;
}

int RunUpdate(int argc, char** argv) {
  std::string host;
  uint16_t port = 0;
  if (argc < 3 || !ParseHostPort(argv, &host, &port)) return Usage();
  std::string line = "update";
  for (int i = 2; i < argc; ++i) {
    line += ' ';
    line += argv[i];  // server-side parse rejects malformed ops
  }

  ProtocolClient client(host, port);
  auto block = client.Call(line);
  if (!block.ok()) return Fail(block.status());
  UpdateOutcome outcome;
  Status parsed = ParseUpdateOutcomeLine(block->front(), &outcome);
  if (!parsed.ok()) return Fail(parsed);
  std::printf("applied=%llu skipped=%llu rebuilt=%llu epoch=%llu mode=%s\n",
              static_cast<unsigned long long>(outcome.applied),
              static_cast<unsigned long long>(outcome.skipped),
              static_cast<unsigned long long>(outcome.layers_rebuilt),
              static_cast<unsigned long long>(outcome.epoch),
              UpdateModeName(outcome.mode));
  return 0;
}

int RunRollback(int argc, char** argv) {
  std::string host;
  uint16_t port = 0;
  if (argc < 2 || !ParseHostPort(argv, &host, &port)) return Usage();

  ProtocolClient client(host, port);
  auto block = client.Call("rollback");
  if (!block.ok()) return Fail(block.status());
  uint64_t epoch = 0;
  Status parsed = ParseEpochLine(block->front(), &epoch);
  if (!parsed.ok()) return Fail(parsed);
  std::printf("rolled back, epoch=%llu\n",
              static_cast<unsigned long long>(epoch));
  return 0;
}

}  // namespace
}  // namespace bigindex

int main(int argc, char** argv) {
  using namespace bigindex;
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "--inprocess") == 0) {
    return RunInProcess(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "--connect") == 0) {
    return RunConnect(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "--update") == 0) {
    return RunUpdate(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "--rollback") == 0) {
    return RunRollback(argc - 2, argv + 2);
  }
  return Usage();
}

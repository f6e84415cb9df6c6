// bigindex_serverd — long-lived keyword-search daemon.
//
// Builds (or loads) a dataset + BiG-index, serves it through a ServingStack
// (QueryEngine, admission-controlled SearchService, live updater; see
// src/shard/serving_stack.h) and speaks the line protocol over TCP until
// SIGINT/SIGTERM. See DESIGN.md "Serving layer" for the pipeline and
// src/server/line_protocol.h for the wire format; `tools/bigindex_client`
// is the matching client. The same port answers HTTP scrapes: `GET /metrics`
// (Prometheus text) and `GET /trace` (the chrome trace JSON), one response
// per connection.
//
//   bigindex_serverd [--dataset yago3] [--scale 0.01] [--layers 4]
//                    [--port 7419] [--threads N]
//                    [--index-image PATH]
//                    [--queue N] [--cache N] [--deadline-ms F]
//                    [--reject-oldest] [--trace]
//                    [--shards N --shard-of K [--shard-mode wcc|bfs]
//                     [--bfs-block N]]
//                    [--coordinator HOST:PORT,HOST:PORT,...]
//
// Three serving modes (DESIGN.md §9):
//   * monolithic (default): one index over the whole graph.
//   * shard worker (--shards N --shard-of K): plans the N-way shard cover
//     over the dataset (PlanShards is deterministic, so all workers agree
//     without coordination), builds only shard K's index, and serves it
//     behind a global-id remap. With --index-image PREFIX the worker
//     saves/loads "PREFIX.shard<K>of<N>.img". All workers must be launched
//     with identical dataset/shard flags. Workers run without an answer
//     cache (the coordinator caches merged answers), so --cache is a usage
//     error here.
//   * coordinator (--coordinator h:p,...): no index at all; attaches a
//     scatter-gather ShardedSearchService over the listed shard workers
//     (in shard-id order) and serves the same line protocol. The dataset
//     flags are still used to build the label dictionary for keyword-name
//     parsing. --cache sizes the coordinator's cache of merged answers,
//     --deadline-ms the default fan-out deadline, --allow-partial opts
//     into serving partial merges when a shard is down, and
//     --attach-retries bounds startup waiting for workers to come up.
//
//   --index-image PATH mmaps a flat index image (core/index_image.h) instead
//   of rebuilding the hierarchy at startup, cutting cold start from seconds
//   to milliseconds. If PATH does not exist yet, the index is built once and
//   saved there, so the flag is self-priming across restarts. An existing
//   PATH is only ever loaded: a file that is not a valid image fails startup
//   and is left untouched. The dataset flags must match the ones the image
//   was built with (the label dictionaries are cross-checked at load), and
//   so must the shard flags: a shard image is never served as the whole
//   graph, nor the other way round.
//   --threads N sets how many queries evaluate at once (0 = one; default one
//   per hardware thread); the engine itself starts no threads, the service
//   runs that many dispatch strands. --cache N sizes the answer cache of a
//   monolithic server or a coordinator (default 4096 entries; 0 disables
//   it). Every count flag takes only plain decimal digits (ports at most
//   65535); anything else is a usage error.
//   --trace enables span collection from startup (covers index construction
//   too); it can also be toggled at runtime with the `trace on|off` verb.
//
// Live updates: monolithic servers and shard workers accept the UPDATE verb
// (see src/server/line_protocol.h) and maintain the served index in place —
// the kernel's cone re-sign per layer, RCU epoch-swapped publication (see
// docs/MAINTENANCE.md). Coordinators always accept UPDATE and broadcast it
// to their workers.
//
// On shutdown the final ServiceStats snapshot is printed to stderr.

#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bigindex.h"
#include "count_flag.h"

namespace bigindex {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: bigindex_serverd [--dataset NAME] [--scale F] [--layers N]\n"
      "                        [--port N] [--threads N]\n"
      "                        [--index-image PATH]\n"
      "                        [--queue N] [--cache N] [--deadline-ms F]\n"
      "                        [--reject-oldest] [--trace]\n"
      "                        [--shards N --shard-of K"
      " [--shard-mode wcc|bfs] [--bfs-block N]]\n"
      "                        [--coordinator HOST:PORT,...]"
      " [--allow-partial] [--attach-retries N]\n");
  return 1;
}

/// Parses "host:port,host:port,..." into shard endpoints.
StatusOr<std::vector<ShardEndpoint>> ParseEndpoints(const std::string& spec) {
  std::vector<ShardEndpoint> endpoints;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(start, comma - start);
    size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon + 1 >= entry.size()) {
      return Status::InvalidArgument("bad endpoint '" + entry +
                                     "' (want HOST:PORT)");
    }
    ShardEndpoint ep;
    ep.host = entry.substr(0, colon);
    size_t port = 0;
    if (ep.host.empty() ||
        !ParseCount("--coordinator port", entry.c_str() + colon + 1, &port,
                    kMaxPort) ||
        port == 0) {
      return Status::InvalidArgument("bad endpoint '" + entry + "'");
    }
    ep.port = static_cast<uint16_t>(port);
    endpoints.push_back(std::move(ep));
    start = comma + 1;
  }
  return endpoints;
}

/// Serves `service` over TCP (line protocol and HTTP scrapes on one port)
/// until SIGINT/SIGTERM; then prints the final stats. `what` names the
/// process in the startup line scripts wait for:
/// "bigindex_serverd <what> on port <port><detail>".
int ServeUntilSignal(QueryService* service, const LabelDictionary* dict,
                     const TcpServerOptions& tcp, const std::string& what,
                     const std::string& detail) {
  TcpServer server(service, dict, tcp);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "bigindex_serverd %s on port %u%s\n", what.c_str(),
               server.port(), detail.c_str());

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    pause();  // wake on any signal; g_stop decides whether to exit
  }
  std::fprintf(stderr, "shutting down...\n");
  server.Stop();
  std::fprintf(stderr, "final stats: %s\n",
               service->Snapshot().ToString().c_str());
  return 0;
}

/// Loads the index image at `image_path` if that path exists, else builds
/// the index (the whole graph, or shard `want.shard_id` of `build.plan`) and
/// saves it there when a path is given. An existing path that does not load
/// is an error, never overwritten. A loaded image must hold the shard `want`
/// names (0/0: the whole graph); `what` names it in the log.
StatusOr<BuiltShard> LoadOrBuild(Dataset& ds, const std::string& image_path,
                                 const ShardImageInfo& want,
                                 const ShardBuildOptions& build,
                                 const std::string& what) {
  StatusOr<BuiltShard> built = Status::Unavailable("index not initialized");
  if (!image_path.empty() && ::access(image_path.c_str(), F_OK) == 0) {
    Timer load_timer;
    ShardImageInfo shard;
    auto loaded =
        LoadIndexImage(image_path, *ds.dict, &ds.ontology.ontology, &shard);
    if (!loaded.ok()) {
      return Status(loaded.status().code(),
                    image_path + ": " + loaded.status().message());
    }
    if (shard.shard_id != want.shard_id ||
        shard.num_shards != want.num_shards) {
      return Status::InvalidArgument(
          image_path + " holds shard " + std::to_string(shard.shard_id) +
          "/" + std::to_string(shard.num_shards) + ", flags say " +
          std::to_string(want.shard_id) + "/" +
          std::to_string(want.num_shards));
    }
    std::fprintf(stderr, "%s mmapped from %s in %.2f ms\n", what.c_str(),
                 image_path.c_str(), load_timer.ElapsedMillis());
    built = BuiltShard{std::move(loaded).value(), std::move(shard)};
  } else {
    Timer build_timer;
    if (want.IsSharded()) {
      built = BuildOneShard(ds.graph, &ds.ontology.ontology, build,
                            want.shard_id);
    } else {
      auto index = BigIndex::Build(ds.graph, &ds.ontology.ontology,
                                   build.index);
      if (!index.ok()) return index.status();
      built = BuiltShard{std::move(index).value(), {}};
    }
    if (!built.ok()) return built.status();
    std::fprintf(stderr, "%s: |V|=%zu |E|=%zu, %zu layers, %.1f ms build\n",
                 what.c_str(), built->index.base().NumVertices(),
                 built->index.base().NumEdges(), built->index.NumLayers(),
                 build_timer.ElapsedMillis());
    if (!image_path.empty()) {
      BIGINDEX_RETURN_IF_ERROR(SaveIndexImageFile(built->index, *ds.dict,
                                                  built->shard, image_path));
      std::fprintf(stderr, "saved %s image to %s (next start mmaps it)\n",
                   what.c_str(), image_path.c_str());
    }
  }
  return built;
}

int Run(int argc, char** argv) {
  std::string dataset_name = "yago3";
  double scale = 0.01;
  size_t layers = 4;
  std::string index_image_path;
  TcpServerOptions tcp;
  bool trace_from_start = false;
  LiveUpdaterOptions updater_opts{
      .engine = {.num_threads = ExecutorPool::kHardwareConcurrency}};
  SearchServiceOptions service_opts;
  ShardPlanOptions plan_opts;  // plan_opts.num_shards > 1 => worker mode
  int shard_of = -1;
  std::string coordinator_spec;
  bool allow_partial = false;
  size_t attach_retries = 10;
  bool cache_flag = false;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(Usage());
      }
      return argv[++i];
    };
    auto count = [&](const char* flag, size_t max = SIZE_MAX) -> size_t {
      size_t value = 0;
      if (!ParseCount(flag, next(flag), &value, max)) std::exit(Usage());
      return value;
    };
    auto real = [&](const char* flag) -> double {
      double value = 0;
      if (!ParseReal(flag, next(flag), &value)) std::exit(Usage());
      return value;
    };
    if (std::strcmp(argv[i], "--dataset") == 0) {
      dataset_name = next("--dataset");
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      scale = real("--scale");
    } else if (std::strcmp(argv[i], "--layers") == 0) {
      layers = count("--layers");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      tcp.port = static_cast<uint16_t>(count("--port", kMaxPort));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      updater_opts.engine.num_threads = count("--threads");
    } else if (std::strcmp(argv[i], "--index-image") == 0) {
      index_image_path = next("--index-image");
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      service_opts.queue_capacity = count("--queue");
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      service_opts.cache.capacity = count("--cache");
      cache_flag = true;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      service_opts.default_deadline_ms = real("--deadline-ms");
    } else if (std::strcmp(argv[i], "--reject-oldest") == 0) {
      service_opts.overload_policy = OverloadPolicy::kRejectOldest;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_from_start = true;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      plan_opts.num_shards = count("--shards");
    } else if (std::strcmp(argv[i], "--shard-of") == 0) {
      shard_of = static_cast<int>(count("--shard-of", INT_MAX));
    } else if (std::strcmp(argv[i], "--shard-mode") == 0) {
      const char* mode = next("--shard-mode");
      if (std::strcmp(mode, "wcc") == 0) {
        plan_opts.mode = ShardMode::kConnectivityClosed;
      } else if (std::strcmp(mode, "bfs") == 0) {
        plan_opts.mode = ShardMode::kBfsBlocks;
      } else {
        std::fprintf(stderr, "error: unknown shard mode %s\n", mode);
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--bfs-block") == 0) {
      plan_opts.bfs_block_size = count("--bfs-block");
    } else if (std::strcmp(argv[i], "--coordinator") == 0) {
      coordinator_spec = next("--coordinator");
    } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
      allow_partial = true;
    } else if (std::strcmp(argv[i], "--attach-retries") == 0) {
      attach_retries = count("--attach-retries");
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return Usage();
    }
  }

  // Before the build so construction spans (build/*, bisim/*) are captured.
  if (trace_from_start) Tracer::Global().SetEnabled(true);

  if (!coordinator_spec.empty() && shard_of >= 0) {
    std::fprintf(stderr,
                 "error: --coordinator and --shard-of are exclusive\n");
    return Usage();
  }
  if (cache_flag && shard_of >= 0) {
    std::fprintf(stderr,
                 "error: --cache does not apply to --shard-of workers (the "
                 "coordinator caches merged answers)\n");
    return Usage();
  }
  if (shard_of >= 0 && (plan_opts.num_shards < 1 ||
                        static_cast<uint32_t>(shard_of) >=
                            plan_opts.num_shards)) {
    std::fprintf(stderr, "error: --shard-of %d out of range for --shards %zu\n",
                 shard_of, plan_opts.num_shards);
    return Usage();
  }

  std::fprintf(stderr, "building dataset %s at scale %.4f...\n",
               dataset_name.c_str(), scale);
  auto ds = MakeDataset(dataset_name, scale);
  if (!ds.ok()) {
    std::fprintf(stderr, "error: %s\n", ds.status().ToString().c_str());
    return 1;
  }

  if (!coordinator_spec.empty()) {
    // Coordinator: scatter-gather over remote shard workers; the dataset is
    // only needed for its label dictionary (keyword-name parsing).
    auto endpoints = ParseEndpoints(coordinator_spec);
    if (!endpoints.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   endpoints.status().ToString().c_str());
      return 1;
    }
    RemoteSubstrate substrate(std::move(endpoints).value());
    ShardedServiceOptions copts;
    copts.fanout_threads = updater_opts.engine.num_threads;
    copts.cache = service_opts.cache;
    copts.default_deadline_ms = service_opts.default_deadline_ms;
    copts.allow_partial = allow_partial;
    ShardedSearchService coordinator(&substrate, copts);
    Status attached = Status::Unavailable("attach not tried");
    for (size_t attempt = 0; attempt <= attach_retries; ++attempt) {
      if (attempt > 0) usleep(500 * 1000);  // workers may still be starting
      attached = coordinator.Attach();
      if (attached.ok()) break;
    }
    if (!attached.ok()) {
      std::fprintf(stderr, "error: %s\n", attached.ToString().c_str());
      return 1;
    }
    return ServeUntilSignal(
        &coordinator, ds->dict.get(), tcp, "coordinator",
        " over " + std::to_string(coordinator.num_shards()) + " shards");
  }

  // The whole graph, or (shard worker) just our slice of the deterministic
  // shard plan, served behind a local->global id remap.
  ShardImageInfo want;
  std::string what = "whole graph";
  std::string image_path = index_image_path;
  if (shard_of >= 0) {
    want.shard_id = static_cast<uint32_t>(shard_of);
    want.num_shards = static_cast<uint32_t>(plan_opts.num_shards);
    what = "shard " + std::to_string(want.shard_id) + "/" +
           std::to_string(want.num_shards);
    if (!image_path.empty()) {
      image_path = ShardImagePath(image_path, want.shard_id, want.num_shards);
    }
  }
  auto built = LoadOrBuild(
      *ds, image_path, want,
      {.plan = plan_opts, .index = {.max_layers = layers}},
      what);
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    return 1;
  }
  uint64_t fingerprint = 0;
  if (!image_path.empty()) {
    auto info = InspectIndexImage(image_path);
    if (info.ok()) fingerprint = info->fingerprint;
  }
  if (!built->shard.ghosts.empty()) {
    std::fprintf(stderr, "%s: %zu ghost vertices materialized\n",
                 what.c_str(), built->shard.ghosts.size());
  }
  ServingStack stack(std::move(built).value(), fingerprint, service_opts,
                     std::move(updater_opts));
  const SearchServiceOptions& serving = stack.service().options();
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                " (threads=%zu queue=%zu cache=%zu)",
                stack.service().engine_snapshot()->num_slots(),
                serving.queue_capacity, serving.cache.capacity);
  return ServeUntilSignal(&stack, ds->dict.get(), tcp, what, detail);
}

}  // namespace
}  // namespace bigindex

int main(int argc, char** argv) { return bigindex::Run(argc, argv); }

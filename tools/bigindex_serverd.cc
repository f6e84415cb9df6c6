// bigindex_serverd — long-lived keyword-search daemon.
//
// Builds (or loads) a dataset + BiG-index, wraps it in a QueryEngine and an
// admission-controlled SearchService, and serves the line protocol over TCP
// until SIGINT/SIGTERM. See DESIGN.md "Serving layer" for the pipeline and
// src/server/line_protocol.h for the wire format; `tools/bigindex_client`
// is the matching client.
//
//   bigindex_serverd [--dataset yago3] [--scale 0.01] [--layers 4]
//                    [--port 7419] [--threads N] [--build-threads N]
//                    [--index-image PATH]
//                    [--queue N] [--max-batch N] [--linger-ms F] [--cache N]
//                    [--deadline-ms F] [--reject-oldest]
//                    [--metrics-port N] [--trace]
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
//   saved there, so the flag is self-priming across restarts. The dataset
//   flags must match the ones the image was built with (the label
//   dictionaries are cross-checked at load).
//   --threads 0  = serial engine (no pool);  --cache N sizes the answer
//   cache of a monolithic server or a coordinator (default 4096 entries;
//   0 disables it).
//   --build-threads parallelizes the startup index construction (0 = serial,
//   the default; the built index is identical for any value).
//   --metrics-port 0 (the default) disables the HTTP scrape endpoint; the
//   line protocol's `metrics` verb works either way. --trace enables span
//   collection from startup (covers index construction too); it can also be
//   toggled at runtime with the `trace on|off` verb.
//
// Live updates: monolithic servers and shard workers accept the UPDATE verb
// (see src/server/line_protocol.h) and maintain the served index in place —
// delta-propagating incremental refinement, RCU epoch-swapped publication.
// --update-fallback-ratio F sets the dirty-frontier ratio above which a
// layer is re-summarized wholesale (default 0.5, see docs/MAINTENANCE.md
// for tuning); --no-live-updates
// disables the write path entirely (UPDATE answers ERR Unimplemented).
// Coordinators always accept UPDATE and broadcast it to their workers.
//
// On shutdown the final ServiceStats snapshot is printed to stderr.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bigindex.h"

namespace bigindex {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: bigindex_serverd [--dataset NAME] [--scale F] [--layers N]\n"
      "                        [--port N] [--threads N] [--build-threads N]\n"
      "                        [--index-image PATH]\n"
      "                        [--queue N] [--max-batch N] [--linger-ms F]\n"
      "                        [--cache N] [--deadline-ms F]\n"
      "                        [--reject-oldest] [--metrics-port N]"
      " [--trace]\n"
      "                        [--shards N --shard-of K"
      " [--shard-mode wcc|bfs] [--bfs-block N]]\n"
      "                        [--coordinator HOST:PORT,...]"
      " [--allow-partial] [--attach-retries N]\n"
      "                        [--update-fallback-ratio F]"
      " [--no-live-updates]\n");
  return 1;
}

/// Builds a LiveUpdater over `index`/`engine` and wires it to `service`
/// (swap hook + write path + rollback path). Shared by the monolithic and
/// shard-worker modes; the caller keeps the returned updater alive next to
/// the service. `before_swap` (optional) runs on each successor engine
/// before publication — shard workers use it to reinstall the boundary
/// filter matching the new graph.
std::unique_ptr<LiveUpdater> WireLiveUpdater(
    std::shared_ptr<const BigIndex> index,
    std::shared_ptr<const QueryEngine> engine,
    const QueryEngineOptions& engine_opts, double fallback_ratio,
    SearchService* service,
    std::function<void(const QueryEngine&)> before_swap = {}) {
  LiveUpdaterOptions opts;
  opts.maintain.fallback_dirty_ratio = fallback_ratio;
  opts.engine = engine_opts;
  auto updater = std::make_unique<LiveUpdater>(std::move(index),
                                               std::move(engine),
                                               std::move(opts));
  updater->set_swap([service, before_swap = std::move(before_swap)](
                        std::shared_ptr<const QueryEngine> next) {
    if (before_swap) before_swap(*next);
    return service->SwapEngine(std::move(next));
  });
  LiveUpdater* raw = updater.get();
  service->set_updater([raw](std::span<const GraphUpdate> updates) {
    return raw->Apply(updates);
  });
  service->set_rollbacker([raw] { return raw->Rollback(); });
  return updater;
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
    ep.port = static_cast<uint16_t>(std::atoi(entry.c_str() + colon + 1));
    if (ep.host.empty() || ep.port == 0) {
      return Status::InvalidArgument("bad endpoint '" + entry + "'");
    }
    endpoints.push_back(std::move(ep));
    start = comma + 1;
  }
  return endpoints;
}

/// Blocks until SIGINT/SIGTERM, then stops the servers. Callers drain their
/// own service and print final stats afterwards.
void ServeUntilSignal(TcpServer& server, MetricsHttpServer* scrape) {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    pause();  // wake on any signal; g_stop decides whether to exit
  }
  std::fprintf(stderr, "shutting down...\n");
  if (scrape != nullptr) scrape->Stop();
  server.Stop();
}

int Run(int argc, char** argv) {
  std::string dataset_name = "yago3";
  double scale = 0.01;
  size_t layers = 4;
  size_t build_threads = 0;
  std::string index_image_path;
  TcpServerOptions tcp;
  MetricsHttpOptions metrics_http;
  bool trace_from_start = false;
  QueryEngineOptions engine_opts{.num_threads =
                                     ExecutorPool::kHardwareConcurrency};
  SearchServiceOptions service_opts;
  ShardPlanOptions plan_opts;  // plan_opts.num_shards > 1 => worker mode
  int shard_of = -1;
  std::string coordinator_spec;
  bool allow_partial = false;
  size_t attach_retries = 10;
  double update_fallback_ratio = 0.5;
  bool live_updates = true;
  bool cache_flag = false;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--dataset") == 0) {
      dataset_name = next("--dataset");
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      scale = std::atof(next("--scale"));
    } else if (std::strcmp(argv[i], "--layers") == 0) {
      layers = static_cast<size_t>(std::atoi(next("--layers")));
    } else if (std::strcmp(argv[i], "--port") == 0) {
      tcp.port = static_cast<uint16_t>(std::atoi(next("--port")));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      engine_opts.num_threads =
          static_cast<size_t>(std::atoi(next("--threads")));
    } else if (std::strcmp(argv[i], "--build-threads") == 0) {
      build_threads = static_cast<size_t>(std::atoi(next("--build-threads")));
    } else if (std::strcmp(argv[i], "--index-image") == 0) {
      index_image_path = next("--index-image");
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      service_opts.queue_capacity =
          static_cast<size_t>(std::atoi(next("--queue")));
    } else if (std::strcmp(argv[i], "--max-batch") == 0) {
      service_opts.max_batch_size =
          static_cast<size_t>(std::atoi(next("--max-batch")));
    } else if (std::strcmp(argv[i], "--linger-ms") == 0) {
      service_opts.max_linger_ms = std::atof(next("--linger-ms"));
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      service_opts.cache.capacity =
          static_cast<size_t>(std::atoi(next("--cache")));
      cache_flag = true;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      service_opts.default_deadline_ms = std::atof(next("--deadline-ms"));
    } else if (std::strcmp(argv[i], "--reject-oldest") == 0) {
      service_opts.overload_policy = OverloadPolicy::kRejectOldest;
    } else if (std::strcmp(argv[i], "--metrics-port") == 0) {
      metrics_http.port =
          static_cast<uint16_t>(std::atoi(next("--metrics-port")));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_from_start = true;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      plan_opts.num_shards =
          static_cast<size_t>(std::atoi(next("--shards")));
    } else if (std::strcmp(argv[i], "--shard-of") == 0) {
      shard_of = std::atoi(next("--shard-of"));
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
      plan_opts.bfs_block_size =
          static_cast<size_t>(std::atoi(next("--bfs-block")));
    } else if (std::strcmp(argv[i], "--coordinator") == 0) {
      coordinator_spec = next("--coordinator");
    } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
      allow_partial = true;
    } else if (std::strcmp(argv[i], "--attach-retries") == 0) {
      attach_retries = static_cast<size_t>(std::atoi(next("--attach-retries")));
    } else if (std::strcmp(argv[i], "--update-fallback-ratio") == 0) {
      update_fallback_ratio = std::atof(next("--update-fallback-ratio"));
    } else if (std::strcmp(argv[i], "--no-live-updates") == 0) {
      live_updates = false;
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
    copts.fanout_threads = engine_opts.num_threads;
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
    TcpServer server(&coordinator, ds->dict.get(), tcp);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "bigindex_serverd coordinator on port %u over %zu shards\n",
                 server.port(), coordinator.num_shards());
    ServeUntilSignal(server, nullptr);
    std::fprintf(stderr, "final stats: %s\n",
                 coordinator.Snapshot().ToString().c_str());
    return 0;
  }

  if (shard_of >= 0) {
    // Shard worker: build (or load) just our slice of the deterministic
    // shard plan and serve it behind a local→global id remap.
    ShardBuildOptions build_opts;
    build_opts.plan = plan_opts;
    build_opts.index = {.max_layers = layers,
                        .build = {.num_threads = build_threads}};
    const std::string image_path =
        index_image_path.empty()
            ? std::string()
            : ShardImagePath(index_image_path,
                             static_cast<uint32_t>(shard_of),
                             static_cast<uint32_t>(plan_opts.num_shards));
    StatusOr<BuiltShard> built = Status::Unavailable("shard not initialized");
    if (!image_path.empty() && LooksLikeIndexImage(image_path)) {
      Timer load_timer;
      ShardImageInfo shard_info;
      auto loaded = LoadIndexImage(image_path, *ds->dict,
                                   &ds->ontology.ontology, {}, &shard_info);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      if (shard_info.shard_id != static_cast<uint32_t>(shard_of) ||
          shard_info.num_shards != plan_opts.num_shards) {
        std::fprintf(stderr,
                     "error: %s holds shard %u/%u, flags say %d/%zu\n",
                     image_path.c_str(), shard_info.shard_id,
                     shard_info.num_shards, shard_of, plan_opts.num_shards);
        return 1;
      }
      std::fprintf(stderr, "shard %d/%zu mmapped from %s in %.2f ms\n",
                   shard_of, plan_opts.num_shards, image_path.c_str(),
                   load_timer.ElapsedMillis());
      built = BuiltShard{std::move(loaded).value(), std::move(shard_info)};
    } else {
      Timer build_timer;
      built = BuildOneShard(ds->graph, &ds->ontology.ontology, build_opts,
                            static_cast<uint32_t>(shard_of));
      if (!built.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     built.status().ToString().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "shard %d/%zu: |V|=%zu, %zu layers, %.1f ms build\n",
                   shard_of, plan_opts.num_shards,
                   built->shard.global_of.size(), built->index.NumLayers(),
                   build_timer.ElapsedMillis());
      if (!image_path.empty()) {
        Status saved = SaveIndexImageFile(built->index, *ds->dict,
                                          built->shard, image_path);
        if (!saved.ok()) {
          std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
          return 1;
        }
        std::fprintf(stderr, "saved shard image to %s\n", image_path.c_str());
      }
    }
    uint64_t fingerprint = 0;
    if (!image_path.empty()) {
      auto info = InspectIndexImage(image_path);
      if (info.ok()) fingerprint = info->fingerprint;
    }
    uint32_t num_layers = static_cast<uint32_t>(built->index.NumLayers());
    auto shard_index = std::make_shared<const BigIndex>(
        std::move(built->index));
    auto engine =
        std::make_shared<const QueryEngine>(shard_index, engine_opts);
    service_opts.cache.capacity = 0;  // the coordinator is the cache tier
    SearchService service(engine, service_opts);
    service.set_identity(ServiceIdentity{
        .fingerprint = fingerprint,
        .num_layers = num_layers,
        .shard_id = static_cast<uint32_t>(shard_of),
        .num_shards = static_cast<uint32_t>(plan_opts.num_shards),
    });
    // The remap/ghost tables are shared with the updater's swap hook: every
    // published successor graph gets a freshly computed boundary filter.
    auto global_of = std::make_shared<const std::vector<VertexId>>(
        std::move(built->shard.global_of));
    auto ghosts = std::make_shared<const std::vector<VertexId>>(
        std::move(built->shard.ghosts));
    ShardRemapService remapped(&service, *global_of, *ghosts);
    if (!ghosts->empty()) {
      remapped.InstallBoundary(ComputeShardBoundary(
          engine->index().base(), *global_of, *ghosts,
          AlgorithmRadii(*engine)));
      std::fprintf(stderr, "shard %d/%zu: %zu ghost vertices materialized\n",
                   shard_of, plan_opts.num_shards, ghosts->size());
    }
    std::unique_ptr<LiveUpdater> updater;
    if (live_updates) {
      ShardRemapService* remapped_ptr = &remapped;
      updater = WireLiveUpdater(
          std::move(shard_index), engine, engine_opts, update_fallback_ratio,
          &service,
          [remapped_ptr, global_of, ghosts](const QueryEngine& next) {
            if (ghosts->empty()) return;
            remapped_ptr->InstallBoundary(ComputeShardBoundary(
                next.index().base(), *global_of, *ghosts,
                AlgorithmRadii(next)));
          });
    }
    TcpServer server(&remapped, ds->dict.get(), tcp);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "bigindex_serverd shard %d/%zu on port %u\n",
                 shard_of, plan_opts.num_shards, server.port());
    ServeUntilSignal(server, nullptr);
    service.Shutdown();
    std::fprintf(stderr, "final stats: %s\n",
                 service.Snapshot().ToString().c_str());
    return 0;
  }

  StatusOr<BigIndex> index = Status::Unavailable("index not initialized");
  if (!index_image_path.empty() && LooksLikeIndexImage(index_image_path)) {
    Timer load_timer;
    index = LoadIndexImage(index_image_path, *ds->dict,
                           &ds->ontology.ontology);
    if (!index.ok()) {
      std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "index: |V|=%zu |E|=%zu, %zu layers, mmapped from %s in "
                 "%.2f ms\n",
                 ds->graph.NumVertices(), ds->graph.NumEdges(),
                 index->NumLayers(), index_image_path.c_str(),
                 load_timer.ElapsedMillis());
  } else {
    Timer build_timer;
    index = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                            {.max_layers = layers,
                             .build = {.num_threads = build_threads}});
    if (!index.ok()) {
      std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "index: |V|=%zu |E|=%zu, %zu layers, %.1f ms build\n",
                 ds->graph.NumVertices(), ds->graph.NumEdges(),
                 index->NumLayers(), build_timer.ElapsedMillis());
    if (!index_image_path.empty()) {
      Status saved = SaveIndexImageFile(*index, *ds->dict, index_image_path);
      if (!saved.ok()) {
        std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "saved index image to %s (next start mmaps it)\n",
                   index_image_path.c_str());
    }
  }

  auto index_ptr = std::make_shared<const BigIndex>(std::move(index).value());
  auto engine = std::make_shared<const QueryEngine>(index_ptr, engine_opts);
  SearchService service(engine, service_opts);
  std::unique_ptr<LiveUpdater> updater;
  if (live_updates) {
    updater = WireLiveUpdater(std::move(index_ptr), engine, engine_opts,
                              update_fallback_ratio, &service);
  }
  TcpServer server(&service, ds->dict.get(), tcp);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "bigindex_serverd listening on port %u "
               "(threads=%zu queue=%zu max_batch=%zu cache=%zu)\n",
               server.port(), engine->num_slots(),
               service_opts.queue_capacity, service_opts.max_batch_size,
               service_opts.cache.capacity);

  MetricsHttpServer scrape(metrics_http);
  if (metrics_http.port != 0) {
    Status scrape_started = scrape.Start();
    if (!scrape_started.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   scrape_started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics on http://127.0.0.1:%u/metrics\n",
                 scrape.port());
  }

  ServeUntilSignal(server, &scrape);
  service.Shutdown();
  std::fprintf(stderr, "final stats: %s\n",
               service.Snapshot().ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace bigindex

int main(int argc, char** argv) { return bigindex::Run(argc, argv); }

// bigindex_cli — command-line front end for the library.
//
// Subcommands:
//   gen     <dataset> <scale> <graph.out> <ontology.out>
//           Generate a stand-in dataset and write graph + ontology files.
//   build   <graph.in> <ontology.in> <index.out> [max_layers]
//           Build a BiG-index from files (serially, one layer at a time) and
//           write it as a flat index image (core/index_image.h).
//   stats   <graph.in> <ontology.in> <index.in>
//           Print per-layer statistics of a serialized index.
//   query   <graph.in> <ontology.in> <index.in> <algo> <k1,k2,...> [top_k]
//           Evaluate a keyword query through the index; algo is one of
//           bkws | blinks | rclique | bidi.
//   batch   <graph.in> <ontology.in> <index.in> <algo> <queries.txt>
//           [threads] [top_k]
//           Evaluate a batch of queries (one comma-separated keyword list
//           per line): `threads` pool workers (0 = serial, the default)
//           each call QueryEngine::Evaluate; results print in input order
//           and the first failing query fails the run.
//   inspect <index.img>
//           Dump the header and section table of a flat index image,
//           including the shard identity and content fingerprint.
//   shard   <graph.in> <ontology.in> <num_shards> [image-prefix] [layers]
//           [--shard-mode wcc|bfs] [--bfs-block N]
//           Plan an N-way shard cover and print its balance and
//           boundary-cut statistics. With an image prefix, additionally
//           build every shard's index and write one relocatable shard image
//           per shard under the "<prefix>.shard<k>of<n>.img" convention
//           bigindex_serverd --shard-of loads.
//   update  <graph.in> <ontology.in> <index.in>
//           (add:<u>:<v>|remove:<u>:<v>)... [--out <index.out>] [--check]
//           Apply an edge-update batch to a built index offline via
//           incremental maintenance (update/maintain.h) and print the
//           per-layer maintenance report. --out writes the successor
//           index image; --check additionally rebuilds from scratch on the
//           updated graph and verifies the successor's image is
//           byte-identical (exit 1 on divergence).
//
// Every index file is a flat mmap image (core/index_image.h).
//
// Query evaluation goes through the QueryEngine: the CLI registers the
// selected algorithm with its configured options and submits EngineQuery
// records, so single-shot `query` and pooled `batch` share one code path.
// Count arguments (threads, layers, top_k, shard counts) take only plain
// decimal digits, and the scale only a finite number >= 0; anything else
// is a usage error, and so is an unknown --flag or a positional argument
// past a subcommand's last one.
//
// Exit status: 0 on success, 1 on any error (message on stderr).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bigindex.h"
#include "count_flag.h"

namespace bigindex {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Local error-propagation helper for command bodies that return int.
#define BIGINDEX_RETURN_IF_ERROR_CLI(expr) \
  do {                                     \
    Status _st = (expr);                   \
    if (!_st.ok()) return Fail(_st);       \
  } while (0)

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  bigindex_cli gen   <dataset> <scale> <graph> <ontology>\n"
               "  bigindex_cli build <graph> <ontology> <index> [layers]\n"
               "  bigindex_cli stats <graph> <ontology> <index>\n"
               "  bigindex_cli query <graph> <ontology> <index> "
               "<bkws|blinks|rclique|bidi> <kw1,kw2,...> [top_k]\n"
               "  bigindex_cli batch <graph> <ontology> <index> "
               "<bkws|blinks|rclique|bidi> <queries.txt> [threads] [top_k]\n"
               "  bigindex_cli inspect <index.img>\n"
               "  bigindex_cli shard <graph> <ontology> <num_shards>"
               " [image-prefix] [layers]\n"
               "               [--shard-mode wcc|bfs] [--bfs-block N]\n"
               "  bigindex_cli update <graph> <ontology> <index> "
               "(add:<u>:<v>|remove:<u>:<v>)...\n"
               "               [--out <index>] [--check]\n");
  return 1;
}

/// True iff `cmd` got between `min` and `max` positional arguments; prints
/// the error line otherwise (the caller answers usage).
bool Arity(const char* cmd, size_t got, size_t min, size_t max) {
  if (got >= min && got <= max) return true;
  if (min == max) {
    std::fprintf(stderr, "error: %s wants %zu argument(s), got %zu\n", cmd,
                 min, got);
  } else {
    std::fprintf(stderr, "error: %s wants %zu to %zu arguments, got %zu\n",
                 cmd, min, max, got);
  }
  return false;
}

int UnknownFlag(const char* flag) {
  std::fprintf(stderr, "error: unknown flag %s\n", flag);
  return Usage();
}

/// Maps a CLI algorithm name to a configured instance (nullptr = unknown).
std::unique_ptr<KeywordSearchAlgorithm> MakeAlgorithm(
    const std::string& name, size_t top_k) {
  if (name == "bkws") {
    return std::make_unique<BkwsAlgorithm>(BkwsOptions{.d_max = 5});
  }
  if (name == "blinks") {
    return std::make_unique<BlinksAlgorithm>(
        BlinksOptions{.d_max = 5, .top_k = 5 * top_k});
  }
  if (name == "rclique") {
    return std::make_unique<RCliqueAlgorithm>(
        RCliqueOptions{.r = 4, .top_k = 2 * top_k});
  }
  if (name == "bidi") {
    return std::make_unique<BidirectionalAlgorithm>(
        BidirectionalOptions{.d_max = 5});
  }
  return nullptr;
}

/// Parses "kw1,kw2,..." against the dictionary; empty result = parse error
/// (message already printed).
std::vector<LabelId> ParseKeywords(const std::string& spec,
                                   const LabelDictionary& dict) {
  std::vector<LabelId> keywords;
  std::stringstream kws(spec);
  std::string kw;
  while (std::getline(kws, kw, ',')) {
    LabelId l = dict.Find(kw);
    if (l == kInvalidLabel) {
      std::fprintf(stderr, "error: keyword '%s' not in the graph's labels\n",
                   kw.c_str());
      return {};
    }
    keywords.push_back(l);
  }
  return keywords;
}

int CmdGen(int argc, char** argv) {
  if (!Arity("gen", argc, 4, 4)) return Usage();
  std::string name = argv[0];
  double scale = 0;
  if (!ParseReal("scale", argv[1], &scale)) return Usage();
  auto ds = MakeDataset(name, scale);
  if (!ds.ok()) return Fail(ds.status());
  BIGINDEX_RETURN_IF_ERROR_CLI(SaveGraphFile(ds->graph, *ds->dict, argv[2]));
  BIGINDEX_RETURN_IF_ERROR_CLI(
      SaveOntologyFile(ds->ontology.ontology, *ds->dict, argv[3]));
  std::printf("wrote %s (|V|=%zu |E|=%zu) and %s (%zu types)\n", argv[2],
              ds->graph.NumVertices(), ds->graph.NumEdges(), argv[3],
              ds->ontology.ontology.NumTypes());
  return 0;
}

struct Loaded {
  LabelDictionary dict;
  Graph graph;
  Ontology ontology;
};

StatusOr<Loaded> LoadGraphAndOntology(const char* graph_path,
                                      const char* ontology_path) {
  Loaded out;
  auto g = LoadGraphFile(graph_path, out.dict);
  if (!g.ok()) return g.status();
  out.graph = std::move(g).value();
  auto o = LoadOntologyFile(ontology_path, out.dict);
  if (!o.ok()) return o.status();
  out.ontology = std::move(o).value();
  return out;
}

int CmdBuild(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) return UnknownFlag(argv[i]);
  }
  if (!Arity("build", argc, 3, 4)) return Usage();
  BigIndexOptions opt;
  if (argc > 3 && !ParseCount("layers", argv[3], &opt.max_layers)) {
    return Usage();
  }
  auto loaded = LoadGraphAndOntology(argv[0], argv[1]);
  if (!loaded.ok()) return Fail(loaded.status());
  Timer t;
  auto index =
      BigIndex::Build(loaded->graph, &loaded->ontology, opt);
  if (!index.ok()) return Fail(index.status());
  BIGINDEX_RETURN_IF_ERROR_CLI(
      SaveIndexImageFile(*index, loaded->dict, argv[2]));
  std::printf("built %zu layers in %.1f ms; layer-1 ratio %.4f; wrote %s\n",
              index->NumLayers(), t.ElapsedMillis(),
              index->NumLayers() ? index->LayerCompressionRatio(1) : 1.0,
              argv[2]);
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (!Arity("stats", argc, 3, 3)) return Usage();
  auto loaded = LoadGraphAndOntology(argv[0], argv[1]);
  if (!loaded.ok()) return Fail(loaded.status());
  auto index = LoadIndexImage(argv[2], loaded->dict, &loaded->ontology);
  if (!index.ok()) return Fail(index.status());
  std::printf("layer  |V|        |E|        |G|        ratio\n");
  for (size_t m = 0; m <= index->NumLayers(); ++m) {
    const Graph& g = index->LayerGraph(m);
    std::printf("%-6zu %-10zu %-10zu %-10zu %.4f\n", m, g.NumVertices(),
                g.NumEdges(), g.Size(), index->LayerCompressionRatio(m));
  }
  std::printf("total summary footprint: %zu\n", index->TotalSummarySize());
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (!Arity("query", argc, 5, 6)) return Usage();
  auto loaded = LoadGraphAndOntology(argv[0], argv[1]);
  if (!loaded.ok()) return Fail(loaded.status());
  auto index = LoadIndexImage(argv[2], loaded->dict, &loaded->ontology);
  if (!index.ok()) return Fail(index.status());

  std::string algo_name = argv[3];
  size_t top_k = 10;
  if (argc > 5 && !ParseCount("top_k", argv[5], &top_k)) return Usage();
  std::unique_ptr<KeywordSearchAlgorithm> algo = MakeAlgorithm(algo_name,
                                                               top_k);
  if (!algo) return Usage();

  std::vector<LabelId> keywords = ParseKeywords(argv[4], loaded->dict);
  if (keywords.empty()) return Usage();

  QueryEngine engine(std::move(index).value(),
                     {.register_default_algorithms = false});
  EngineQuery q;
  q.algorithm = algo->Name();
  engine.Register(std::move(algo));
  q.keywords = std::move(keywords);
  q.eval.top_k = top_k;
  auto result = engine.Evaluate(q);
  if (!result.ok()) return Fail(result.status());
  const EvalBreakdown& bd = result->breakdown;

  std::printf("%zu answer(s) in %.2f ms (layer %zu; explore %.2f / "
              "specialize %.2f / generate %.2f / verify %.2f ms)\n",
              result->answers.size(), result->wall_ms, bd.layer,
              bd.explore_ms, bd.specialize_ms, bd.generate_ms, bd.verify_ms);
  for (const Answer& a : result->answers) {
    if (a.root != kInvalidVertex) {
      std::printf("  root=%s score=%u kw=[",
                  loaded->dict.Name(loaded->graph.label(a.root)).c_str(),
                  a.score);
    } else {
      std::printf("  score=%u kw=[", a.score);
    }
    for (size_t i = 0; i < a.keyword_vertices.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  loaded->dict.Name(
                      loaded->graph.label(a.keyword_vertices[i])).c_str());
    }
    std::printf("]\n");
  }
  return 0;
}

int CmdBatch(int argc, char** argv) {
  if (!Arity("batch", argc, 5, 7)) return Usage();
  auto loaded = LoadGraphAndOntology(argv[0], argv[1]);
  if (!loaded.ok()) return Fail(loaded.status());
  auto index = LoadIndexImage(argv[2], loaded->dict, &loaded->ontology);
  if (!index.ok()) return Fail(index.status());

  std::string algo_name = argv[3];
  size_t threads = 0;
  size_t top_k = 10;
  if (argc > 5 && !ParseCount("threads", argv[5], &threads)) return Usage();
  if (argc > 6 && !ParseCount("top_k", argv[6], &top_k)) return Usage();
  std::unique_ptr<KeywordSearchAlgorithm> algo = MakeAlgorithm(algo_name,
                                                               top_k);
  if (!algo) return Usage();

  std::ifstream in(argv[4]);
  if (!in) {
    std::fprintf(stderr, "error: cannot open queries file %s\n", argv[4]);
    return 1;
  }
  std::vector<EngineQuery> queries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    EngineQuery q;
    q.algorithm = algo->Name();
    q.keywords = ParseKeywords(line, loaded->dict);
    if (q.keywords.empty()) return 1;
    q.eval.top_k = top_k;
    queries.push_back(std::move(q));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "error: no queries in %s\n", argv[4]);
    return 1;
  }

  QueryEngine engine(std::move(index).value(),
                     {.register_default_algorithms = false});
  engine.Register(std::move(algo));
  ExecutorPool pool(threads);
  std::vector<QueryResult> results(queries.size());
  std::vector<Status> failures(queries.size());
  Timer t;
  pool.ParallelFor(queries.size(), [&](size_t, size_t i) {
    auto r = engine.Evaluate(queries[i]);
    if (r.ok()) {
      results[i] = std::move(r).value();
    } else {
      failures[i] = r.status();
    }
  });
  double total_ms = t.ElapsedMillis();
  for (const Status& failure : failures) {
    if (!failure.ok()) return Fail(failure);
  }

  double sum_ms = 0;
  size_t total_answers = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const QueryResult& r = results[i];
    sum_ms += r.wall_ms;
    total_answers += r.answers.size();
    std::printf("query %zu: %zu answer(s) in %.2f ms (layer %zu)\n", i,
                r.answers.size(), r.wall_ms, r.breakdown.layer);
  }
  std::printf(
      "batch of %zu queries: %.2f ms wall (%.1f q/s) with %zu thread(s); "
      "%.2f ms summed per-query; %zu answers\n",
      queries.size(), total_ms, 1000.0 * queries.size() / total_ms, threads,
      sum_ms, total_answers);
  return 0;
}

int CmdInspect(int argc, char** argv) {
  if (!Arity("inspect", argc, 1, 1)) return Usage();
  auto info = InspectIndexImage(argv[0]);
  if (!info.ok()) return Fail(info.status());
  std::printf("index image %s\n", argv[0]);
  std::printf("  version:  %u\n", info->version);
  std::printf("  size:     %llu bytes\n",
              static_cast<unsigned long long>(info->file_size));
  std::printf("  layers:   %u\n", info->num_layers);
  if (info->num_shards != 0) {
    std::printf("  shard:    %u/%u\n", info->shard_id, info->num_shards);
  } else {
    std::printf("  shard:    monolithic\n");
  }
  std::printf("  fingerprint: 0x%016llx\n",
              static_cast<unsigned long long>(info->fingerprint));
  std::printf("  sections: %zu\n", info->sections.size());
  std::printf("  %-4s %-8s %-6s %-12s %-12s %-18s %s\n", "#", "kind", "layer",
              "offset", "length", "checksum", "ok");
  for (size_t i = 0; i < info->sections.size(); ++i) {
    const ImageSectionInfo& s = info->sections[i];
    std::printf("  %-4zu %-8s %-6u %-12llu %-12llu 0x%016llx %s\n", i,
                SectionKindName(s.kind), s.layer,
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.length),
                static_cast<unsigned long long>(s.checksum),
                s.checksum_ok ? "ok" : "BAD");
  }
  bool all_ok = true;
  for (const ImageSectionInfo& s : info->sections) all_ok &= s.checksum_ok;
  if (!all_ok) {
    std::fprintf(stderr, "error: one or more section checksums mismatch\n");
    return 1;
  }
  return 0;
}

int CmdShard(int argc, char** argv) {
  ShardBuildOptions opt;
  std::vector<char*> pos;
  for (int i = 0; i < argc; ++i) {
    auto next = [&](const char* flag) -> char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--shard-mode") == 0) {
      const char* mode = next("--shard-mode");
      if (std::strcmp(mode, "wcc") == 0) {
        opt.plan.mode = ShardMode::kConnectivityClosed;
      } else if (std::strcmp(mode, "bfs") == 0) {
        opt.plan.mode = ShardMode::kBfsBlocks;
      } else {
        std::fprintf(stderr, "error: unknown shard mode %s\n", mode);
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--bfs-block") == 0) {
      if (!ParseCount("--bfs-block", next("--bfs-block"),
                      &opt.plan.bfs_block_size)) {
        return Usage();
      }
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (!Arity("shard", pos.size(), 3, 5)) return Usage();
  if (!ParseCount("num_shards", pos[2], &opt.plan.num_shards) ||
      (pos.size() > 4 &&
       !ParseCount("layers", pos[4], &opt.index.max_layers))) {
    return Usage();
  }
  auto loaded = LoadGraphAndOntology(pos[0], pos[1]);
  if (!loaded.ok()) return Fail(loaded.status());
  std::string prefix = pos.size() > 3 ? pos[3] : "";

  auto plan = PlanShards(loaded->graph, opt.plan);
  if (!plan.ok()) return Fail(plan.status());
  size_t n = plan->num_shards();
  size_t min_size = plan->NumVertices(), max_size = 0;
  std::printf("shard plan: %zu shard(s) over |V|=%zu, mode=%s\n", n,
              plan->NumVertices(),
              plan->mode() == ShardMode::kConnectivityClosed ? "wcc" : "bfs");
  // Ghosts a bfs-mode extraction will materialize per shard: the distinct
  // foreign endpoints of each shard's incident cut edges. This is what the
  // coordinator's completion pass costs scale with (DESIGN.md §9).
  std::vector<std::set<VertexId>> ghosts(n);
  for (const CutEdge& e : plan->CutEdges()) {
    ghosts[plan->ShardOf(e.source)].insert(e.target);
    ghosts[plan->ShardOf(e.target)].insert(e.source);
  }
  for (uint32_t s = 0; s < n; ++s) {
    size_t size = plan->ShardMembers(s).size();
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
    std::printf("  shard %-4u |V|=%zu ghosts=%zu\n", s, size,
                ghosts[s].size());
  }
  double ideal = static_cast<double>(plan->NumVertices()) / n;
  std::printf("balance: min=%zu max=%zu ideal=%.1f imbalance=%.3f\n",
              min_size, max_size, ideal, ideal > 0 ? max_size / ideal : 0.0);
  std::printf("boundary manifest: %zu cut edge(s) (%.4f%% of |E|)\n",
              plan->CutEdges().size(),
              loaded->graph.NumEdges()
                  ? 100.0 * plan->CutEdges().size() / loaded->graph.NumEdges()
                  : 0.0);

  if (prefix.empty()) return 0;
  Timer t;
  auto sharded = BuildShardedIndex(loaded->graph, &loaded->ontology, opt);
  if (!sharded.ok()) return Fail(sharded.status());
  BIGINDEX_RETURN_IF_ERROR_CLI(
      SaveShardImages(*sharded, loaded->dict, prefix));
  std::printf("built %zu shard index(es) in %.1f ms; wrote:\n",
              sharded->shards.size(), t.ElapsedMillis());
  for (const BuiltShard& shard : sharded->shards) {
    std::printf("  %s (|V|=%zu, %zu ghost(s))\n",
                ShardImagePath(prefix, shard.shard.shard_id,
                               shard.shard.num_shards).c_str(),
                shard.shard.global_of.size(), shard.shard.ghosts.size());
  }
  return 0;
}

const char* MaintenanceName(LayerMaintenance mode) {
  switch (mode) {
    case LayerMaintenance::kPatched: return "patched";
    case LayerMaintenance::kIncremental: return "incremental";
    case LayerMaintenance::kWholesale: return "wholesale";
    case LayerMaintenance::kCopied: return "copied";
  }
  return "unknown";
}

int CmdUpdate(int argc, char** argv) {
  std::string out_path;
  bool check = false;
  std::vector<char*> pos;
  for (int i = 0; i < argc; ++i) {
    auto next = [&](const char* flag) -> char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      return UnknownFlag(argv[i]);
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.size() < 4) return Usage();
  auto loaded = LoadGraphAndOntology(pos[0], pos[1]);
  if (!loaded.ok()) return Fail(loaded.status());
  auto index = LoadIndexImage(pos[2], loaded->dict, &loaded->ontology);
  if (!index.ok()) return Fail(index.status());

  std::vector<GraphUpdate> updates;
  for (size_t i = 3; i < pos.size(); ++i) {
    GraphUpdate up;
    BIGINDEX_RETURN_IF_ERROR_CLI(ParseUpdateOp(pos[i], &up));
    updates.push_back(up);
  }

  Timer t;
  MaintainReport report;
  auto successor = MaintainIndex(*index, updates, &report);
  if (!successor.ok()) return Fail(successor.status());
  double maintain_ms = t.ElapsedMillis();

  std::printf("batch of %zu op(s): +%zu edge(s) -%zu edge(s), %zu redundant\n",
              updates.size(), report.delta.added.size(),
              report.delta.removed.size(), report.delta.redundant);
  if (report.full_rebuild) {
    std::printf("full rebuild (greedy-config index): %zu layer(s)\n",
                successor->NumLayers());
  } else {
    for (size_t i = 0; i < report.layers.size(); ++i) {
      const MaintainLayerReport& lr = report.layers[i];
      std::printf("layer %-4zu %-11s", i + 1, MaintenanceName(lr.mode));
      if (lr.mode == LayerMaintenance::kIncremental ||
          lr.mode == LayerMaintenance::kPatched) {
        std::printf(" changed=%zu cone=%zu moved=%zu%s", lr.changed, lr.cone,
                    lr.moved, lr.rerun ? " rerun" : "");
      }
      if (lr.mode != LayerMaintenance::kCopied) {
        // Per-step timing breakdown: regressions in any one step (config
        // reuse, label table, refinement) are visible without a profiler.
        std::printf(" cfg=%.2fms%s gen=%.2fms refine=%.2fms", lr.configure_ms,
                    lr.config_reused ? "(reused)" : "", lr.generalize_ms,
                    lr.refine_ms);
      }
      std::printf("\n");
    }
  }
  std::printf("maintained %zu -> %zu layer(s) (%zu re-summarized) in "
              "%.1f ms\n",
              index->NumLayers(), successor->NumLayers(),
              report.LayersRebuilt(), maintain_ms);

  if (check) {
    Timer tr;
    auto rebuilt = BigIndex::Build(successor->LayerGraph(0),
                                   &loaded->ontology, index->options());
    if (!rebuilt.ok()) return Fail(rebuilt.status());
    std::ostringstream inc_bytes, scratch_bytes;
    BIGINDEX_RETURN_IF_ERROR_CLI(
        WriteIndexImage(*successor, loaded->dict, inc_bytes));
    BIGINDEX_RETURN_IF_ERROR_CLI(
        WriteIndexImage(*rebuilt, loaded->dict, scratch_bytes));
    if (inc_bytes.str() != scratch_bytes.str()) {
      std::fprintf(stderr,
                   "error: incremental result diverges from from-scratch "
                   "rebuild\n");
      return 1;
    }
    std::printf("check: byte-identical to from-scratch rebuild (%.1f ms)\n",
                tr.ElapsedMillis());
  }

  if (!out_path.empty()) {
    BIGINDEX_RETURN_IF_ERROR_CLI(
        SaveIndexImageFile(*successor, loaded->dict, out_path));
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bigindex

int main(int argc, char** argv) {
  using namespace bigindex;
  if (argc < 2) return Usage();
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "gen") == 0) return CmdGen(argc - 2, argv + 2);
  if (std::strcmp(cmd, "build") == 0) return CmdBuild(argc - 2, argv + 2);
  if (std::strcmp(cmd, "stats") == 0) return CmdStats(argc - 2, argv + 2);
  if (std::strcmp(cmd, "query") == 0) return CmdQuery(argc - 2, argv + 2);
  if (std::strcmp(cmd, "batch") == 0) return CmdBatch(argc - 2, argv + 2);
  if (std::strcmp(cmd, "inspect") == 0) return CmdInspect(argc - 2, argv + 2);
  if (std::strcmp(cmd, "shard") == 0) return CmdShard(argc - 2, argv + 2);
  if (std::strcmp(cmd, "update") == 0) return CmdUpdate(argc - 2, argv + 2);
  return Usage();
}

// Umbrella header for the BiG-index library.
//
// BiG-index (Jiang, Choi, Xu, Bhowmick — "A Generic Ontology Framework for
// Indexing Keyword Search on Massive Graphs", TKDE'19 / ICDE'21) is a
// generic, ontology-driven hierarchical index for keyword search on labeled
// directed graphs. See README.md for a tour and examples/ for runnable code.
//
// Typical usage:
//
//   #include "bigindex.h"
//   using namespace bigindex;
//
//   LabelDictionary dict;
//   Graph g = ...;                 // GraphBuilder or graph_io
//   Ontology ont = ...;            // OntologyBuilder or ontology_io
//   auto index = BigIndex::Build(std::move(g), &ont);
//
//   QueryEngine engine(std::move(index).value());
//   auto result = engine.Evaluate(
//       {.keywords = {dict.Find("Club"), dict.Find("Player")},
//        .algorithm = "blinks"});

#ifndef BIGINDEX_BIGINDEX_H_
#define BIGINDEX_BIGINDEX_H_

#include "bisim/bisimulation.h"     // IWYU pragma: export
#include "core/answer_gen.h"        // IWYU pragma: export
#include "core/big_index.h"         // IWYU pragma: export
#include "core/config_search.h"     // IWYU pragma: export
#include "core/cost_model.h"        // IWYU pragma: export
#include "core/evaluator.h"         // IWYU pragma: export
#include "core/index_image.h"       // IWYU pragma: export
#include "core/query.h"             // IWYU pragma: export
#include "core/search_algorithm.h"  // IWYU pragma: export
#include "engine/executor.h"        // IWYU pragma: export
#include "engine/query_context.h"   // IWYU pragma: export
#include "engine/query_engine.h"    // IWYU pragma: export
#include "graph/csr.h"              // IWYU pragma: export
#include "graph/graph.h"            // IWYU pragma: export
#include "graph/graph_io.h"         // IWYU pragma: export
#include "graph/label_dictionary.h" // IWYU pragma: export
#include "graph/sampling.h"         // IWYU pragma: export
#include "graph/traversal.h"        // IWYU pragma: export
#include "obs/metrics.h"            // IWYU pragma: export
#include "obs/trace.h"              // IWYU pragma: export
#include "ontology/config.h"        // IWYU pragma: export
#include "ontology/ontology.h"      // IWYU pragma: export
#include "ontology/ontology_io.h"   // IWYU pragma: export
#include "ontology/typing.h"        // IWYU pragma: export
#include "search/answer.h"          // IWYU pragma: export
#include "search/bidirectional.h"   // IWYU pragma: export
#include "search/bkws.h"            // IWYU pragma: export
#include "search/blinks.h"          // IWYU pragma: export
#include "search/partitioner.h"     // IWYU pragma: export
#include "search/rclique.h"         // IWYU pragma: export
#include "server/answer_cache.h"    // IWYU pragma: export
#include "server/line_protocol.h"   // IWYU pragma: export
#include "server/metrics_http.h"    // IWYU pragma: export
#include "server/protocol_client.h" // IWYU pragma: export
#include "server/query_service.h"   // IWYU pragma: export
#include "server/search_service.h"  // IWYU pragma: export
#include "server/service_stats.h"   // IWYU pragma: export
#include "server/tcp_server.h"      // IWYU pragma: export
#include "shard/boundary.h"         // IWYU pragma: export
#include "shard/in_process_substrate.h"  // IWYU pragma: export
#include "shard/remote_substrate.h" // IWYU pragma: export
#include "shard/shard_build.h"      // IWYU pragma: export
#include "shard/serving_stack.h"    // IWYU pragma: export
#include "shard/sharded_service.h"  // IWYU pragma: export
#include "shard/substrate.h"        // IWYU pragma: export
#include "update/delta.h"           // IWYU pragma: export
#include "update/live_updater.h"    // IWYU pragma: export
#include "update/maintain.h"        // IWYU pragma: export
#include "update/version_store.h"   // IWYU pragma: export
#include "util/random.h"            // IWYU pragma: export
#include "util/status.h"            // IWYU pragma: export
#include "util/timer.h"             // IWYU pragma: export
#include "workload/datasets.h"      // IWYU pragma: export
#include "workload/graph_gen.h"     // IWYU pragma: export
#include "workload/ontology_gen.h"  // IWYU pragma: export
#include "workload/query_gen.h"     // IWYU pragma: export

#endif  // BIGINDEX_BIGINDEX_H_

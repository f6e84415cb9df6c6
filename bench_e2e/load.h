// bench_e2e's load generator: the seeded key pool, the per-connection draw
// streams, closed-loop readers and the open-loop writer. Every client thread
// owns one ProtocolClient connection.
//
// The seed drives only what this file generates: the order of the query
// pool, each connection's draw stream, and the writer's edge choice. The
// dataset and the query generator run with their own fixed seeds.

#ifndef BENCH_E2E_LOAD_H_
#define BENCH_E2E_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bigindex.h"

namespace bench_e2e {

/// The query keys: Table-4-mix keyword sets from GenerateQueryWorkload,
/// deduplicated after normalization, times kAlgorithms; top_k=10, layer by
/// Formula 4, exact verification on. The generator keeps its default seed,
/// so every run has the same key set; `seed` only shuffles the order, which
/// decides the Zipf ranks and which keys a prefix holds.
struct KeyPool {
  std::vector<bigindex::EngineQuery> queries;
  std::vector<std::string> lines;  // FormatQueryLine of each query
  /// The first keyword set the generator produced: the same for every seed,
  /// so set-up work (Stack::Build's warm queries) does not depend on it.
  std::vector<bigindex::LabelId> sample;
};

/// Builds at least `min_keys` keys (fails if the generator runs dry).
bigindex::StatusOr<KeyPool> MakeKeyPool(const bigindex::Dataset& dataset,
                                        uint64_t seed, size_t min_keys);

/// What the clients send during the timed window.
struct LoadSpec {
  size_t readers = 1;
  size_t key_count = 0;  // readers draw from pool keys [0, key_count)
  bool zipf = false;     // Zipf(1.0) by pool rank; uniform otherwise
  double write_hz = 0;   // open-loop single-edge updates per second; 0 = none
};

/// One connection's seeded key stream.
class DrawStream {
 public:
  DrawStream(const LoadSpec& spec, uint64_t seed, uint64_t conn);
  size_t Next() { return sampler_.Sample(rng_); }

 private:
  bigindex::Rng rng_;
  bigindex::ZipfSampler sampler_;  // skew 0 is uniform
};

/// The writer's seeded op sequence: remove a random edge of the original
/// graph, then re-add it, then the next edge. Never fails: each op has a net
/// effect on the graph it is applied to.
class WriterPlan {
 public:
  WriterPlan(const bigindex::Graph& graph, uint64_t seed);
  bigindex::GraphUpdate Next();

 private:
  std::vector<std::pair<bigindex::VertexId, bigindex::VertexId>> edges_;
  bigindex::Rng rng_;
  std::pair<bigindex::VertexId, bigindex::VertexId> current_{0, 0};
  bool removed_ = false;
};

/// Hash of the first `n` requests of every connection `spec` would open,
/// including the writer's. Equal seeds must give equal hashes.
uint64_t RequestSequenceHash(const KeyPool& pool, const LoadSpec& spec,
                             const bigindex::Graph& graph, uint64_t seed,
                             size_t n);

/// Sends every key index in `keys` once, spread over one closed-loop
/// connection per hardware thread, so the engine sees its full batch width
/// (and leases all its query contexts) before the window opens. Fails on
/// the first error response.
bigindex::Status WarmKeys(uint16_t port, const KeyPool& pool,
                          const std::vector<size_t>& keys);

/// Samples of one timed window.
struct LoadResult {
  std::vector<double> read_ms;  // per read, failures as +inf
  std::vector<double> late_ms;  // writer lateness per update
  std::vector<bigindex::GraphUpdate> ops;  // updates acknowledged, in order
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads_first_half = 0;  // completed reads started before the split
  /// Heap in use (mallinfo2: arena chunks plus mmapped chunks) when the
  /// window closed. Readers keep their samples in 4-byte chunked storage,
  /// so the bench's own share is about 4 bytes per read.
  double heap_mb = 0;
};

/// Runs `spec` for `seconds` against `port`. Only requests started inside
/// the window are sampled. `at_split`, when set, runs on the calling thread
/// once half the window has elapsed (the traced run turns span recording on
/// there).
LoadResult RunLoad(uint16_t port, const KeyPool& pool, const LoadSpec& spec,
                   const bigindex::Graph& graph, uint64_t seed, double seconds,
                   const std::function<void()>& at_split);

}  // namespace bench_e2e

#endif  // BENCH_E2E_LOAD_H_

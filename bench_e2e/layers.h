// Per-layer metrics of a traced run, derived from the spans the bench's
// decorators recorded and from ServiceStats deltas over the same window.
// Every metric is emitted for every workload; a layer the workload does not
// exercise reports 0 (the README's metric catalog says which apply where).

#ifndef BENCH_E2E_LAYERS_H_
#define BENCH_E2E_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bigindex.h"
#include "report.h"
#include "spans.h"

namespace bench_e2e {

struct TracedWindow {
  std::vector<Span> spans;  // recorded during the traced half, by start
  /// Counter deltas over the traced half: the service clients talk to, and
  /// the SearchService(s) that evaluate (the same service when monolithic).
  bigindex::ServiceStats front_delta;
  bigindex::ServiceStats eval_delta;
  bool sharded = false;
  size_t num_shards = 0;
  double boundary_vertex_frac = 0;  // Stack::BoundaryVertexShare
  double untraced_qps = 0;  // reads/s in the first half
  double traced_qps = 0;    // reads/s in the second half
  uint64_t requests = 0;    // requests the generator sent in the window
  std::vector<double> read_ms;  // client round trip per read, both halves
  std::vector<double> late_ms;  // writer lateness per update
};

/// Counter differences after - before (cumulative counters only).
bigindex::ServiceStats StatsDelta(const bigindex::ServiceStats& after,
                                  const bigindex::ServiceStats& before);

/// Adds every per-layer metric to `report`. `request_of` receives, per span,
/// the "conn:seq" id it was paired under (for the chrome trace).
void AddPerLayerMetrics(const TracedWindow& window, Report& report,
                        std::vector<std::string>* request_of);

}  // namespace bench_e2e

#endif  // BENCH_E2E_LAYERS_H_

// Node-induced subgraph sampling (Sec. 3.2, "Graph sampling").
//
// The cost model estimates the compression ratio of a configuration on small
// samples instead of the whole graph: pick a random vertex v, take every
// vertex reachable from v within r hops, and induce the subgraph on that set.

#ifndef BIGINDEX_GRAPH_SAMPLING_H_
#define BIGINDEX_GRAPH_SAMPLING_H_

#include <vector>

#include "graph/graph.h"
#include "util/random.h"

namespace bigindex {

/// One sampled node-induced subgraph plus the identity of its vertices in the
/// parent graph (original[i] is the parent vertex of sample vertex i).
struct SampledSubgraph {
  Graph graph;
  std::vector<VertexId> original;
};

/// Samples the node-induced subgraph of the vertices reachable from a random
/// seed within `radius` hops. Deterministic given the rng state.
/// `max_vertices` truncates the BFS (hub-heavy graphs can reach most of the
/// graph in 2 hops, which would defeat the point of sampling); 0 = no cap.
SampledSubgraph SampleRadiusSubgraph(const Graph& g, uint32_t radius,
                                     Rng& rng, size_t max_vertices = 0);

/// The RNG stream of sample `index` under `master_seed`: a SplitMix64
/// finalizer over (seed, index) keeps the per-sample streams statistically
/// independent while every stream is a pure function of the master seed.
uint64_t DeriveSampleSeed(uint64_t master_seed, uint64_t index);

/// Draws `count` independent samples (see Sec. 3.2: n = 0.25 (z/E)^2, e.g.
/// 400 for E = 5%, z = 1.96); sample i is drawn from
/// Rng(DeriveSampleSeed(master_seed, i)).
std::vector<SampledSubgraph> SampleRadiusSubgraphs(const Graph& g,
                                                   uint32_t radius,
                                                   size_t count,
                                                   uint64_t master_seed,
                                                   size_t max_vertices = 0);

/// The paper's sample-size formula: n = 0.5 * 0.5 * (z / E)^2.
size_t SampleSizeForError(double z, double error);

}  // namespace bigindex

#endif  // BIGINDEX_GRAPH_SAMPLING_H_

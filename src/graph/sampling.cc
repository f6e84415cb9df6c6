#include "graph/sampling.h"

#include <cassert>
#include <cmath>
#include <unordered_map>

#include "graph/traversal.h"

namespace bigindex {

SampledSubgraph SampleRadiusSubgraph(const Graph& g, uint32_t radius,
                                     Rng& rng, size_t max_vertices) {
  SampledSubgraph sample;
  if (g.NumVertices() == 0) return sample;

  VertexId seed = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
  BfsScratch scratch;
  auto reached =
      scratch.BoundedDistances(g, seed, radius, Direction::kForward);
  if (max_vertices != 0 && reached.size() > max_vertices) {
    reached.resize(max_vertices);  // BFS order: keeps the closest vertices
  }

  std::unordered_map<VertexId, VertexId> to_local;
  to_local.reserve(reached.size());
  GraphBuilder builder;
  builder.Reserve(reached.size(), reached.size() * 2);
  for (const auto& [v, dist] : reached) {
    to_local.emplace(v, builder.AddVertex(g.label(v)));
    sample.original.push_back(v);
  }
  // Node-induced: keep every edge among the sampled vertex set.
  for (const auto& [v, dist] : reached) {
    VertexId lv = to_local.at(v);
    for (VertexId w : g.OutNeighbors(v)) {
      auto it = to_local.find(w);
      if (it != to_local.end()) builder.AddEdge(lv, it->second);
    }
  }
  auto built = builder.Build();
  assert(built.ok());
  sample.graph = std::move(built).value();
  return sample;
}

uint64_t DeriveSampleSeed(uint64_t master_seed, uint64_t index) {
  // SplitMix64 finalizer over the (seed, stream) pair; Rng applies its own
  // mixing on top, so correlated inputs do not yield correlated streams.
  uint64_t z = master_seed + 0x9E3779B97f4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<SampledSubgraph> SampleRadiusSubgraphs(const Graph& g,
                                                   uint32_t radius,
                                                   size_t count,
                                                   uint64_t master_seed,
                                                   size_t max_vertices) {
  std::vector<SampledSubgraph> samples;
  samples.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Rng rng(DeriveSampleSeed(master_seed, i));
    samples.push_back(SampleRadiusSubgraph(g, radius, rng, max_vertices));
  }
  return samples;
}

size_t SampleSizeForError(double z, double error) {
  assert(error > 0);
  double n = 0.25 * (z / error) * (z / error);
  return static_cast<size_t>(std::ceil(n));
}

}  // namespace bigindex

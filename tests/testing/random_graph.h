// Seeded random labeled-graph and ontology-DAG generation for test suites.
//
// Unlike the workload generators (src/workload/), which are tuned to imitate
// knowledge-graph *shape*, these produce adversarially unstructured inputs:
// uniform or Zipf-skewed labels over arbitrary edge soup, plus degenerate
// corners (empty graph, single vertex, one label). They are the substrate of
// the randomized differential tests — any pair of implementations that must
// agree (serial vs parallel Bisim, build determinism) is exercised over many
// seeds of these. Everything is a pure function of its options, so a failing
// seed reproduces exactly.

#ifndef BIGINDEX_TESTS_TESTING_RANDOM_GRAPH_H_
#define BIGINDEX_TESTS_TESTING_RANDOM_GRAPH_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "ontology/ontology.h"
#include "util/random.h"

namespace bigindex {
namespace testing {

/// Knobs for MakeRandomGraph.
struct RandomGraphOptions {
  /// Vertex count; 0 yields the empty graph.
  size_t num_vertices = 100;

  /// Mean out-degree: ~num_vertices * edge_density directed edges are drawn
  /// (duplicates collapse, so the realized count can be slightly lower).
  double edge_density = 2.0;

  /// Labels are drawn from [0, num_labels); 1 gives the all-same-label case.
  size_t num_labels = 8;

  /// Zipf exponent of the label distribution; 0 = uniform, ~1 = the heavy
  /// skew of real knowledge graphs.
  double label_skew = 0.0;

  /// Probability that an edge is a self-loop candidate drawn separately
  /// (bisimulation must handle them; keep a trickle by default).
  double self_loop_fraction = 0.02;

  uint64_t seed = 1;
};

/// Generates a random directed labeled graph. Deterministic given options.
inline Graph MakeRandomGraph(const RandomGraphOptions& options) {
  GraphBuilder b;
  const size_t n = options.num_vertices;
  if (n == 0) return std::move(b.Build()).value();
  Rng rng(options.seed);
  ZipfSampler labels(options.num_labels == 0 ? 1 : options.num_labels,
                     options.label_skew);
  for (size_t i = 0; i < n; ++i) {
    b.AddVertex(static_cast<LabelId>(labels.Sample(rng)));
  }
  const size_t target_edges =
      static_cast<size_t>(static_cast<double>(n) * options.edge_density);
  for (size_t i = 0; i < target_edges; ++i) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = rng.Bernoulli(options.self_loop_fraction)
                     ? u
                     : static_cast<VertexId>(rng.Uniform(n));
    b.AddEdge(u, v);
  }
  return std::move(b.Build()).value();
}

/// A random graph with MakeRandomGraph's vertices and label draws whose
/// edges all point from a lower to a higher vertex id: acyclic, so every
/// vertex is well-founded. Self-loop draws are skipped. Deterministic given
/// options.
inline Graph MakeRandomDag(const RandomGraphOptions& options) {
  GraphBuilder b;
  const size_t n = options.num_vertices;
  if (n == 0) return std::move(b.Build()).value();
  Rng rng(options.seed);
  ZipfSampler labels(options.num_labels == 0 ? 1 : options.num_labels,
                     options.label_skew);
  for (size_t i = 0; i < n; ++i) {
    b.AddVertex(static_cast<LabelId>(labels.Sample(rng)));
  }
  const size_t target_edges =
      static_cast<size_t>(static_cast<double>(n) * options.edge_density);
  for (size_t i = 0; i < target_edges; ++i) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(n));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u != v) b.AddEdge(std::min(u, v), std::max(u, v));
  }
  return std::move(b.Build()).value();
}

/// Knobs for MakeRandomOntologyDag.
struct RandomOntologyOptions {
  /// Leaf types are [0, num_leaves) — the ids MakeRandomGraph labels with
  /// when num_labels == num_leaves.
  size_t num_leaves = 8;

  /// Supertype levels above the leaves (>= 1 for any generalization to
  /// exist).
  uint32_t height = 3;

  /// Mean number of types per level shrinks by this factor level over level
  /// (coarser going up), floored at one type per level.
  double shrink = 2.0;

  /// Probability that a type gets a second parent — exercises the DAG (not
  /// tree) shape of real ontologies, where greedy search must pick among
  /// multiple supertypes.
  double multi_parent = 0.25;

  uint64_t seed = 1;
};

/// Generates a random ontology DAG above leaf types [0, num_leaves). Interior
/// ids continue densely after the leaves. Acyclic by construction (edges only
/// point to higher levels). Deterministic given options.
inline Ontology MakeRandomOntologyDag(const RandomOntologyOptions& options) {
  OntologyBuilder b;
  Rng rng(options.seed);
  std::vector<LabelId> level;  // current level, bottom-up
  level.reserve(options.num_leaves);
  for (size_t i = 0; i < options.num_leaves; ++i) {
    level.push_back(static_cast<LabelId>(i));
  }
  LabelId next_id = static_cast<LabelId>(options.num_leaves);
  double width = static_cast<double>(options.num_leaves);
  for (uint32_t h = 0; h < options.height && !level.empty(); ++h) {
    width = width / (options.shrink <= 1.0 ? 2.0 : options.shrink);
    size_t parents_count =
        width < 1.0 ? 1 : static_cast<size_t>(width);
    std::vector<LabelId> parents;
    parents.reserve(parents_count);
    for (size_t i = 0; i < parents_count; ++i) parents.push_back(next_id++);
    for (LabelId child : level) {
      LabelId p = parents[rng.Uniform(parents.size())];
      b.AddSupertypeEdge(child, p);
      if (parents.size() > 1 && rng.Bernoulli(options.multi_parent)) {
        LabelId q = parents[rng.Uniform(parents.size())];
        if (q != p) b.AddSupertypeEdge(child, q);
      }
    }
    level = std::move(parents);
  }
  return std::move(b.Build()).value();
}

/// A graph plus a compatible ontology DAG over its label space, from one
/// seed — the common setup of construction tests.
struct RandomInstance {
  Graph graph;
  Ontology ontology;
};

inline RandomInstance MakeRandomInstance(const RandomGraphOptions& graph_opts,
                                         const RandomOntologyOptions& ont_opts) {
  RandomInstance inst;
  inst.graph = MakeRandomGraph(graph_opts);
  inst.ontology = MakeRandomOntologyDag(ont_opts);
  return inst;
}

}  // namespace testing
}  // namespace bigindex

#endif  // BIGINDEX_TESTS_TESTING_RANDOM_GRAPH_H_

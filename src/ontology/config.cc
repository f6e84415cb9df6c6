#include "ontology/config.h"

#include <algorithm>
#include <cassert>

namespace bigindex {

Status GeneralizationConfig::AddMapping(LabelId from, LabelId to) {
  if (from == to) return Status::OK();  // identity: implied, never stored
  auto it = forward_.find(from);
  if (it != forward_.end()) {
    if (it->second == to) return Status::OK();
    return Status::InvalidArgument("label already mapped to another target");
  }
  forward_.emplace(from, to);
  mappings_.push_back({from, to});
  reverse_dirty_ = true;
  return Status::OK();
}

Status GeneralizationConfig::Validate(const Ontology& ontology) const {
  for (const auto& m : mappings_) {
    auto supers = ontology.Supertypes(m.from);
    if (!std::binary_search(supers.begin(), supers.end(), m.to)) {
      return Status::InvalidArgument(
          "mapping target is not a direct supertype of its source");
    }
  }
  return Status::OK();
}

void GeneralizationConfig::RebuildPreimages() const {
  reverse_.clear();
  for (const auto& m : mappings_) reverse_[m.to].push_back(m.from);
  for (auto& [to, froms] : reverse_) std::sort(froms.begin(), froms.end());
  reverse_dirty_ = false;
}

std::span<const LabelId> GeneralizationConfig::Preimage(LabelId label) const {
  if (reverse_dirty_) RebuildPreimages();
  auto it = reverse_.find(label);
  if (it == reverse_.end()) return {};
  return it->second;
}

size_t GeneralizationConfig::FamilySize(LabelId label) const {
  auto it = forward_.find(label);
  if (it == forward_.end()) return 0;
  return Preimage(it->second).size();
}

Graph Generalize(const Graph& g, const GeneralizationConfig& config) {
  GraphBuilder builder;
  builder.Reserve(g.NumVertices(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    builder.AddVertex(config.Generalize(g.label(v)));
  }
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) builder.AddEdge(u, v);
  }
  auto built = builder.Build();
  assert(built.ok());  // relabeling cannot introduce invalid edges
  return std::move(built).value();
}

std::span<const LabelId> GeneralizedLabels(const Graph& g,
                                           const GeneralizationConfig& config,
                                           std::vector<LabelId>* storage) {
  if (config.empty()) return g.labels();
  storage->assign(g.labels().begin(), g.labels().end());
  for (LabelId label : g.DistinctLabels()) {
    const LabelId to = config.Generalize(label);
    if (to == label) continue;
    for (VertexId v : g.VerticesWithLabel(label)) (*storage)[v] = to;
  }
  return *storage;
}

}  // namespace bigindex

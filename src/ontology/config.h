// Generalization configurations (Sec. 2) and the Gen / Spec label operations.
//
// A configuration C is a set of mappings ℓ -> ℓ' where ℓ' is a *direct*
// supertype of ℓ in G_Ont. Gen(G, C) rewrites vertex labels simultaneously;
// Spec is the reverse direction and is one-to-many on labels.

#ifndef BIGINDEX_ONTOLOGY_CONFIG_H_
#define BIGINDEX_ONTOLOGY_CONFIG_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "ontology/ontology.h"
#include "util/status.h"

namespace bigindex {

/// One label generalization ℓ -> ℓ'.
struct LabelMapping {
  LabelId from = kInvalidLabel;
  LabelId to = kInvalidLabel;

  bool operator==(const LabelMapping&) const = default;
};

/// A set of simultaneous label generalizations (the paper's C).
///
/// Identity mappings (ℓ -> ℓ) are never stored: Generalize() returns the
/// input unchanged for unmapped labels, which realizes case (ii) of the
/// configuration definition (ℓ = ℓ' when ℓ has no supertype or is untouched).
class GeneralizationConfig {
 public:
  GeneralizationConfig() = default;

  /// Adds ℓ -> ℓ'. Returns InvalidArgument if ℓ is already mapped to a
  /// different target (a configuration is a function on labels).
  Status AddMapping(LabelId from, LabelId to);

  /// Checks Def 2.2 eligibility against the ontology: every target must be a
  /// direct supertype of its source.
  Status Validate(const Ontology& ontology) const;

  /// Gen on a single label.
  LabelId Generalize(LabelId label) const {
    auto it = forward_.find(label);
    return it == forward_.end() ? label : it->second;
  }

  bool Maps(LabelId label) const { return forward_.count(label) > 0; }

  /// Spec on a single label: all labels that C generalizes to `label`.
  /// Does NOT include `label` itself unless ℓ -> ℓ is implied by absence
  /// (callers that need "unchanged" semantics check Maps() first).
  std::span<const LabelId> Preimage(LabelId label) const;

  /// Number of labels generalized to the same target as `label`'s target
  /// (|X_ℓ| in the distortion formula). 0 if `label` is unmapped.
  size_t FamilySize(LabelId label) const;

  const std::vector<LabelMapping>& mappings() const { return mappings_; }
  size_t size() const { return mappings_.size(); }
  bool empty() const { return mappings_.empty(); }

 private:
  void RebuildPreimages() const;

  std::vector<LabelMapping> mappings_;
  std::unordered_map<LabelId, LabelId> forward_;
  // Lazily built reverse index: target -> sources.
  mutable std::unordered_map<LabelId, std::vector<LabelId>> reverse_;
  mutable bool reverse_dirty_ = false;
};

/// Graph generalization Gen(G, C): same structure, labels rewritten. The
/// index never builds this graph (it summarizes g under GeneralizedLabels);
/// it stays as the reference that view is tested against.
Graph Generalize(const Graph& g, const GeneralizationConfig& config);

/// The per-vertex labels of Gen(g, C) as a view over g's structure, which
/// bisim/ComputeBisimulation summarizes: g.labels() itself under an empty
/// config, else `storage` rewritten through g's label index in
/// O(|V| + |Σ(g)|) — no table over the label-id range.
std::span<const LabelId> GeneralizedLabels(const Graph& g,
                                           const GeneralizationConfig& config,
                                           std::vector<LabelId>* storage);

}  // namespace bigindex

#endif  // BIGINDEX_ONTOLOGY_CONFIG_H_

// Signature interning for partition refinement: the one hash and the one
// interner behind ComputeBisimulation's chunked rounds and the localized
// split pass of update/incremental.cc. A signature is a word sequence
// (a vertex's current block or label, then its sorted, deduplicated
// out-neighbor blocks); refinement groups vertices by equal signatures.

#ifndef BIGINDEX_BISIM_SIGNATURE_H_
#define BIGINDEX_BISIM_SIGNATURE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace bigindex {

/// FNV-1a over a word sequence. Exactness never depends on it: the interner
/// resolves collisions by full comparison.
inline uint64_t HashSignature(std::span<const uint32_t> sig) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t x : sig) {
    h ^= x;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Assigns dense ids to distinct signatures in first-insertion order.
/// Signatures are stored back to back in one word array; ids sharing a hash
/// are chained, newest first, and told apart by full comparison.
class SignatureInterner {
 public:
  uint32_t Intern(std::span<const uint32_t> sig) {
    return Intern(sig, HashSignature(sig));
  }

  /// Id of `sig` (`hash` must be HashSignature(sig)); copies the signature
  /// in only on first sight.
  uint32_t Intern(std::span<const uint32_t> sig, uint64_t hash) {
    auto [it, fresh] = head_.try_emplace(hash, kNone);
    for (uint32_t id = it->second; id != kNone; id = next_[id]) {
      if (std::ranges::equal(Sig(id), sig)) return id;
    }
    const auto id = static_cast<uint32_t>(hashes_.size());
    words_.insert(words_.end(), sig.begin(), sig.end());
    ends_.push_back(words_.size());
    hashes_.push_back(hash);
    next_.push_back(it->second);
    it->second = id;
    return id;
  }

  size_t size() const { return hashes_.size(); }

  /// The distinct signature with id `id`, and its hash (for merging one
  /// interner's signatures into another).
  std::span<const uint32_t> Sig(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return {words_.data() + begin, ends_[id] - begin};
  }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }

  void Reset() {
    head_.clear();
    words_.clear();
    ends_.clear();
    hashes_.clear();
    next_.clear();
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  std::unordered_map<uint64_t, uint32_t> head_;  // hash -> newest id
  std::vector<uint32_t> words_;                  // signatures, back to back
  std::vector<size_t> ends_;                     // id -> end in words_
  std::vector<uint64_t> hashes_;                 // id -> hash
  std::vector<uint32_t> next_;                   // id -> older id, same hash
};

}  // namespace bigindex

#endif  // BIGINDEX_BISIM_SIGNATURE_H_

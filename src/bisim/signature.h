// Signature interning for the summarization kernel (bisim/bisimulation.cc):
// the one hash and the one interner behind the successors-first pass, the
// cyclic remainder's rounds and the cone re-sign of incremental maintenance.
// A signature is a word sequence (a vertex's label or current block, then its
// sorted, deduplicated out-neighbor blocks); vertices with equal signatures
// share a block.

#ifndef BIGINDEX_BISIM_SIGNATURE_H_
#define BIGINDEX_BISIM_SIGNATURE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace bigindex {

/// FNV-1a over a word sequence, finished with a 64-bit mixer so every bit of
/// every word reaches the low bits the interner's table indexes by.
/// Exactness never depends on it: the interner resolves collisions by full
/// comparison.
inline uint64_t HashSignature(std::span<const uint32_t> sig) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t x : sig) {
    h ^= x;
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// Assigns dense ids to distinct signatures in first-insertion order.
/// Signatures are stored back to back in one word array and found through
/// an open-addressing table of ids (linear probing, load <= 1/2).
class SignatureInterner {
 public:
  /// Id of `sig`; copies the signature in only on first sight.
  uint32_t Intern(std::span<const uint32_t> sig) {
    const uint64_t hash = HashSignature(sig);
    if (2 * (hashes_.size() + 1) > table_.size()) Grow();
    const size_t mask = table_.size() - 1;
    size_t slot = hash & mask;
    for (uint32_t id; (id = table_[slot]) != kNone; slot = (slot + 1) & mask) {
      if (hashes_[id] == hash && std::ranges::equal(Sig(id), sig)) return id;
    }
    const auto id = static_cast<uint32_t>(hashes_.size());
    table_[slot] = id;
    words_.insert(words_.end(), sig.begin(), sig.end());
    ends_.push_back(words_.size());
    hashes_.push_back(hash);
    return id;
  }

  size_t size() const { return hashes_.size(); }

  void Reset() {
    std::fill(table_.begin(), table_.end(), kNone);
    words_.clear();
    ends_.clear();
    hashes_.clear();
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  // The distinct signature with id `id`.
  std::span<const uint32_t> Sig(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return {words_.data() + begin, ends_[id] - begin};
  }

  void Grow() {
    table_.assign(std::max<size_t>(64, 2 * table_.size()), kNone);
    const size_t mask = table_.size() - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t slot = hashes_[id] & mask;
      while (table_[slot] != kNone) slot = (slot + 1) & mask;
      table_[slot] = id;
    }
  }

  std::vector<uint32_t> table_;   // slot -> id, kNone when empty
  std::vector<uint32_t> words_;   // signatures, back to back
  std::vector<size_t> ends_;      // id -> end in words_
  std::vector<uint64_t> hashes_;  // id -> hash
};

}  // namespace bigindex

#endif  // BIGINDEX_BISIM_SIGNATURE_H_

// The flat index image: a single versioned, checksummed, mmap-friendly file
// holding a complete BigIndex ("BiG-index loads the m-th layer from the
// disk", Sec. 5.1 — here the whole hierarchy maps in one shot).
//
// Layout (all integers little-endian, all sections 8-byte aligned; see
// DESIGN.md "Flat index image format" for the full specification):
//
//   [ 64-byte header      ]  magic, version, endianness marker, file size,
//                            section count, layer count, shard identity,
//                            layer cap (max_layers), header checksum
//   [ section table       ]  32 bytes per section: kind, layer, offset,
//                            length, FNV-1a checksum of the payload
//   [ section payloads    ]  back to back, zero-padded to 8-byte boundaries
//
// Canonical section order: DICT, GRAPH(0), then per layer m = 1..h:
// CONFIG(m), MAPPING(m), GRAPH(m); sharded images (shard substrate,
// DESIGN.md §9) append a SHARDMAP section carrying the shard id, shard
// count, and the local->global vertex remap, and — only when the shard has
// ghost vertices (cut-incident plans) — one final GHOSTS section listing
// the ghosts' local ids. Monolithic images write zeros in the header's
// shard fields and no SHARDMAP/GHOSTS section, and ghost-free sharded
// images (e.g. wcc plans) write no GHOSTS section, so both stay
// byte-identical to the pre-GHOSTS format.
// Graph and mapping sections contain the
// structures' flat arrays verbatim, so loading wires std::spans straight
// into the mapped region (Graph::FromStorage / BisimMapping::FromStorage)
// — no parsing, no allocation proportional to index size.
//
// The loader never trusts the file: every offset/length is bounds- and
// overflow-checked, payload checksums are verified, and array invariants
// (offset monotonicity, id ranges) are validated before any structure is
// wired. Corrupt input yields a non-OK Status, never UB. The ontology is
// not serialized (it ships with the dataset); the caller passes the one the
// index was built with. Of the build options only max_layers is recorded,
// so maintaining a loaded image grows its stack toward the cap it was built
// with; the other options load as defaults.

#ifndef BIGINDEX_CORE_INDEX_IMAGE_H_
#define BIGINDEX_CORE_INDEX_IMAGE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/big_index.h"
#include "graph/label_dictionary.h"
#include "util/status.h"

namespace bigindex {

/// Image format constants (version 2: the header records the layer cap).
struct IndexImageFormat {
  static constexpr char kMagic[8] = {'B', 'I', 'G', 'X', 'I', 'M', 'G', '1'};
  static constexpr uint32_t kVersion = 2;
  /// Written as a native u32; reads back as 0x01020304 only on a machine of
  /// the same endianness, so a cross-endian file is rejected with a clear
  /// error instead of deserializing garbage.
  static constexpr uint32_t kEndianMarker = 0x01020304u;
  static constexpr size_t kHeaderSize = 64;
  static constexpr size_t kSectionEntrySize = 32;

  // Section kinds.
  static constexpr uint32_t kSectionDict = 1;     // label dictionary strings
  static constexpr uint32_t kSectionGraph = 2;    // one layer's flat Graph
  static constexpr uint32_t kSectionMapping = 3;  // one layer's BisimMapping
  static constexpr uint32_t kSectionConfig = 4;   // one layer's C^m
  static constexpr uint32_t kSectionShardMap = 5;  // shard id + global remap
  static constexpr uint32_t kSectionGhosts = 6;    // local ids of ghosts
};

/// Shard identity of an index image. `num_shards == 0` means the image is
/// monolithic (the whole graph); sharded images carry their shard id, the
/// plan's shard count, and the strictly-ascending local->global vertex remap
/// produced by ExtractShard, so a relocated image is self-describing.
struct ShardImageInfo {
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;  // 0 = monolithic
  /// Local vertex id -> global vertex id, strictly ascending. Size equals the
  /// base graph's vertex count when sharded; empty for monolithic images.
  std::vector<VertexId> global_of;
  /// Local ids of ghost vertices (see ShardExtract), strictly ascending,
  /// each < base vertex count. Empty for ghost-free shards and monolithic
  /// images; serialized as the GHOSTS section only when non-empty.
  std::vector<VertexId> ghosts;

  bool IsSharded() const { return num_shards != 0; }
};

/// Writes `index` as a flat image. Output is byte-deterministic: the same
/// index (and BigIndex construction is deterministic in its input)
/// produces the same bytes. The ShardImageInfo overloads stamp the shard
/// identity into the header and append the SHARDMAP section; a
/// default-constructed (monolithic) ShardImageInfo writes the exact bytes of
/// the two-argument form.
Status WriteIndexImage(const BigIndex& index, const LabelDictionary& dict,
                       std::ostream& out);
Status WriteIndexImage(const BigIndex& index, const LabelDictionary& dict,
                       const ShardImageInfo& shard, std::ostream& out);
Status SaveIndexImageFile(const BigIndex& index, const LabelDictionary& dict,
                          const std::string& path);
Status SaveIndexImageFile(const BigIndex& index, const LabelDictionary& dict,
                          const ShardImageInfo& shard,
                          const std::string& path);

/// Maps `path` and wires a BigIndex over the mapped bytes (zero-copy; falls
/// back to a heap read where mmap is unavailable). `dict` must be
/// prefix-compatible with the image's dictionary — ids already interned must
/// name the same strings, in the same order, as when the image was written
/// (the usual case: the dataset's ontology was loaded into `dict` first).
/// Remaining image labels are interned into `dict`. `ontology` must outlive
/// the returned index. Every load verifies the checksums and then the array
/// invariants (offset monotonicity, vertex/label id ranges), so a corrupt
/// image fails with Corruption instead of being served.
/// If `shard_out` is non-null it receives the image's shard identity
/// (monolithic images yield a default ShardImageInfo).
StatusOr<BigIndex> LoadIndexImage(const std::string& path,
                                  LabelDictionary& dict,
                                  const Ontology* ontology,
                                  ShardImageInfo* shard_out = nullptr);

/// Same, over an in-memory buffer (tests, network transports). The buffer is
/// kept alive by the returned index. Misaligned buffers are copied into an
/// aligned arena first.
StatusOr<BigIndex> LoadIndexImageFromBuffer(
    std::shared_ptr<const std::string> bytes, LabelDictionary& dict,
    const Ontology* ontology, ShardImageInfo* shard_out = nullptr);

/// One section-table row, as reported by InspectIndexImage.
struct ImageSectionInfo {
  uint32_t kind = 0;
  uint32_t layer = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
  bool checksum_ok = false;
};

/// Header + section table of an image, for `bigindex_cli inspect`.
struct ImageInfo {
  uint32_t version = 0;
  uint64_t file_size = 0;
  uint32_t num_layers = 0;
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;  // 0 = monolithic
  /// FNV-1a over header + section table. The table embeds every payload
  /// checksum, so this single u64 identifies the image contents — the
  /// "image checksum" reported by the protocol INFO verb.
  uint64_t fingerprint = 0;
  std::vector<ImageSectionInfo> sections;
};

/// Reads and validates the header and section table of `path` and verifies
/// each section checksum. Fails with Corruption/IOError on malformed files.
StatusOr<ImageInfo> InspectIndexImage(const std::string& path);

/// Human-readable section kind ("DICT", "GRAPH", ...), for inspect output.
const char* SectionKindName(uint32_t kind);

}  // namespace bigindex

#endif  // BIGINDEX_CORE_INDEX_IMAGE_H_

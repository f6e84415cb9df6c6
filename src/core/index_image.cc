#include "core/index_image.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <fstream>
#include <functional>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>

#include "graph/csr.h"
#include "util/mmap_file.h"

namespace bigindex {
namespace {

using Fmt = IndexImageFormat;

// Images larger than this are rejected up front; the bound keeps every
// count * sizeof(T) multiplication in the loader comfortably inside u64.
constexpr uint64_t kMaxImageBytes = 1ull << 48;

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a of `n` more bytes, continuing from hash `h`.
uint64_t Fnv1aFrom(uint64_t h, const std::byte* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Fnv1a(const void* data, size_t n) {
  return Fnv1aFrom(kFnvBasis, static_cast<const std::byte*>(data), n);
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void AppendU32(std::string& s, uint32_t v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  s.append(b, sizeof v);
}

void AppendU64(std::string& s, uint64_t v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  s.append(b, sizeof v);
}

/// Appends a flat array plus deterministic zero padding to the 8-byte
/// boundary, mirroring Arena::AlignedSize so in-memory and on-disk layouts
/// agree byte for byte.
template <typename T>
void AppendArray(std::string& s, std::span<const T> a) {
  s.append(reinterpret_cast<const char*>(a.data()), a.size() * sizeof(T));
  s.append(Arena::AlignedSize<T>(a.size()) - a.size() * sizeof(T), '\0');
}

std::string BuildDictSection(const LabelDictionary& dict) {
  std::string out;
  AppendU64(out, dict.size());
  uint64_t offset = 0;
  for (LabelId id = 0; id < dict.size(); ++id) {
    AppendU64(out, offset);
    offset += dict.Name(id).size();
  }
  AppendU64(out, offset);  // offsets[count] = blob size
  for (LabelId id = 0; id < dict.size(); ++id) out += dict.Name(id);
  out.append((8 - out.size() % 8) % 8, '\0');
  return out;
}

std::string BuildGraphSection(const Graph& g) {
  assert(g.LabelVertices().size() == g.NumVertices());
  std::string out;
  AppendU64(out, g.NumVertices());
  AppendU64(out, g.NumEdges());
  AppendU64(out, g.LabelSlots());
  AppendU64(out, g.DistinctLabels().size());
  AppendArray(out, g.labels());
  AppendArray(out, g.OutOffsets());
  AppendArray(out, g.OutTargets());
  AppendArray(out, g.InOffsets());
  AppendArray(out, g.InSources());
  AppendArray(out, g.LabelOffsets());
  AppendArray(out, g.LabelVertices());
  AppendArray(out, g.DistinctLabels());
  return out;
}

std::string BuildMappingSection(const BisimMapping& m) {
  std::string out;
  AppendU64(out, m.NumVertices());
  AppendU64(out, m.NumSupernodes());
  AppendArray(out, m.VertexToSuper());
  AppendArray(out, m.MemberOffsets());
  AppendArray(out, m.MembersArray());
  return out;
}

std::string BuildConfigSection(const GeneralizationConfig& c) {
  std::string out;
  AppendU64(out, c.mappings().size());
  for (const LabelMapping& lm : c.mappings()) {
    AppendU32(out, lm.from);
    AppendU32(out, lm.to);
  }
  out.append((8 - out.size() % 8) % 8, '\0');
  return out;
}

std::string BuildShardMapSection(const ShardImageInfo& shard) {
  std::string out;
  AppendU64(out, shard.global_of.size());
  // Redundant with the header's shard fields; the loader cross-checks them
  // so a spliced SHARDMAP section cannot masquerade as another shard's.
  AppendU64(out, shard.shard_id);
  AppendU64(out, shard.num_shards);
  AppendArray(out, std::span<const VertexId>(shard.global_of));
  return out;
}

std::string BuildGhostsSection(const ShardImageInfo& shard) {
  std::string out;
  AppendU64(out, shard.ghosts.size());
  AppendArray(out, std::span<const VertexId>(shard.ghosts));
  return out;
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

/// Bounds-checked forward reader over one section payload. Array reads hand
/// back spans pointing into the payload itself (the zero-copy step); the
/// base pointer is 8-byte aligned and every consume advances by a multiple
/// of 8, so element access is always aligned.
class Cursor {
 public:
  Cursor(const std::byte* data, uint64_t size) : data_(data), size_(size) {}

  Status ReadU64(uint64_t* out) {
    if (size_ - pos_ < sizeof(*out)) {
      return Status::Corruption("section truncated (scalar)");
    }
    std::memcpy(out, data_ + pos_, sizeof(*out));
    pos_ += sizeof(*out);
    return Status::OK();
  }

  template <typename T>
  Status ReadArray(uint64_t count, std::span<const T>* out) {
    if (count > size_) return Status::Corruption("array count exceeds section");
    uint64_t bytes = Arena::AlignedSize<T>(count);
    if (bytes > size_ - pos_) {
      return Status::Corruption("section truncated (array)");
    }
    *out = {reinterpret_cast<const T*>(data_ + pos_), count};
    pos_ += bytes;
    return Status::OK();
  }

  Status ExpectExhausted() const {
    if (pos_ != size_) return Status::Corruption("section has trailing bytes");
    return Status::OK();
  }

  uint64_t remaining() const { return size_ - pos_; }

 private:
  const std::byte* data_;
  uint64_t size_;
  uint64_t pos_ = 0;
};

/// A validated section: payload bytes plus its table entry.
struct Section {
  uint32_t kind = 0;
  uint32_t layer = 0;
  const std::byte* data = nullptr;
  uint64_t length = 0;
};

struct ParsedTable {
  uint32_t num_layers = 0;
  uint32_t max_layers = 0;  // BigIndexOptions::max_layers at build time
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;  // 0 = monolithic, no SHARDMAP section
  bool has_ghosts = false;  // sharded image with a trailing GHOSTS section
  std::vector<Section> sections;
};

uint32_t LoadU32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

uint64_t LoadU64(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Fnv1a of each section, the same values one at a time would give. A hash
/// is a serial chain of multiplies, so one section at a time runs at the
/// multiplier's latency; four sections side by side keep four chains in
/// flight. Longest sections start first, so the lanes finish close together.
std::vector<uint64_t> SectionChecksums(std::span<const Section> sections) {
  constexpr size_t kLanes = 4;
  std::vector<uint64_t> hash(sections.size(), kFnvBasis);
  std::vector<size_t> queue(sections.size());
  for (size_t i = 0; i < queue.size(); ++i) queue[i] = i;
  std::ranges::sort(queue, std::greater<>(),
                    [&](size_t i) { return sections[i].length; });
  std::array<size_t, kLanes> lane{};  // section per lane
  std::array<uint64_t, kLanes> at{};  // bytes of it hashed
  size_t live = 0, next = 0;
  while (true) {
    for (size_t l = 0; l < live;) {
      if (at[l] == sections[lane[l]].length) {
        --live;
        lane[l] = lane[live];
        at[l] = at[live];
      } else {
        ++l;
      }
    }
    while (live < kLanes && next < queue.size()) {
      lane[live] = queue[next++];
      at[live++] = 0;
    }
    if (live < kLanes) break;
    uint64_t step = UINT64_MAX;
    for (size_t l = 0; l < kLanes; ++l) {
      step = std::min(step, sections[lane[l]].length - at[l]);
    }
    const std::byte* p[kLanes];
    uint64_t h[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      p[l] = sections[lane[l]].data + at[l];
      h[l] = hash[lane[l]];
      at[l] += step;
    }
    for (uint64_t i = 0; i < step; ++i) {
      for (size_t l = 0; l < kLanes; ++l) {
        h[l] = (h[l] ^ static_cast<unsigned char>(p[l][i])) * kFnvPrime;
      }
    }
    for (size_t l = 0; l < kLanes; ++l) hash[lane[l]] = h[l];
  }
  // Fewer sections than lanes are left: finish them one at a time.
  for (size_t l = 0; l < live; ++l) {
    const Section& s = sections[lane[l]];
    hash[lane[l]] = Fnv1aFrom(hash[lane[l]], s.data + at[l], s.length - at[l]);
  }
  return hash;
}

/// Validates the fixed header and the section table (bounds, alignment,
/// ordering, checksums). On success the returned sections are safe to parse.
StatusOr<ParsedTable> ValidateHeaderAndTable(const std::byte* data,
                                             uint64_t size,
                                             bool verify_checksums) {
  if (size < Fmt::kHeaderSize) return Status::Corruption("image too small");
  if (size > kMaxImageBytes) return Status::Corruption("image too large");
  if (std::memcmp(data, Fmt::kMagic, sizeof Fmt::kMagic) != 0) {
    return Status::Corruption("bad magic: not an index image");
  }
  uint32_t version = LoadU32(data + 8);
  if (version != Fmt::kVersion) {
    return Status::Corruption("unsupported index-image version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(Fmt::kVersion) + ")");
  }
  uint32_t endian = LoadU32(data + 12);
  if (endian != Fmt::kEndianMarker) {
    return Status::Corruption(
        "endianness mismatch: image written on a different byte order");
  }
  uint64_t file_size = LoadU64(data + 16);
  if (file_size != size) {
    return Status::Corruption("header file size " + std::to_string(file_size) +
                              " != actual " + std::to_string(size));
  }
  uint64_t header_sum = LoadU64(data + 56);
  if (Fnv1a(data, 56) != header_sum) {
    return Status::Corruption("header checksum mismatch");
  }
  ParsedTable table;
  uint32_t section_count = LoadU32(data + 24);
  table.num_layers = LoadU32(data + 28);
  table.shard_id = LoadU32(data + 32);
  table.num_shards = LoadU32(data + 36);
  table.max_layers = LoadU32(data + 40);
  if (table.max_layers < table.num_layers) {
    return Status::Corruption("layer cap below stored layer count");
  }
  if (table.num_shards == 0 && table.shard_id != 0) {
    return Status::Corruption("monolithic image carries a nonzero shard id");
  }
  if (table.num_shards != 0 && table.shard_id >= table.num_shards) {
    return Status::Corruption("shard id out of range for shard count");
  }
  uint64_t expected_sections =
      2 + 3ull * table.num_layers + (table.num_shards != 0 ? 1 : 0);
  // Sharded images may carry one trailing GHOSTS section (cut-incident
  // plans); ValidateSectionOrder pins its kind and position.
  if (table.num_shards != 0 && section_count == expected_sections + 1) {
    table.has_ghosts = true;
  } else if (section_count != expected_sections) {
    return Status::Corruption("section count does not match layer count");
  }
  uint64_t table_end =
      Fmt::kHeaderSize + uint64_t{section_count} * Fmt::kSectionEntrySize;
  if (table_end > size) return Status::Corruption("section table truncated");

  uint64_t prev_end = table_end;
  table.sections.reserve(section_count);
  std::vector<uint64_t> checksums;  // as recorded in the table
  checksums.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const std::byte* e = data + Fmt::kHeaderSize + i * Fmt::kSectionEntrySize;
    Section s;
    s.kind = LoadU32(e);
    s.layer = LoadU32(e + 4);
    uint64_t offset = LoadU64(e + 8);
    s.length = LoadU64(e + 16);
    uint64_t checksum = LoadU64(e + 24);
    if (offset % Arena::kAlign != 0) {
      return Status::Corruption("section offset misaligned");
    }
    // Overflow-safe containment: offset and length are each checked against
    // size before their sum is formed.
    if (offset > size || s.length > size - offset) {
      return Status::Corruption("section extends past end of image");
    }
    if (offset < prev_end) {
      return Status::Corruption("section offsets not monotone");
    }
    prev_end = offset + s.length;
    s.data = data + offset;
    table.sections.push_back(s);
    checksums.push_back(checksum);
  }
  if (verify_checksums) {
    const std::vector<uint64_t> actual = SectionChecksums(table.sections);
    for (uint32_t i = 0; i < section_count; ++i) {
      if (actual[i] != checksums[i]) {
        return Status::Corruption("section " + std::to_string(i) +
                                  " checksum mismatch");
      }
    }
  }
  return table;
}

/// Checks the canonical section sequence: DICT, GRAPH(0), then per layer m:
/// CONFIG(m), MAPPING(m), GRAPH(m), then SHARDMAP iff the header says the
/// image is sharded, then GHOSTS iff the table carries one.
Status ValidateSectionOrder(const ParsedTable& table) {
  auto expect = [&](size_t i, uint32_t kind, uint32_t layer) {
    const Section& s = table.sections[i];
    if (s.kind != kind || s.layer != layer) {
      return Status::Corruption("unexpected section kind/layer at index " +
                                std::to_string(i));
    }
    return Status::OK();
  };
  BIGINDEX_RETURN_IF_ERROR(expect(0, Fmt::kSectionDict, 0));
  BIGINDEX_RETURN_IF_ERROR(expect(1, Fmt::kSectionGraph, 0));
  for (uint32_t m = 1; m <= table.num_layers; ++m) {
    size_t base = 2 + 3 * (m - 1);
    BIGINDEX_RETURN_IF_ERROR(expect(base, Fmt::kSectionConfig, m));
    BIGINDEX_RETURN_IF_ERROR(expect(base + 1, Fmt::kSectionMapping, m));
    BIGINDEX_RETURN_IF_ERROR(expect(base + 2, Fmt::kSectionGraph, m));
  }
  if (table.num_shards != 0) {
    size_t at = 2 + 3ull * table.num_layers;
    BIGINDEX_RETURN_IF_ERROR(expect(at, Fmt::kSectionShardMap, 0));
    if (table.has_ghosts) {
      BIGINDEX_RETURN_IF_ERROR(expect(at + 1, Fmt::kSectionGhosts, 0));
    }
  }
  return Status::OK();
}

Status ParseDictSection(const Section& s, LabelDictionary& dict) {
  Cursor cur(s.data, s.length);
  uint64_t count = 0;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&count));
  std::span<const uint64_t> offsets;
  if (count >= s.length) return Status::Corruption("dictionary count too big");
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(count + 1, &offsets));
  uint64_t blob_size = offsets[count];
  if (blob_size > cur.remaining()) {
    return Status::Corruption("dictionary blob truncated");
  }
  const char* blob = reinterpret_cast<const char*>(s.data) +
                     (s.length - cur.remaining());
  for (uint64_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption("dictionary offsets not monotone");
    }
  }
  // Prefix compatibility: ids the caller has already interned (typically by
  // loading the dataset's ontology) must mean the same strings here,
  // otherwise the image's label ids would silently alias different labels.
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view name(blob + offsets[i], offsets[i + 1] - offsets[i]);
    if (i < dict.size()) {
      if (dict.Name(static_cast<LabelId>(i)) != name) {
        return Status::FailedPrecondition(
            "label dictionary mismatch at id " + std::to_string(i) +
            ": image has '" + std::string(name) + "', caller has '" +
            dict.Name(static_cast<LabelId>(i)) + "'");
      }
    } else {
      LabelId id = dict.Intern(name);
      if (id != i) {
        return Status::Corruption("duplicate name in image dictionary: '" +
                                  std::string(name) + "'");
      }
    }
  }
  return Status::OK();
}

/// Offsets array invariants: starts at 0, monotone, ends at `payload_count`.
Status ValidateOffsets(std::span<const uint64_t> offsets,
                       uint64_t payload_count, const char* what) {
  if (offsets.empty() || offsets.front() != 0) {
    return Status::Corruption(std::string(what) + " offsets must start at 0");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption(std::string(what) + " offsets not monotone");
    }
  }
  if (offsets.back() != payload_count) {
    return Status::Corruption(std::string(what) +
                              " offsets do not cover the payload array");
  }
  return Status::OK();
}

Status ValidateIdRange(std::span<const VertexId> ids, uint64_t bound,
                       const char* what) {
  for (VertexId id : ids) {
    if (id >= bound) {
      return Status::Corruption(std::string(what) + " id out of range");
    }
  }
  return Status::OK();
}

StatusOr<Graph> ParseGraphSection(const Section& s, StorageHandle storage,
                                  size_t dict_size,
                                  const IndexImageOptions& options) {
  Cursor cur(s.data, s.length);
  uint64_t n = 0, e = 0, slots = 0, nd = 0;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&n));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&e));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&slots));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&nd));
  if (n > kInvalidVertex || slots > kInvalidLabel) {
    return Status::Corruption("graph section counts exceed id width");
  }
  std::span<const LabelId> labels;
  std::span<const uint64_t> out_offsets, in_offsets, label_offsets;
  std::span<const VertexId> out_targets, in_sources, label_vertices;
  std::span<const LabelId> distinct;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(n, &labels));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(n + 1, &out_offsets));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(e, &out_targets));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(n + 1, &in_offsets));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(e, &in_sources));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(slots + 1, &label_offsets));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(n, &label_vertices));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(nd, &distinct));
  BIGINDEX_RETURN_IF_ERROR(cur.ExpectExhausted());
  if (options.validate_arrays) {
    BIGINDEX_RETURN_IF_ERROR(ValidateOffsets(out_offsets, e, "out"));
    BIGINDEX_RETURN_IF_ERROR(ValidateOffsets(in_offsets, e, "in"));
    BIGINDEX_RETURN_IF_ERROR(ValidateOffsets(label_offsets, n, "label"));
    BIGINDEX_RETURN_IF_ERROR(ValidateIdRange(out_targets, n, "out-target"));
    BIGINDEX_RETURN_IF_ERROR(ValidateIdRange(in_sources, n, "in-source"));
    BIGINDEX_RETURN_IF_ERROR(
        ValidateIdRange(label_vertices, n, "label-vertex"));
    for (LabelId l : labels) {
      if (l >= slots || l >= dict_size) {
        return Status::Corruption("vertex label out of range");
      }
    }
    for (size_t i = 0; i < distinct.size(); ++i) {
      if (distinct[i] >= slots || (i > 0 && distinct[i] <= distinct[i - 1])) {
        return Status::Corruption("distinct-label array invalid");
      }
    }
  }
  return Graph::FromStorage(std::move(storage), labels, out_offsets,
                            out_targets, in_offsets, in_sources, label_offsets,
                            label_vertices, distinct);
}

StatusOr<BisimMapping> ParseMappingSection(const Section& s,
                                           StorageHandle storage,
                                           const IndexImageOptions& options) {
  Cursor cur(s.data, s.length);
  uint64_t nv = 0, ns = 0;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&nv));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&ns));
  if (nv > kInvalidVertex || ns > kInvalidVertex) {
    return Status::Corruption("mapping section counts exceed id width");
  }
  std::span<const VertexId> vertex_to_super, members;
  std::span<const uint64_t> member_offsets;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(nv, &vertex_to_super));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(ns + 1, &member_offsets));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(nv, &members));
  BIGINDEX_RETURN_IF_ERROR(cur.ExpectExhausted());
  if (options.validate_arrays) {
    BIGINDEX_RETURN_IF_ERROR(
        ValidateIdRange(vertex_to_super, ns, "vertex-to-super"));
    BIGINDEX_RETURN_IF_ERROR(ValidateOffsets(member_offsets, nv, "member"));
    BIGINDEX_RETURN_IF_ERROR(ValidateIdRange(members, nv, "member"));
  }
  return BisimMapping::FromStorage(std::move(storage), vertex_to_super,
                                   member_offsets, members);
}

StatusOr<GeneralizationConfig> ParseConfigSection(const Section& s,
                                                  size_t dict_size) {
  Cursor cur(s.data, s.length);
  uint64_t count = 0;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&count));
  std::span<const uint32_t> pairs;
  if (count > s.length) return Status::Corruption("config count too big");
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(2 * count, &pairs));
  BIGINDEX_RETURN_IF_ERROR(cur.ExpectExhausted());
  GeneralizationConfig config;
  for (uint64_t i = 0; i < count; ++i) {
    LabelId from = pairs[2 * i], to = pairs[2 * i + 1];
    if (from >= dict_size || to >= dict_size) {
      return Status::Corruption("config label out of range");
    }
    Status st = config.AddMapping(from, to);
    if (!st.ok()) return Status::Corruption("config invalid: " + st.message());
  }
  return config;
}

/// Parses the SHARDMAP section into `shard`, cross-checking the redundant
/// shard identity against the header and the remap against the base graph.
Status ParseShardMapSection(const Section& s, const ParsedTable& table,
                            uint64_t base_vertices, ShardImageInfo* shard) {
  Cursor cur(s.data, s.length);
  uint64_t count = 0, shard_id = 0, num_shards = 0;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&count));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&shard_id));
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&num_shards));
  if (shard_id != table.shard_id || num_shards != table.num_shards) {
    return Status::Corruption("shard map disagrees with header shard fields");
  }
  if (count != base_vertices) {
    return Status::Corruption("shard map size does not match base graph");
  }
  std::span<const VertexId> global_of;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(count, &global_of));
  BIGINDEX_RETURN_IF_ERROR(cur.ExpectExhausted());
  for (size_t i = 0; i < global_of.size(); ++i) {
    if (global_of[i] == kInvalidVertex ||
        (i > 0 && global_of[i] <= global_of[i - 1])) {
      return Status::Corruption("shard map remap not strictly ascending");
    }
  }
  if (shard != nullptr) {
    shard->shard_id = table.shard_id;
    shard->num_shards = table.num_shards;
    shard->global_of.assign(global_of.begin(), global_of.end());
  }
  return Status::OK();
}

/// Parses the GHOSTS section: strictly-ascending local ids of the shard's
/// ghost vertices, each a valid base-graph vertex.
Status ParseGhostsSection(const Section& s, uint64_t base_vertices,
                          ShardImageInfo* shard) {
  Cursor cur(s.data, s.length);
  uint64_t count = 0;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadU64(&count));
  if (count == 0) {
    return Status::Corruption("ghost section present but empty");
  }
  std::span<const VertexId> ghosts;
  BIGINDEX_RETURN_IF_ERROR(cur.ReadArray(count, &ghosts));
  BIGINDEX_RETURN_IF_ERROR(cur.ExpectExhausted());
  for (size_t i = 0; i < ghosts.size(); ++i) {
    if (ghosts[i] >= base_vertices || (i > 0 && ghosts[i] <= ghosts[i - 1])) {
      return Status::Corruption("ghost list not strictly ascending local ids");
    }
  }
  if (shard != nullptr) shard->ghosts.assign(ghosts.begin(), ghosts.end());
  return Status::OK();
}

StatusOr<BigIndex> LoadFromMemory(const std::byte* data, uint64_t size,
                                  StorageHandle storage, LabelDictionary& dict,
                                  const Ontology* ontology,
                                  const IndexImageOptions& options,
                                  ShardImageInfo* shard_out) {
  assert(reinterpret_cast<uintptr_t>(data) % Arena::kAlign == 0);
  if (shard_out != nullptr) *shard_out = ShardImageInfo{};
  auto table = ValidateHeaderAndTable(data, size, /*verify_checksums=*/true);
  if (!table.ok()) return table.status();
  BIGINDEX_RETURN_IF_ERROR(ValidateSectionOrder(*table));
  BIGINDEX_RETURN_IF_ERROR(ParseDictSection(table->sections[0], dict));
  auto base = ParseGraphSection(table->sections[1], storage, dict.size(),
                                options);
  if (!base.ok()) return base.status();
  if (table->num_shards != 0) {
    size_t at = 2 + 3ull * table->num_layers;
    BIGINDEX_RETURN_IF_ERROR(ParseShardMapSection(table->sections[at],
                                                  *table, base->NumVertices(),
                                                  shard_out));
    if (table->has_ghosts) {
      BIGINDEX_RETURN_IF_ERROR(ParseGhostsSection(
          table->sections[at + 1], base->NumVertices(), shard_out));
    }
  }
  std::vector<IndexLayer> layers;
  layers.reserve(table->num_layers);
  for (uint32_t m = 1; m <= table->num_layers; ++m) {
    size_t at = 2 + 3 * (m - 1);
    auto config = ParseConfigSection(table->sections[at], dict.size());
    if (!config.ok()) return config.status();
    auto mapping =
        ParseMappingSection(table->sections[at + 1], storage, options);
    if (!mapping.ok()) return mapping.status();
    auto graph = ParseGraphSection(table->sections[at + 2], storage,
                                   dict.size(), options);
    if (!graph.ok()) return graph.status();
    layers.push_back(IndexLayer{std::move(*config), std::move(*graph),
                                std::move(*mapping)});
  }
  return BigIndex::FromParts(std::move(*base), ontology, std::move(layers),
                             {.max_layers = table->max_layers});
}

}  // namespace

Status WriteIndexImage(const BigIndex& index, const LabelDictionary& dict,
                       std::ostream& out) {
  return WriteIndexImage(index, dict, ShardImageInfo{}, out);
}

Status WriteIndexImage(const BigIndex& index, const LabelDictionary& dict,
                       const ShardImageInfo& shard, std::ostream& out) {
  if (shard.IsSharded()) {
    if (shard.shard_id >= shard.num_shards) {
      return Status::InvalidArgument("shard id out of range for shard count");
    }
    if (shard.global_of.size() != index.base().NumVertices()) {
      return Status::InvalidArgument(
          "shard remap size does not match base graph");
    }
    for (size_t i = 0; i < shard.ghosts.size(); ++i) {
      if (shard.ghosts[i] >= shard.global_of.size() ||
          (i > 0 && shard.ghosts[i] <= shard.ghosts[i - 1])) {
        return Status::InvalidArgument(
            "ghost list must be strictly ascending local ids");
      }
    }
  } else if (shard.shard_id != 0 || !shard.global_of.empty() ||
             !shard.ghosts.empty()) {
    return Status::InvalidArgument(
        "monolithic image cannot carry shard id, remap, or ghosts");
  }
  std::vector<std::pair<std::pair<uint32_t, uint32_t>, std::string>> sections;
  sections.emplace_back(std::make_pair(Fmt::kSectionDict, 0u),
                        BuildDictSection(dict));
  sections.emplace_back(std::make_pair(Fmt::kSectionGraph, 0u),
                        BuildGraphSection(index.base()));
  for (uint32_t m = 1; m <= index.NumLayers(); ++m) {
    const IndexLayer& layer = index.Layer(m);
    sections.emplace_back(std::make_pair(Fmt::kSectionConfig, m),
                          BuildConfigSection(layer.config));
    sections.emplace_back(std::make_pair(Fmt::kSectionMapping, m),
                          BuildMappingSection(layer.mapping));
    sections.emplace_back(std::make_pair(Fmt::kSectionGraph, m),
                          BuildGraphSection(layer.graph));
  }
  if (shard.IsSharded()) {
    sections.emplace_back(std::make_pair(Fmt::kSectionShardMap, 0u),
                          BuildShardMapSection(shard));
    // Ghost-free shards (wcc plans) skip the section entirely, keeping
    // their images byte-identical to the pre-GHOSTS format.
    if (!shard.ghosts.empty()) {
      sections.emplace_back(std::make_pair(Fmt::kSectionGhosts, 0u),
                            BuildGhostsSection(shard));
    }
  }

  std::string table;
  uint64_t offset =
      Fmt::kHeaderSize + sections.size() * Fmt::kSectionEntrySize;
  uint64_t file_size = offset;
  for (const auto& [meta, payload] : sections) {
    assert(payload.size() % Arena::kAlign == 0);
    AppendU32(table, meta.first);
    AppendU32(table, meta.second);
    AppendU64(table, offset);
    AppendU64(table, payload.size());
    AppendU64(table, Fnv1a(payload.data(), payload.size()));
    offset += payload.size();
    file_size += payload.size();
  }

  std::string header;
  header.append(Fmt::kMagic, sizeof Fmt::kMagic);
  AppendU32(header, Fmt::kVersion);
  AppendU32(header, Fmt::kEndianMarker);
  AppendU64(header, file_size);
  AppendU32(header, static_cast<uint32_t>(sections.size()));
  AppendU32(header, static_cast<uint32_t>(index.NumLayers()));
  AppendU32(header, shard.shard_id);    // 0 when monolithic
  AppendU32(header, shard.num_shards);  // 0 = monolithic
  AppendU32(header, static_cast<uint32_t>(index.options().max_layers));
  header.append(12, '\0');  // reserved
  AppendU64(header, Fnv1a(header.data(), header.size()));
  assert(header.size() == Fmt::kHeaderSize);

  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(table.data(), static_cast<std::streamsize>(table.size()));
  for (const auto& [meta, payload] : sections) {
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  if (!out) return Status::IOError("failed writing index image");
  return Status::OK();
}

Status SaveIndexImageFile(const BigIndex& index, const LabelDictionary& dict,
                          const std::string& path) {
  return SaveIndexImageFile(index, dict, ShardImageInfo{}, path);
}

Status SaveIndexImageFile(const BigIndex& index, const LabelDictionary& dict,
                          const ShardImageInfo& shard,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  BIGINDEX_RETURN_IF_ERROR(WriteIndexImage(index, dict, shard, out));
  out.close();
  if (!out) return Status::IOError("failed closing " + path);
  return Status::OK();
}

StatusOr<BigIndex> LoadIndexImage(const std::string& path,
                                  LabelDictionary& dict,
                                  const Ontology* ontology,
                                  const IndexImageOptions& options,
                                  ShardImageInfo* shard_out) {
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  return LoadFromMemory(mapped->data(), mapped->size(), mapped->handle(),
                        dict, ontology, options, shard_out);
}

StatusOr<BigIndex> LoadIndexImageFromBuffer(
    std::shared_ptr<const std::string> bytes, LabelDictionary& dict,
    const Ontology* ontology, const IndexImageOptions& options,
    ShardImageInfo* shard_out) {
  if (bytes == nullptr) return Status::InvalidArgument("null image buffer");
  const std::byte* data = reinterpret_cast<const std::byte*>(bytes->data());
  if (reinterpret_cast<uintptr_t>(data) % Arena::kAlign != 0) {
    // Rare (heap strings are suitably aligned); realign by copying so the
    // zero-copy span wiring stays UB-free.
    auto arena = std::make_shared<Arena>(bytes->size());
    auto span = arena->Carve<std::byte>(bytes->size());
    std::memcpy(span.data(), bytes->data(), bytes->size());
    return LoadFromMemory(span.data(), bytes->size(), std::move(arena), dict,
                          ontology, options, shard_out);
  }
  return LoadFromMemory(data, bytes->size(),
                        StorageHandle(bytes, bytes->data()), dict, ontology,
                        options, shard_out);
}

StatusOr<ImageInfo> InspectIndexImage(const std::string& path) {
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const std::byte* data = mapped->data();
  uint64_t size = mapped->size();
  auto table = ValidateHeaderAndTable(data, size, /*verify_checksums=*/false);
  if (!table.ok()) return table.status();
  ImageInfo info;
  info.version = LoadU32(data + 8);
  info.file_size = LoadU64(data + 16);
  info.num_layers = table->num_layers;
  info.shard_id = table->shard_id;
  info.num_shards = table->num_shards;
  info.fingerprint = Fnv1a(
      data, Fmt::kHeaderSize +
                table->sections.size() * uint64_t{Fmt::kSectionEntrySize});
  for (size_t i = 0; i < table->sections.size(); ++i) {
    const std::byte* e =
        data + Fmt::kHeaderSize + i * Fmt::kSectionEntrySize;
    const Section& s = table->sections[i];
    ImageSectionInfo si;
    si.kind = s.kind;
    si.layer = s.layer;
    si.offset = LoadU64(e + 8);
    si.length = s.length;
    si.checksum = LoadU64(e + 24);
    si.checksum_ok = Fnv1a(s.data, s.length) == si.checksum;
    info.sections.push_back(si);
  }
  return info;
}

bool LooksLikeIndexImage(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof Fmt::kMagic];
  if (!in.read(magic, sizeof magic)) return false;
  return std::memcmp(magic, Fmt::kMagic, sizeof magic) == 0;
}

const char* SectionKindName(uint32_t kind) {
  switch (kind) {
    case Fmt::kSectionDict:
      return "DICT";
    case Fmt::kSectionGraph:
      return "GRAPH";
    case Fmt::kSectionMapping:
      return "MAPPING";
    case Fmt::kSectionConfig:
      return "CONFIG";
    case Fmt::kSectionShardMap:
      return "SHARDMAP";
    case Fmt::kSectionGhosts:
      return "GHOSTS";
    default:
      return "UNKNOWN";
  }
}

}  // namespace bigindex

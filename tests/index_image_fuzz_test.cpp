// Corruption-fuzz suite for the flat index image loader.
//
// Property: no input — truncated, bit-flipped, header-mangled, or with a
// forged section table — makes LoadIndexImage crash or exhibit UB. Every
// corrupt image yields a non-OK Status; the rare random flip that lands in
// padding (and so still checksums clean... it cannot: checksums cover the
// padding too) must still produce a queryable index. tools/ci.sh runs this
// suite under ASan/UBSan, which is what turns "no crash" into "no UB".

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bigindex.h"
#include "testing/random_graph.h"

namespace bigindex {
namespace {

/// Shared fixture state: one healthy image all corruptions start from.
class IndexImageFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state_ = new State();
    testing::RandomGraphOptions gopt;
    gopt.num_vertices = 60;
    gopt.edge_density = 2.0;
    gopt.num_labels = 6;
    gopt.seed = 11;
    testing::RandomOntologyOptions oopt;
    oopt.num_leaves = 6;
    oopt.seed = 11;
    state_->graph = testing::MakeRandomGraph(gopt);
    state_->ontology = testing::MakeRandomOntologyDag(oopt);
    for (size_t i = 0; i < state_->ontology.LabelSlots(); ++i) {
      state_->dict.Intern("L" + std::to_string(i));
    }
    BigIndexOptions opt;
    opt.max_layers = 2;
    auto index = BigIndex::Build(state_->graph, &state_->ontology, opt);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    std::ostringstream out(std::ios::binary);
    ASSERT_TRUE(WriteIndexImage(*index, state_->dict, out).ok());
    state_->image = out.str();
    ASSERT_GT(state_->image.size(), IndexImageFormat::kHeaderSize);
  }

  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  /// Attempts a load of `bytes` with a fresh dictionary. Never crashes; the
  /// returned StatusOr says whether the loader accepted it.
  static StatusOr<BigIndex> TryLoad(std::string bytes) {
    // A fresh dict per attempt: a corrupt dictionary section must not be
    // able to poison state shared with later loads.
    LabelDictionary fresh;
    return LoadIndexImageFromBuffer(
        std::make_shared<const std::string>(std::move(bytes)), fresh,
        &state_->ontology);
  }

  static void ExpectRejected(std::string bytes, const char* what) {
    auto result = TryLoad(std::move(bytes));
    EXPECT_FALSE(result.ok()) << what << ": corrupt image was accepted";
  }

  struct State {
    Graph graph;
    Ontology ontology;
    LabelDictionary dict;
    std::string image;
  };
  static State* state_;
};

IndexImageFuzzTest::State* IndexImageFuzzTest::state_ = nullptr;

TEST_F(IndexImageFuzzTest, HealthyImageLoadsAndServesQueries) {
  auto loaded = TryLoad(state_->image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  BkwsAlgorithm bkws(BkwsOptions{.d_max = 4});
  auto distinct = state_->graph.DistinctLabels();
  ASSERT_GE(distinct.size(), 2u);
  std::vector<LabelId> q{distinct[0], distinct[1]};
  auto answers = EvaluateWithIndex(*loaded, bkws, q, {});
  // Must agree with evaluating on a freshly built index.
  auto rebuilt = BigIndex::Build(state_->graph, &state_->ontology,
                                 {.max_layers = 2});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(answers, EvaluateWithIndex(*rebuilt, bkws, q, {}));
}

TEST_F(IndexImageFuzzTest, EveryTruncationIsRejected) {
  const std::string& image = state_->image;
  // Every prefix length up to the header, then a sweep of longer prefixes
  // (step keeps the loop tractable on big images).
  for (size_t len = 0; len < IndexImageFormat::kHeaderSize; ++len) {
    ExpectRejected(image.substr(0, len), "header truncation");
  }
  size_t step = std::max<size_t>(1, image.size() / 512);
  for (size_t len = IndexImageFormat::kHeaderSize; len < image.size();
       len += step) {
    ExpectRejected(image.substr(0, len), "payload truncation");
  }
}

TEST_F(IndexImageFuzzTest, HeaderFieldCorruptionsAreRejected) {
  ExpectRejected("", "empty file");
  ExpectRejected("BIGX", "legacy binary-graph magic");
  ExpectRejected(std::string(1024, '\0'), "all zeros");

  std::string flipped_magic = state_->image;
  flipped_magic[0] ^= 0x40;
  ExpectRejected(std::move(flipped_magic), "flipped magic");

  std::string bad_version = state_->image;
  bad_version[8] = 99;  // version field
  ExpectRejected(std::move(bad_version), "future version");

  std::string bad_endian = state_->image;
  std::swap(bad_endian[12], bad_endian[15]);  // byte-swapped marker
  std::swap(bad_endian[13], bad_endian[14]);
  ExpectRejected(std::move(bad_endian), "endianness marker");

  std::string bad_size = state_->image;
  bad_size[16] ^= 0x01;  // recorded file size
  ExpectRejected(std::move(bad_size), "file-size mismatch");

  std::string bad_layers = state_->image;
  bad_layers[28] += 1;  // layer count no longer matches section count
  ExpectRejected(std::move(bad_layers), "layer count");

  std::string bad_header_sum = state_->image;
  bad_header_sum[56] ^= 0xFF;  // header checksum
  ExpectRejected(std::move(bad_header_sum), "header checksum");

  // A layer cap below the layer count, under a recomputed (valid) header
  // checksum, must fail the field check itself.
  std::string low_cap = state_->image;
  uint32_t layers = 0;
  std::memcpy(&layers, low_cap.data() + 28, sizeof layers);
  ASSERT_GT(layers, 0u);
  const uint32_t cap = layers - 1;
  std::memcpy(low_cap.data() + 40, &cap, sizeof cap);
  uint64_t sum = 1469598103934665603ull;  // FNV-1a over bytes [0, 56)
  for (size_t i = 0; i < 56; ++i) {
    sum ^= static_cast<unsigned char>(low_cap[i]);
    sum *= 1099511628211ull;
  }
  std::memcpy(low_cap.data() + 56, &sum, sizeof sum);
  ExpectRejected(std::move(low_cap), "layer cap below layer count");

  // Growing the file without updating the recorded size is also corruption.
  ExpectRejected(state_->image + "trailing garbage", "trailing bytes");
}

TEST_F(IndexImageFuzzTest, SectionTableCorruptionsAreRejected) {
  const size_t header = IndexImageFormat::kHeaderSize;
  const size_t entry = IndexImageFormat::kSectionEntrySize;
  uint32_t section_count = 0;
  std::memcpy(&section_count, state_->image.data() + 24, sizeof section_count);
  ASSERT_GT(section_count, 0u);

  for (uint32_t s = 0; s < section_count; ++s) {
    SCOPED_TRACE("section " + std::to_string(s));
    const size_t base = header + s * entry;

    std::string bad_kind = state_->image;
    bad_kind[base] = 77;  // unknown section kind
    ExpectRejected(std::move(bad_kind), "section kind");

    std::string bad_offset = state_->image;
    bad_offset[base + 8] ^= 0x04;  // nudge offset (breaks alignment too)
    ExpectRejected(std::move(bad_offset), "section offset");

    std::string huge_offset = state_->image;
    // Offset close to UINT64_MAX: offset + length must not wrap around.
    uint64_t huge = ~uint64_t{0} - 7;
    std::memcpy(huge_offset.data() + base + 8, &huge, sizeof huge);
    ExpectRejected(std::move(huge_offset), "overflowing offset");

    std::string bad_length = state_->image;
    bad_length[base + 16] ^= 0x08;
    ExpectRejected(std::move(bad_length), "section length");

    std::string huge_length = state_->image;
    std::memcpy(huge_length.data() + base + 16, &huge, sizeof huge);
    ExpectRejected(std::move(huge_length), "overflowing length");

    std::string bad_checksum = state_->image;
    bad_checksum[base + 24] ^= 0xFF;
    ExpectRejected(std::move(bad_checksum), "section checksum");
  }
}

TEST_F(IndexImageFuzzTest, RandomByteFlipsNeverCrash) {
  Rng rng(20260808);
  constexpr int kFlips = 400;
  for (int i = 0; i < kFlips; ++i) {
    std::string mutated = state_->image;
    // 1-3 independent single-bit or whole-byte mutations anywhere.
    int mutations = 1 + static_cast<int>(rng.Uniform(3));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.Uniform(mutated.size());
      if (rng.Bernoulli(0.5)) {
        mutated[pos] ^= static_cast<char>(1u << rng.Uniform(8));
      } else {
        mutated[pos] = static_cast<char>(rng.Next());
      }
    }
    auto result = TryLoad(std::move(mutated));
    if (result.ok()) {
      // Checksums make a surviving mutation overwhelmingly likely to be a
      // no-op (flipped back onto the same value). Whatever loaded must be
      // safely queryable.
      BkwsAlgorithm bkws(BkwsOptions{.d_max = 3});
      auto distinct = state_->graph.DistinctLabels();
      std::vector<LabelId> q{distinct[0], distinct[distinct.size() - 1]};
      EvaluateWithIndex(*result, bkws, q, {});
    }
  }
}

TEST_F(IndexImageFuzzTest, RandomTruncationPlusFlipNeverCrashes) {
  Rng rng(4242);
  for (int i = 0; i < 200; ++i) {
    size_t len = rng.Uniform(state_->image.size() + 1);
    std::string mutated = state_->image.substr(0, len);
    if (!mutated.empty()) {
      mutated[rng.Uniform(mutated.size())] ^= static_cast<char>(0xFF);
    }
    ExpectRejected(std::move(mutated), "truncate+flip");
  }
}

TEST_F(IndexImageFuzzTest, InspectRejectsMalformedAndFlagsBadChecksums) {
  std::string dir = ::testing::TempDir();
  std::string good_path = dir + "/fuzz_good.img";
  std::string bad_path = dir + "/fuzz_bad.img";
  {
    std::ofstream out(good_path, std::ios::binary | std::ios::trunc);
    out << state_->image;
  }
  auto info = InspectIndexImage(good_path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, IndexImageFormat::kVersion);
  EXPECT_EQ(info->file_size, state_->image.size());
  EXPECT_EQ(info->sections.size(), 2 + 3 * size_t{info->num_layers});
  for (const auto& s : info->sections) EXPECT_TRUE(s.checksum_ok);

  // A payload flip keeps the header valid: inspect still lists sections but
  // flags the damaged checksum instead of failing outright.
  std::string damaged = state_->image;
  damaged.back() ^= 0x01;
  {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out << damaged;
  }
  auto bad_info = InspectIndexImage(bad_path);
  ASSERT_TRUE(bad_info.ok()) << bad_info.status().ToString();
  bool any_bad = false;
  for (const auto& s : bad_info->sections) any_bad |= !s.checksum_ok;
  EXPECT_TRUE(any_bad);

  // Truncated header: inspect fails with a Status, like the loader.
  {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out << state_->image.substr(0, 10);
  }
  EXPECT_FALSE(InspectIndexImage(bad_path).ok());
  EXPECT_FALSE(InspectIndexImage(dir + "/does_not_exist.img").ok());

  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace bigindex

// Whole-build determinism: BigIndex::Build is a pure function of its input,
// so two runs with the same options give byte-identical images, for
// Algorithm 1's greedy configuration search (cost-model sampling, baseline
// estimation and candidate scoring, all driven by the cost model's seed)
// and for the default one-step build. Any hidden state (RNG streams that
// ignore the seed, caches kept across builds, FP sums in varying order)
// shows up as differing image bytes.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/big_index.h"
#include "core/index_image.h"
#include "workload/datasets.h"

namespace bigindex {
namespace {

std::string SerializeBuild(const Dataset& ds, const BigIndexOptions& opt) {
  auto index = BigIndex::Build(ds.graph, &ds.ontology.ontology, opt);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  std::ostringstream out;
  EXPECT_TRUE(WriteIndexImage(*index, *ds.dict, out).ok());
  return std::move(out).str();
}

BigIndexOptions GreedyOptions(uint64_t seed) {
  BigIndexOptions opt;
  opt.max_layers = 3;
  opt.use_greedy_config = true;
  opt.config_search.theta = 0.9;
  opt.config_search.cost.sample_count = 40;
  opt.config_search.cost.seed = seed;
  return opt;
}

TEST(BuildDeterminismTest, GreedyBuildIdenticalAcrossRuns) {
  auto ds = MakeDataset("yago3", 0.002);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  const std::string first = SerializeBuild(*ds, GreedyOptions(123));
  ASSERT_FALSE(first.empty());
  // Same options, fresh run: bit-for-bit identical.
  EXPECT_EQ(first, SerializeBuild(*ds, GreedyOptions(123)));
  // The seed is load-bearing: a different master seed may legitimately pick
  // different samples (this guards against the seed being ignored — equality
  // here would be suspicious, but is not *impossible*, so only check that
  // the build still succeeds and is itself reproducible).
  const std::string other = SerializeBuild(*ds, GreedyOptions(999));
  EXPECT_FALSE(other.empty());
  EXPECT_EQ(other, SerializeBuild(*ds, GreedyOptions(999)));
}

TEST(BuildDeterminismTest, DefaultConfigBuildIdenticalAcrossRuns) {
  // The experiments' default (one-step generalization, no sampling): this
  // isolates the summarization kernel inside a multi-layer build.
  auto ds = MakeDataset("dbpedia", 0.001);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const BigIndexOptions opt{.max_layers = 4};
  const std::string first = SerializeBuild(*ds, opt);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, SerializeBuild(*ds, opt));
}

}  // namespace
}  // namespace bigindex

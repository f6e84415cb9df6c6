// Cold-start comparison: mmap'd flat index image vs building the index.
//
// The serving story of Sec. 5.1 ("BiG-index loads the m-th layer from the
// disk") hinges on load latency. Without an image, a restarting
// bigindex_serverd parses the dataset and runs BigIndex::Build; the flat
// image (core/index_image.h) validates checksums and wires spans over the
// mapped file. This bench reports the median of both cold starts — parse +
// build (LoadOntologyFile + LoadGraphFile + BigIndex::Build) and image load
// — their ratio, and time-to-first-query (cold start + one bkws
// evaluation).
//
//   bench_index_load [--check]
//
// --check: smoke mode for tools/ci.sh — builds one instance, saves the
// dataset files and the image, asserts the image loads correctly (identical
// query answers), asserts the image load beats parse + build by >= 10x, and
// exits non-zero on any violation.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

namespace {

struct LoadSetup {
  Dataset dataset;
  BigIndexOptions options;
  StatusOr<BigIndex> index = Status::FailedPrecondition("not built");
  std::string graph_path;
  std::string ontology_path;
  std::string image_path;
};

LoadSetup Prepare(const std::string& name, double scale, size_t layers) {
  LoadSetup s;
  auto ds = MakeDataset(name, scale);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    std::exit(1);
  }
  s.dataset = std::move(ds).value();
  s.options.max_layers = layers;
  s.index = BigIndex::Build(s.dataset.graph, &s.dataset.ontology.ontology,
                            s.options);
  if (!s.index.ok()) {
    std::fprintf(stderr, "build: %s\n", s.index.status().ToString().c_str());
    std::exit(1);
  }
  s.graph_path = "/tmp/bigindex_load_" + name + ".graph";
  s.ontology_path = "/tmp/bigindex_load_" + name + ".ont";
  s.image_path = "/tmp/bigindex_load_" + name + ".img";
  Status st = SaveGraphFile(s.dataset.graph, *s.dataset.dict, s.graph_path);
  if (st.ok()) {
    st = SaveOntologyFile(s.dataset.ontology.ontology, *s.dataset.dict,
                          s.ontology_path);
  }
  if (st.ok()) st = SaveIndexImageFile(*s.index, *s.dataset.dict, s.image_path);
  if (!st.ok()) {
    std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return s;
}

void Cleanup(const LoadSetup& s) {
  std::remove(s.graph_path.c_str());
  std::remove(s.ontology_path.c_str());
  std::remove(s.image_path.c_str());
}

/// The cold start without an image: parse the dataset files and build the
/// index. Exits on any failure. A non-empty `q` is evaluated on the built
/// index, for time-to-first-query.
void ParseAndBuild(const LoadSetup& s, const std::vector<LabelId>& q = {}) {
  LabelDictionary d;
  auto ont = LoadOntologyFile(s.ontology_path, d);
  if (!ont.ok()) std::exit(1);
  auto g = LoadGraphFile(s.graph_path, d);
  if (!g.ok()) std::exit(1);
  auto idx = BigIndex::Build(std::move(g).value(), &*ont, s.options);
  if (!idx.ok()) std::exit(1);
  if (!q.empty()) {
    EvaluateWithIndex(*idx, BkwsAlgorithm(BkwsOptions{.d_max = 4}), q, {});
  }
}

/// One keyword query for time-to-first-query measurements.
std::vector<LabelId> FirstQuery(const LoadSetup& s) {
  auto distinct = s.dataset.graph.DistinctLabels();
  if (distinct.size() < 2) {
    std::fprintf(stderr, "dataset has < 2 labels\n");
    std::exit(1);
  }
  return {distinct[0], distinct[distinct.size() / 2]};
}

int RunCheck() {
  // Default bench preset (0.01) with the full 7-layer hierarchy: smaller or
  // shallower indexes build in a few ms, where the image's fixed
  // mmap/validation overhead makes the measured ratio too noisy for a hard
  // >= 10x gate. dbpedia is the largest preset, so both timings are in the
  // hundreds-of-ms range and the ratio is stable.
  LoadSetup s = Prepare("dbpedia", 0.01, 7);
  std::vector<LabelId> q = FirstQuery(s);
  BkwsAlgorithm bkws(BkwsOptions{.d_max = 4});
  auto want = EvaluateWithIndex(*s.index, bkws, q, {});

  // Correctness: the image-loaded index answers exactly like the built one.
  // Re-intern the dataset dictionary in order (as a restarting server would)
  // so ontology label ids line up with the loaded index.
  LabelDictionary dict;
  for (size_t i = 0; i < s.dataset.dict->size(); ++i) {
    dict.Intern(s.dataset.dict->Name(static_cast<LabelId>(i)));
  }
  auto image = LoadIndexImage(s.image_path, dict,
                              &s.dataset.ontology.ontology);
  if (!image.ok()) {
    std::fprintf(stderr, "check: image load failed: %s\n",
                 image.status().ToString().c_str());
    Cleanup(s);
    return 1;
  }
  auto got = EvaluateWithIndex(*image, bkws, q, {});
  if (got != want) {
    std::fprintf(stderr, "check: image-loaded index answers differ\n");
    Cleanup(s);
    return 1;
  }

  // Speed: image load must beat parse + build by >= 10x.
  double build_ms = MedianMs(5, [&] { ParseAndBuild(s); });
  double image_ms = MedianMs(5, [&] {
    LabelDictionary d;
    auto idx = LoadIndexImage(s.image_path, d, &s.dataset.ontology.ontology);
    if (!idx.ok()) std::exit(1);
  });
  std::printf("check: parse+build %.3f ms, image %.3f ms (%.1fx)\n",
              build_ms, image_ms, build_ms / image_ms);
  Cleanup(s);
  if (image_ms * 10 > build_ms) {
    std::fprintf(stderr,
                 "check: image load is not >= 10x faster than parse + "
                 "build\n");
    return 1;
  }
  std::printf("check: OK\n");
  return 0;
}

void RunOne(const std::string& name, double scale) {
  LoadSetup s = Prepare(name, scale, 7);
  std::vector<LabelId> q = FirstQuery(s);
  BkwsAlgorithm bkws(BkwsOptions{.d_max = 4});

  double build_ms = MedianMs(5, [&] { ParseAndBuild(s); });
  double image_ms = MedianMs(5, [&] {
    LabelDictionary d;
    auto idx = LoadIndexImage(s.image_path, d, &s.dataset.ontology.ontology);
    if (!idx.ok()) std::exit(1);
  });
  double ttfq_build_ms = MedianMs(3, [&] { ParseAndBuild(s, q); });
  double ttfq_image_ms = MedianMs(3, [&] {
    LabelDictionary d;
    auto idx = LoadIndexImage(s.image_path, d, &s.dataset.ontology.ontology);
    if (!idx.ok()) std::exit(1);
    EvaluateWithIndex(*idx, bkws, q, {});
  });

  std::printf(
      "%-10s |V|=%-8zu layers=%zu | build %8.2f ms | image %7.3f ms "
      "(%.0fx) | ttfq build %8.2f image %7.2f\n",
      name.c_str(), s.dataset.graph.NumVertices(), s.index->NumLayers(),
      build_ms, image_ms, build_ms / image_ms, ttfq_build_ms, ttfq_image_ms);
  Cleanup(s);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) return RunCheck();
  PrintHeader("bench_index_load: cold-start latency, parse+build vs image",
              "serving startup (Sec. 5.1 layer loading)");
  std::printf("%-10s %-22s | %-16s | %-20s | ttfq = load + 1 query\n",
              "dataset", "", "parse+build", "image mmap+validate");
  for (const char* name : {"yago3", "dbpedia", "imdb"}) {
    RunOne(name, BenchScale());
  }
  return 0;
}

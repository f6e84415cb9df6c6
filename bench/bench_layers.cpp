// Fig. 19 + Exp-4 + Exp-6: query performance per layer, cost-model layer
// prediction, and the comparison against Fan et al. [10] (bisimulation-only,
// fixed depth).
//
// Paper references:
//  * Fig. 19: per-query runtimes when forcing evaluation at each layer m;
//    several queries are fastest at the highest layer.
//  * Exp-4: with beta in [0.3, 0.7] the Formula-4 model predicts the optimal
//    layer for 6 of 8 queries (75% accuracy) at beta = 0.5.
//  * Exp-6: [10] summarizes once (evaluating at a fixed shallow layer);
//    "evaluating queries at the second layer is always suboptimal".

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

int main() {
  PrintHeader("Fig. 19 + Exp-4 + Exp-6 — per-layer query performance",
              "Fig. 19, Sec. 6.2 Exp-4/Exp-6");
  double scale = BenchScale();

  BenchInstance inst = MakeInstance("yago3", scale, /*max_layers=*/4);
  const BigIndex& index = *inst.index;
  BlinksAlgorithm blinks({.d_max = 5, .top_k = 50});

  const size_t layers = index.NumLayers();
  std::printf("layers built: %zu (+ layer 0)\n\n", layers);

  std::printf("%-4s | per-layer time (ms), * = empirical best, (i) = "
              "infeasible by Def 4.1 | predicted m (beta=0.5)\n", "id");
  size_t correct = 0, counted = 0;
  double best_total = 0, layer2_total = 0, predicted_total = 0;
  for (const QuerySpec& q : inst.workload) {
    std::vector<double> times(layers + 1, -1.0);
    size_t best_layer = 0;
    for (size_t m = 0; m <= layers; ++m) {
      if (!QueryDistinctAtLayer(index, q.keywords, m)) continue;
      EvalOptions opt;
      opt.forced_layer = static_cast<int>(m);
      opt.top_k = 10;
      opt.exact_verification = false;
      (void)EvaluateWithIndex(index, blinks, q.keywords, opt);  // warm
      times[m] = MedianMs(3, [&] {
        (void)EvaluateWithIndex(index, blinks, q.keywords, opt);
      });
      if (times[m] < times[best_layer] || times[best_layer] < 0) {
        best_layer = m;
      }
    }
    size_t predicted = OptimalQueryLayer(index, q.keywords, 0.5);
    ++counted;
    if (predicted == best_layer) ++correct;
    best_total += times[best_layer];
    if (layers >= 2 && times[2] >= 0) layer2_total += times[2];
    if (times[predicted] >= 0) predicted_total += times[predicted];

    std::printf("%-4s |", q.id.c_str());
    for (size_t m = 0; m <= layers; ++m) {
      if (times[m] < 0) {
        std::printf("   (i)  ");
      } else {
        std::printf(" %6.2f%c", times[m], m == best_layer ? '*' : ' ');
      }
    }
    std::printf(" | m=%zu\n", predicted);
  }
  std::printf("\nExp-4: cost model predicted the optimal layer for %zu/%zu "
              "queries = %.0f%% (paper: 75%%)\n",
              correct, counted,
              counted ? 100.0 * correct / counted : 0.0);

  // Beta sweep: predicted layer per beta (paper: usable range 0.3-0.7).
  std::printf("\nbeta sweep — predicted layer per query:\n%-5s", "beta");
  for (const QuerySpec& q : inst.workload) std::printf("%5s", q.id.c_str());
  std::printf("\n");
  for (double beta : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    std::printf("%-5.1f", beta);
    for (const QuerySpec& q : inst.workload) {
      std::printf("%5zu", OptimalQueryLayer(index, q.keywords, beta));
    }
    std::printf("\n");
  }

  // Exp-6: [10]-style fixed second-layer evaluation vs adaptive choice.
  if (layers >= 2) {
    std::printf("\nExp-6 ([10] baseline, fixed layer 2): %.1f ms total vs "
                "%.1f ms at the per-query best layer (%.1f ms at predicted) "
                "-> fixed-depth summarization is %s (paper: \"always "
                "suboptimal\")\n",
                layer2_total, best_total, predicted_total,
                layer2_total > best_total ? "suboptimal" : "competitive");
  }
  return 0;
}

// Figs. 17, 18: effectiveness of the answer-generation optimizations of
// Sec. 4.3.
//
// Paper references:
//  * Fig. 17: the specialization-order optimization (Sec. 4.3.2) improves
//    query time by 14.8% on average on YAGO3.
//  * Fig. 18: path-based answer generation (Sec. 4.3.3, Algorithm 4) improves
//    query time by 21.7% on average over vertex-at-a-time (Algorithm 3).

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

namespace {

double RunWorkload(const BenchInstance& inst, const BlinksAlgorithm& algo,
                   const AnswerGenOptions& gen) {
  double total = 0;
  for (const QuerySpec& q : inst.workload) {
    EvalOptions opt;
    opt.top_k = 10;
    opt.exact_verification = false;
    opt.answer_gen = gen;
    total += MedianMs(3, [&] {
      (void)EvaluateWithIndex(*inst.index, algo, q.keywords, opt);
    });
  }
  return total;
}

}  // namespace

int main() {
  PrintHeader("Figs. 17-18 — answer-generation optimizations",
              "Fig. 17 (spec. order), Fig. 18 (path-based), Sec. 4.3");
  double scale = BenchScale();

  BenchInstance inst = MakeInstance("yago3", scale);
  BlinksAlgorithm blinks({.d_max = 5, .top_k = 50});
  if (!inst.workload.empty()) {  // warm caches
    (void)EvaluateWithIndex(*inst.index, blinks, inst.workload[0].keywords,
                            {.top_k = 10, .exact_verification = false});
  }

  AnswerGenOptions base;  // defaults: path-based on, spec-order on

  // Fig. 17: specialization order on/off (path-based fixed on).
  AnswerGenOptions no_order = base;
  no_order.use_specialization_order = false;
  double with_order = RunWorkload(inst, blinks, base);
  double without_order = RunWorkload(inst, blinks, no_order);
  std::printf("\nFig. 17 — specialization order (Sec. 4.3.2):\n");
  std::printf("  off: %.2f ms, on: %.2f ms -> improvement %.1f%% "
              "(paper: 14.8%%)\n",
              without_order, with_order,
              without_order > 0
                  ? 100.0 * (without_order - with_order) / without_order
                  : 0);

  // Fig. 18: path-based vs vertex-based generation (order fixed on).
  AnswerGenOptions vertex_based = base;
  vertex_based.use_path_based = false;
  double path_ms = RunWorkload(inst, blinks, base);
  double vertex_ms = RunWorkload(inst, blinks, vertex_based);
  std::printf("\nFig. 18 — path-based answer generation (Sec. 4.3.3):\n");
  std::printf("  vertex-based (Algo 3): %.2f ms, path-based (Algo 4): "
              "%.2f ms -> improvement %.1f%% (paper: 21.7%%)\n",
              vertex_ms, path_ms,
              vertex_ms > 0 ? 100.0 * (vertex_ms - path_ms) / vertex_ms : 0);
  return 0;
}

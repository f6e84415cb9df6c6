// Figs. 10, 11, 12: query times of Blinks with and without BiG-index on
// YAGO3, Dbpedia, and IMDB, with the per-phase breakdown of Sec. 6.2
// ("query performance breakdown").
//
// Paper reference: BiG-index reduces Blinks query times by 61.8% on YAGO3,
// 57.3% on Dbpedia, 32.5% on IMDB (d_max = 5, avg block size 1000, top-k).
// The headline across datasets is the abstract's 50.5%.
//
// Two BiG-index columns are reported: "fast" follows the paper's
// implementation (realized answers keep generalized scores, Prop 5.3);
// "exact" additionally verifies every candidate on the data graph, which is
// the mode whose answers are proven equal to direct evaluation (Thm 4.2).

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

int main() {
  PrintHeader("Figs. 10-12 — Blinks with/without BiG-index",
              "Fig. 10 (YAGO3), Fig. 11 (Dbpedia), Fig. 12 (IMDB)");
  double scale = BenchScale();

  struct PaperRow {
    const char* name;
    double reduction_pct;
  };
  const PaperRow datasets[] = {
      {"yago3", 61.8}, {"dbpedia", 57.3}, {"imdb", 32.5}};

  double grand_direct = 0, grand_fast = 0, grand_exact = 0;
  for (const PaperRow& d : datasets) {
    BenchInstance inst = MakeInstance(d.name, scale);
    const BigIndex& index = *inst.index;
    // Direct evaluation asks for the paper's top-10; the summary-layer
    // instance asks for 5x as many generalized answers, which progressive
    // specialization (Sec. 4.3.4) consumes in rank order until 10 concrete
    // answers are verified.
    BlinksAlgorithm blinks({.d_max = 5, .top_k = 10});
    BlinksAlgorithm blinks_summary({.d_max = 5, .top_k = 50});

    // Warm scratch buffers and the hierarchy's per-layer state so timings
    // measure search (the paper prebuilds all indexes).
    if (!inst.workload.empty()) {
      (void)blinks.Evaluate(index.base(), inst.workload[0].keywords);
      (void)EvaluateWithIndex(index, blinks_summary,
                              inst.workload[0].keywords, {.top_k = 10});
    }

    std::printf("\n--- %s (paper reduction: %.1f%%) ---\n", d.name,
                d.reduction_pct);
    std::printf("%-4s %2s %12s %12s %12s %6s | breakdown(fast): %s\n", "id",
                "|Q|", "direct(ms)", "big-fast", "big-exact", "layer",
                "explore/spec/gen/out");
    double total_direct = 0, total_fast = 0, total_exact = 0;
    for (const QuerySpec& q : inst.workload) {
      double direct_ms = MedianMs(
          3, [&] { (void)blinks.Evaluate(index.base(), q.keywords); });

      EvalOptions fast;
      fast.top_k = 10;
      fast.exact_verification = false;
      EvalBreakdown bd;
      double fast_ms = MedianMs(3, [&] {
        bd = EvalBreakdown();
        (void)EvaluateWithIndex(index, blinks_summary, q.keywords, fast, &bd);
      });

      EvalOptions exact;
      exact.top_k = 10;
      double exact_ms = MedianMs(3, [&] {
        (void)EvaluateWithIndex(index, blinks_summary, q.keywords, exact);
      });

      total_direct += direct_ms;
      total_fast += fast_ms;
      total_exact += exact_ms;
      std::printf("%-4s %2zu %12.2f %12.2f %12.2f %6zu | %.2f/%.2f/%.2f ms, "
                  "%zu answers\n",
                  q.id.c_str(), q.keywords.size(), direct_ms, fast_ms,
                  exact_ms, bd.layer, bd.explore_ms, bd.specialize_ms,
                  bd.generate_ms, bd.final_answers);
    }
    double reduction =
        total_direct > 0 ? 100.0 * (total_direct - total_fast) / total_direct
                         : 0;
    std::printf("total: direct %.1f ms, big-fast %.1f ms, big-exact %.1f ms "
                "-> reduction %.1f%% (paper %.1f%%)\n",
                total_direct, total_fast, total_exact, reduction,
                d.reduction_pct);
    grand_direct += total_direct;
    grand_fast += total_fast;
    grand_exact += total_exact;
  }

  std::printf("\n=== headline: Blinks runtime reduction %.1f%% (paper: "
              "50.5%% average) ===\n",
              grand_direct > 0
                  ? 100.0 * (grand_direct - grand_fast) / grand_direct
                  : 0);
  return 0;
}

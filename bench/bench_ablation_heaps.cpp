// Ablation A1 — the heap choice inside KO/YTO. The paper used
// Fibonacci heaps "which is the default heap data structure in LEDA"
// (§4.2) for both algorithms; this harness measures whether that choice
// mattered by swapping in pairing and addressable binary heaps. The
// pivot sequence (and hence the answer and the witness) is identical
// across heaps, ties included, because every heap orders events by
// (key, head node, arc) — only constant factors move. The tests
// Parametric.HeapsAndQueuesTakeTheSamePivotsWhereKeysTie and
// Parametric.RatioHeapsTakeTheSamePivotsWhereKeysTie hold it.
#include <iostream>
#include <string>

#include "benchkit/report.h"
#include "benchkit/runner.h"
#include "benchkit/workloads.h"
#include "support/stats.h"
#include "support/table.h"

namespace {

using namespace mcr;
using namespace mcr::bench;

int run() {
  banner("A1 heap ablation for KO/YTO", "design choice in §4.2 (DAC'99)");
  const Scale scale = bench_scale();
  const int trials = trials_per_cell(scale);
  const char* variants[6] = {"ko", "ko_pair", "ko_bin", "yto", "yto_pair", "yto_bin"};

  TextTable table({"n", "m", "ko_fib", "ko_pair", "ko_bin", "yto_fib", "yto_pair",
                   "yto_bin"});
  for (const GridCell cell : table2_grid(scale)) {
    RunStats stats[6];
    for (int t = 0; t < trials; ++t) {
      const Graph g = table2_instance(cell, t);
      for (int i = 0; i < 6; ++i) {
        const TimedRun run = time_solver(variants[i], g);
        if (run.ran) stats[i].add(run.seconds * 1e3);
      }
    }
    std::vector<std::string> row{std::to_string(cell.n), std::to_string(cell.m)};
    for (int i = 0; i < 6; ++i) row.push_back(fmt_fixed(stats[i].mean(), 2));
    table.add_row(std::move(row));
  }
  emit("Heap ablation: time [ms] (avg over " + std::to_string(trials) + " seeds)",
       "ablation_heaps", table);
  return 0;
}

}  // namespace

int main() { return run(); }

// Figure 1 "Smith-Waterman" (paper §7): weak-scaling time for aligning the
// short query against a long sequence that grows with the place count
// (overlapping fragments, best-of-bests All-Reduce). Each row is the median
// of bench::kRepeats runs, interleaved across the rows, with their range.
#include "bench_common.h"
#include "kernels/sw/smith_waterman.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / Smith-Waterman — weak scaling");
  bench::row("simd path (CPUID): %s", kernels::sw_simd_path());
  bench::row("%8s %12s %20s %12s %8s %12s %10s", "places", "time (s)",
             "min-max (s)", "efficiency", "best", "Mcells/s", "verified");
  const std::vector<int> sweep = bench::core_sweep();
  std::vector<int> best(sweep.size(), 0);
  std::vector<double> cells(sweep.size(), 0.0);
  std::vector<bool> verified(sweep.size(), true);
  const std::vector<bench::Spread> rows = bench::repeat_rows(
      sweep,
      [](int places) {
        Config cfg;
        cfg.places = places;
        cfg.places_per_node = 8;
        return cfg;
      },
      [&](std::size_t i) {
        kernels::SwParams p;
        p.short_len = 200;
        p.long_per_place = 20000;
        const auto r = kernels::smith_waterman_run(p, /*verify=*/true);
        best[i] = r.best_score;
        cells[i] = r.cells_per_sec * r.seconds;
        if (!r.verified) verified[i] = false;
        return r.seconds;
      });
  const double base = rows.front().median;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const bench::Spread& t = rows[i];
    bench::row("%8d %12.5f %9.5f-%-10.5f %11.0f%% %8d %12.1f %10s", sweep[i],
               t.median, t.min, t.max, 100.0 * base / t.median, best[i],
               cells[i] / t.median / 1e6, verified[i] ? "yes" : "NO");
  }
  bench::row("(paper: 8.61s 1 place, 12.68s 1 host, 12.87s at 47,040 cores;"
             " only 2%% efficiency lost scaling hosts out)");
  return 0;
}

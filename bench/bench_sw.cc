// Figure 1 "Smith-Waterman" (paper §7): weak-scaling time for aligning the
// short query against a long sequence that grows with the place count
// (overlapping fragments, best-of-bests All-Reduce).
#include "bench_common.h"
#include "kernels/sw/smith_waterman.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / Smith-Waterman — weak scaling");
  bench::row("simd path (CPUID): %s", kernels::sw_simd_path());
  bench::row("%8s %12s %14s %12s %14s", "places", "time (s)", "efficiency",
             "best", "Mcells/s");
  double base = 0;
  for (int places : bench::sweep_places()) {
    Config cfg;
    cfg.places = places;
    cfg.places_per_node = 8;
    Runtime::run(cfg, [&] {
      kernels::SwParams p;
      p.short_len = 200;
      p.long_per_place = 20000;
      auto r = kernels::smith_waterman_run(p);
      if (places == 1) base = r.seconds;
      bench::row("%8d %12.5f %13.0f%% %12d %14.1f", places, r.seconds,
                 100.0 * base / r.seconds, r.best_score,
                 r.cells_per_sec / 1e6);
    });
  }
  bench::row("(paper: 8.61s 1 place, 12.68s 1 host, 12.87s at 47,040 cores;"
             " only 2%% efficiency lost scaling hosts out)");
  return 0;
}

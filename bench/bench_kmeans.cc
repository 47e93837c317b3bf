// Figure 1 "K-Means" (paper §7): weak-scaling time for 5 Lloyd iterations
// with a constant number of points per place, plus parallel efficiency
// versus one place — the paper's panel plots exactly these two series.
#include "bench_common.h"
#include "kernels/kmeans/kmeans.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / K-Means — weak scaling (5 iterations)");
  bench::row("simd path (CPUID): %s", kernels::kmeans_simd_path());
  bench::row("%8s %12s %14s %12s %10s", "places", "time (s)", "efficiency",
             "inertia", "verified");
  double base = 0;
  for (int places : bench::sweep_places()) {
    Config cfg;
    cfg.places = places;
    cfg.places_per_node = 8;
    Runtime::run(cfg, [&] {
      kernels::KmeansParams p;
      p.points_per_place = 2000;
      p.clusters = 64;
      p.dim = 12;
      p.iterations = 5;
      auto r = kernels::kmeans_run(p);
      if (places == 1) base = r.seconds;
      bench::row("%8d %12.5f %13.0f%% %12.1f %10s", places, r.seconds,
                 100.0 * base / r.seconds, r.inertia_per_iter.back(),
                 r.verified ? "yes" : "NO");
    });
  }
  bench::row("(paper: 6.13s at 1 core -> 6.27s at 47,040 cores; efficiency"
             " never below 97%%)");
  return 0;
}

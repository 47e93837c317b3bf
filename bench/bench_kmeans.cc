// Figure 1 "K-Means" (paper §7): weak-scaling time for 5 Lloyd iterations
// with a constant number of points per place, plus parallel efficiency
// versus one place — the paper's panel plots exactly these two series. Each
// row is the median of bench::kRepeats runs, with their range.
#include "bench_common.h"
#include "kernels/kmeans/kmeans.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / K-Means — weak scaling (5 iterations)");
  bench::row("simd path (CPUID): %s", kernels::kmeans_simd_path());
  bench::row("%8s %12s %20s %12s %12s %10s", "places", "time (s)",
             "min-max (s)", "efficiency", "inertia", "verified");
  double base = 0;
  for (int places : bench::core_sweep()) {
    Config cfg;
    cfg.places = places;
    cfg.places_per_node = 8;
    Runtime::run(cfg, [&] {
      kernels::KmeansParams p;
      p.points_per_place = 2000;
      p.clusters = 64;
      p.dim = 12;
      p.iterations = 5;
      kernels::KmeansResult r;
      bool verified = true;
      const bench::Spread t = bench::repeat([&] {
        r = kernels::kmeans_run(p);
        verified = verified && r.verified;
        return r.seconds;
      });
      if (places == 1) base = t.median;
      bench::row("%8d %12.5f %9.5f-%-10.5f %11.0f%% %12.1f %10s", places,
                 t.median, t.min, t.max, 100.0 * base / t.median,
                 r.inertia_per_iter.back(), verified ? "yes" : "NO");
    });
  }
  bench::row("(paper: 6.13s at 1 core -> 6.27s at 47,040 cores; efficiency"
             " never below 97%%)");
  return 0;
}

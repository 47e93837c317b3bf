// Figure 1 "K-Means" (paper §7): weak-scaling time for 5 Lloyd iterations
// with a constant number of points per place, plus parallel efficiency
// versus one place — the paper's panel plots exactly these two series. Each
// row is the median of bench::kRepeats runs, interleaved across the rows,
// with their range.
#include "bench_common.h"
#include "kernels/kmeans/kmeans.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / K-Means — weak scaling (5 iterations)");
  bench::row("simd path (CPUID): %s", kernels::kmeans_simd_path());
  bench::row("%8s %12s %20s %12s %12s %10s", "places", "time (s)",
             "min-max (s)", "efficiency", "inertia", "verified");
  const std::vector<int> sweep = bench::core_sweep();
  std::vector<double> inertia(sweep.size(), 0.0);
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
        kernels::KmeansParams p;
        p.points_per_place = 2000;
        p.clusters = 64;
        p.dim = 12;
        p.iterations = 5;
        const auto r = kernels::kmeans_run(p);
        inertia[i] = r.inertia_per_iter.back();
        if (!r.verified) verified[i] = false;
        return r.seconds;
      });
  const double base = rows.front().median;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const bench::Spread& t = rows[i];
    bench::row("%8d %12.5f %9.5f-%-10.5f %11.0f%% %12.1f %10s", sweep[i],
               t.median, t.min, t.max, 100.0 * base / t.median, inertia[i],
               verified[i] ? "yes" : "NO");
  }
  bench::row("(paper: 6.13s at 1 core -> 6.27s at 47,040 cores; efficiency"
             " never below 97%%)");
  return 0;
}

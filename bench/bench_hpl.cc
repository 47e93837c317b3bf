// Figure 1 "Global HPL" + Table 1 row 1 (paper §5): weak-scaling LU
// factorization Gflop/s on the 2D block-cyclic distribution. Matrix memory
// per place is held constant (n grows with sqrt(P)), as HPCC prescribes.
// Each row is the median of bench::kRepeats runs, with their range.
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "kernels/hpl/hpl.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / Global HPL — weak scaling");
  bench::row("%8s %6s %6s %12s %16s %20s %12s %12s %10s", "places", "n",
             "grid", "Gflop/s", "Gflop/s/place", "min-max", "efficiency",
             "residual", "verified");
  double base = 0;
  for (int places : bench::core_sweep(8)) {
    Config cfg;
    cfg.places = places;
    cfg.places_per_node = 8;
    Runtime::run(cfg, [&] {
      kernels::HplParams p;
      p.nb = 32;
      // Constant memory per place: n scales with sqrt(P), rounded to nb.
      const int base_n = 256;
      p.n = static_cast<int>(base_n * std::sqrt(static_cast<double>(places)));
      p.n = (p.n + p.nb - 1) / p.nb * p.nb;
      kernels::HplResult r;
      double residual = 0;
      bool verified = true;
      const bench::Spread g = bench::repeat([&] {
        r = kernels::hpl_run(p);
        residual = std::max(residual, r.residual);
        verified = verified && r.verified;
        return r.gflops_per_place;
      });
      if (places == 1) base = g.median;
      bench::row("%8d %6d %3dx%-3d %12.4f %16.5f %9.5f-%-10.5f %11.0f%% "
                 "%12.3f %10s",
                 places, p.n, r.pr, r.pc, g.median * places, g.median, g.min,
                 g.max, 100.0 * g.median / base, residual,
                 verified ? "yes" : "NO");
    });
  }
  bench::row("(paper: 22.38 Gflop/s 1 core -> 17.98 Gflop/s/core at 32,768"
             " cores, 80%% relative efficiency; seesaw from n*n vs 2n*n"
             " block-cyclic grids)");
  return 0;
}

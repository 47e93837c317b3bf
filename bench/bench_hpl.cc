// Figure 1 "Global HPL" + Table 1 row 1 (paper §5): weak-scaling LU
// factorization Gflop/s on the 2D block-cyclic distribution. Matrix memory
// per place is held constant (n grows with sqrt(P)), as HPCC prescribes.
// Each row is the median of bench::kRepeats runs, interleaved across the
// rows, with their range.
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
  const std::vector<int> sweep = bench::core_sweep(8);
  // Constant memory per place: n scales with sqrt(P), rounded to nb.
  const auto params = [](int places) {
    kernels::HplParams p;
    p.nb = 32;
    const int base_n = 256;
    p.n = static_cast<int>(base_n * std::sqrt(static_cast<double>(places)));
    p.n = (p.n + p.nb - 1) / p.nb * p.nb;
    return p;
  };
  std::vector<kernels::HplResult> last(sweep.size());
  std::vector<double> residual(sweep.size(), 0.0);
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
        last[i] = kernels::hpl_run(params(sweep[i]));
        residual[i] = std::max(residual[i], last[i].residual);
        if (!last[i].verified) verified[i] = false;
        return last[i].gflops_per_place;
      });
  const double base = rows.front().median;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const bench::Spread& g = rows[i];
    bench::row("%8d %6d %3dx%-3d %12.4f %16.5f %9.5f-%-10.5f %11.0f%% "
               "%12.3f %10s",
               sweep[i], params(sweep[i]).n, last[i].pr, last[i].pc,
               g.median * sweep[i], g.median, g.min, g.max,
               100.0 * g.median / base, residual[i],
               verified[i] ? "yes" : "NO");
  }
  bench::row("(paper: 22.38 Gflop/s 1 core -> 17.98 Gflop/s/core at 32,768"
             " cores, 80%% relative efficiency; seesaw from n*n vs 2n*n"
             " block-cyclic grids)");
  return 0;
}

// Figure 1 "Global RandomAccess" + Table 1 row 2 (paper §5): weak-scaling
// GUP/s over the congruent table via GUPS remote XOR, with the HPCC replay
// verification. Power-of-two place counts only, as in the paper. Each row
// is the median of bench::kRepeats runs, interleaved across the rows, with
// their range.
#include <algorithm>

#include "bench_common.h"
#include "kernels/ra/randomaccess.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / Global RandomAccess — weak scaling");
  bench::row("%8s %12s %16s %20s %12s %12s %10s", "places", "GUP/s",
             "GUP/s/place", "min-max", "efficiency", "err-frac", "verified");
  const std::vector<int> sweep = bench::core_sweep();
  std::vector<double> err(sweep.size(), 0.0);
  std::vector<bool> verified(sweep.size(), true);
  const std::vector<bench::Spread> rows = bench::repeat_rows(
      sweep,
      [](int places) {
        Config cfg;
        cfg.places = places;
        cfg.places_per_node = 8;
        cfg.congruent_bytes = 4u << 20;
        return cfg;
      },
      [&](std::size_t i) {
        kernels::RaParams p;
        p.log2_table_per_place = 15;
        const auto r = kernels::randomaccess_run(p);
        err[i] = std::max(err[i], r.error_fraction);
        if (!r.verified) verified[i] = false;
        return r.gups_per_place;
      });
  const double base = rows.front().median;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const bench::Spread& g = rows[i];
    bench::row("%8d %12.5f %16.6f %9.6f-%-10.6f %11.0f%% %12.4f %10s",
               sweep[i], g.median * sweep[i], g.median, g.min, g.max,
               100.0 * g.median / base, err[i], verified[i] ? "yes" : "NO");
  }
  bench::row("(paper: 0.82 GUP/s/host at both 8 and 1,024 hosts; dip "
             "in-between from cross-section bandwidth — see bench_topology)");
  return 0;
}

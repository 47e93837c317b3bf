// Figure 1 "EP Stream (Triad)" + Table 1 row 4 (paper §5): weak-scaling
// sustainable memory bandwidth, GB/s total and GB/s per place, plus the
// relative efficiency at scale versus one place (Table 2 row 4). Each row
// is the median of bench::kRepeats runs, interleaved across the rows, with
// their range.
#include "bench_common.h"
#include "kernels/stream/stream.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / EP Stream (Triad) — weak scaling");
  bench::row("%8s %14s %16s %20s %12s %10s", "places", "GB/s", "GB/s/place",
             "min-max", "efficiency", "verified");
  const std::vector<int> sweep = bench::core_sweep();
  std::vector<bool> verified(sweep.size(), true);
  const std::vector<bench::Spread> rows = bench::repeat_rows(
      sweep,
      [](int places) {
        Config cfg;
        cfg.places = places;
        cfg.places_per_node = 8;
        cfg.congruent_bytes = 8u << 20;
        return cfg;
      },
      [&](std::size_t i) {
        kernels::StreamParams p;
        p.elements_per_place = 1u << 18;
        p.iterations = 5;
        const auto r = kernels::stream_run(p);
        if (!r.verified) verified[i] = false;
        return r.gb_per_sec_per_place;
      });
  const double base_per_place = rows.front().median;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const bench::Spread& g = rows[i];
    bench::row("%8d %14.2f %16.3f %9.3f-%-10.3f %11.0f%% %10s", sweep[i],
               g.median * sweep[i], g.median, g.min, g.max,
               100.0 * g.median / base_per_place,
               verified[i] ? "yes" : "NO");
  }
  bench::row("(paper: 7.23 GB/s/core at 1 host -> 7.12 at 55,680 cores, 98%%"
             " relative efficiency)");
  return 0;
}

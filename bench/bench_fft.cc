// Figure 1 "Global FFT" + Table 1 row 3 (paper §5): weak-scaling Gflop/s of
// the transpose-method distributed FFT (local shuffle + All-To-All + local
// shuffle), verified by a distributed inverse round trip. Each row is the
// median of bench::kRepeats runs, interleaved across the rows, with their
// range.
#include "bench_common.h"
#include "kernels/fft/fft.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / Global FFT — weak scaling");
  bench::row("%8s %8s %10s %12s %16s %20s %12s %10s", "places", "log2N",
             "mode", "Gflop/s", "Gflop/s/place", "min-max", "efficiency",
             "verified");
  const std::vector<int> sweep = bench::core_sweep(8);
  double base = 0;
  for (bool overlap : {false, true}) {
    // Weak scaling: constant elements per place.
    const auto params = [overlap](int places) {
      kernels::FftParams p;
      int log2p = 0;
      while ((1 << log2p) < places) ++log2p;
      p.log2_size = 16 + log2p;
      p.overlap = overlap;
      return p;
    };
    std::vector<bool> verified(sweep.size(), true);
    const std::vector<bench::Spread> rows = bench::repeat_rows(
        sweep,
        [](int places) {
          Config cfg;
          cfg.places = places;
          cfg.places_per_node = 8;
          cfg.congruent_bytes = 32u << 20;
          return cfg;
        },
        [&](std::size_t i) {
          const auto r = kernels::fft_run(params(sweep[i]));
          if (!r.verified) verified[i] = false;
          return r.gflops_per_place;
        });
    if (!overlap) base = rows.front().median;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const bench::Spread& g = rows[i];
      bench::row("%8d %8d %10s %12.4f %16.5f %9.5f-%-10.5f %11.0f%% %10s",
                 sweep[i], params(sweep[i]).log2_size,
                 overlap ? "overlap" : "phased", g.median * sweep[i],
                 g.median, g.min, g.max, 100.0 * g.median / base,
                 verified[i] ? "yes" : "NO");
    }
  }
  bench::row("(paper: 0.99 Gflop/s 1 core -> 0.88 Gflop/s/core at scale; "
             "mid-range dip from cross-section bandwidth)");
  return 0;
}

// Figure 1 "Global FFT" + Table 1 row 3 (paper §5): weak-scaling Gflop/s of
// the transpose-method distributed FFT (local shuffle + All-To-All + local
// shuffle), verified by a distributed inverse round trip. Each row is the
// median of bench::kRepeats runs, with their range.
#include "bench_common.h"
#include "kernels/fft/fft.h"
#include "runtime/api.h"

int main() {
  using namespace apgas;
  bench::header("Figure 1 / Global FFT — weak scaling");
  bench::row("%8s %8s %10s %12s %16s %20s %12s %10s", "places", "log2N",
             "mode", "Gflop/s", "Gflop/s/place", "min-max", "efficiency",
             "verified");
  double base = 0;
  for (bool overlap : {false, true}) {
    for (int places : bench::core_sweep(8)) {
      Config cfg;
      cfg.places = places;
      cfg.places_per_node = 8;
      cfg.congruent_bytes = 32u << 20;
      Runtime::run(cfg, [&] {
        kernels::FftParams p;
        // Weak scaling: constant elements per place.
        int log2p = 0;
        while ((1 << log2p) < places) ++log2p;
        p.log2_size = 16 + log2p;
        p.overlap = overlap;
        bool verified = true;
        const bench::Spread g = bench::repeat([&] {
          const auto r = kernels::fft_run(p);
          verified = verified && r.verified;
          return r.gflops_per_place;
        });
        if (places == 1 && !overlap) base = g.median;
        bench::row("%8d %8d %10s %12.4f %16.5f %9.5f-%-10.5f %11.0f%% %10s",
                   places, p.log2_size, overlap ? "overlap" : "phased",
                   g.median * places, g.median, g.min, g.max,
                   100.0 * g.median / base, verified ? "yes" : "NO");
      });
    }
  }
  bench::row("(paper: 0.99 Gflop/s 1 core -> 0.88 Gflop/s/core at scale; "
             "mid-range dip from cross-section bandwidth)");
  return 0;
}

// Table 2 (paper §5.2): relative efficiency — per-place performance of the
// same implementation at scale versus at one place (one host in the paper),
// for all eight kernels. "At scale" is as many places as the machine has
// hardware threads (at most 8), so no row timeshares a core; every rate is
// the median of bench::kRepeats runs, the 1-place and at-scale runs of a
// row alternating.
#include <algorithm>

#include "bench_common.h"
#include "kernels/bc/bc.h"
#include "kernels/fft/fft.h"
#include "kernels/hpl/hpl.h"
#include "kernels/kmeans/kmeans.h"
#include "kernels/ra/randomaccess.h"
#include "kernels/stream/stream.h"
#include "kernels/sw/smith_waterman.h"
#include "kernels/uts/uts.h"
#include "runtime/api.h"

using namespace apgas;

namespace {

Config cfg_n(int places) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = 8;
  cfg.congruent_bytes = 16u << 20;
  return bench::observe(cfg);
}

/// One row's medians over bench::kRepeats runs of `one` at 1 place and of
/// `at_scale` at `scale` places, the two sides' runs alternating.
struct RowMedians {
  double one = 0;
  double scale = 0;
};

template <typename One, typename AtScale>
RowMedians medians(int scale, One one, AtScale at_scale) {
  const std::vector<bench::Spread> rows = bench::repeat_rows(
      {1, scale}, cfg_n,
      [&](std::size_t i) { return i == 0 ? one() : at_scale(); });
  return {rows[0].median, rows[1].median};
}

void report(const char* name, RowMedians m, const char* unit) {
  bench::row("%-22s %14.4f %14.4f %-12s %9.0f%%", name, m.one, m.scale, unit,
             100.0 * m.scale / m.one);
}

}  // namespace

int main() {
  const int kScale = bench::core_sweep(8).back();  // a power of two
  int log2_scale = 0;
  while ((1 << log2_scale) < kScale) ++log2_scale;
  bench::header("Table 2 — relative efficiency: per-place rate, 1 place vs " +
                std::to_string(kScale) + " places");
  bench::row("%-22s %14s %14s %-12s %10s", "benchmark", "1 place",
             "at scale", "unit", "rel. eff.");

  report("Global HPL",
         medians(
             kScale,
             [] {
               kernels::HplParams p;
               p.n = 256;
               return kernels::hpl_run(p).gflops_per_place;
             },
             [] {
               kernels::HplParams p;
               p.n = 512;
               return kernels::hpl_run(p).gflops_per_place;
             }),
         "Gflop/s");

  const auto ra = [] {
    kernels::RaParams p;
    p.log2_table_per_place = 14;
    return kernels::randomaccess_run(p).gups_per_place;
  };
  report("Global RandomAccess", medians(kScale, ra, ra), "GUP/s");

  report("Global FFT",
         medians(
             kScale,
             [] {
               kernels::FftParams p;
               p.log2_size = 16;
               return kernels::fft_run(p).gflops_per_place;
             },
             [log2_scale] {
               kernels::FftParams p;
               p.log2_size = 16 + log2_scale;
               return kernels::fft_run(p).gflops_per_place;
             }),
         "Gflop/s");

  const auto stream = [] {
    kernels::StreamParams p;
    p.elements_per_place = 1u << 17;
    return kernels::stream_run(p).gb_per_sec_per_place;
  };
  report("EP Stream (Triad)", medians(kScale, stream, stream), "GB/s");

  report("UTS",
         medians(
             kScale,
             [] {
               kernels::UtsParams p;
               p.depth = 10;
               return kernels::uts_run(p).mnodes_per_sec_per_place;
             },
             [] {
               kernels::UtsParams p;
               p.depth = 11;
               return kernels::uts_run(p).mnodes_per_sec_per_place;
             }),
         "Mnodes/s");

  // K-Means and Smith-Waterman report run time (lower is better), so
  // efficiency is t1 / tP as in the paper.
  const auto kmeans_secs = [] {
    kernels::KmeansParams p;
    p.points_per_place = 2000;
    return kernels::kmeans_run(p).seconds;
  };
  const auto sw_secs = [] {
    kernels::SwParams p;
    p.long_per_place = 20000;
    return kernels::smith_waterman_run(p).seconds;
  };
  for (const auto& [name, secs] :
       {std::pair<const char*, double (*)()>{"K-Means", kmeans_secs},
        {"Smith-Waterman", sw_secs}}) {
    const RowMedians t = medians(kScale, secs, secs);
    bench::row("%-22s %13.4fs %13.4fs %-12s %9.0f%%", name, t.one, t.scale,
               "run time", 100.0 * t.one / t.scale);
  }

  report("Betweenness Centrality",
         medians(
             kScale,
             [] {
               kernels::BcParams p;
               p.graph.scale = 9;
               p.sources = 32;
               return kernels::bc_run(p).medges_per_sec_per_place;
             },
             [] {
               kernels::BcParams p;
               p.graph.scale = 11;  // the paper's instance switch
               p.sources = 32;
               return kernels::bc_run(p).medges_per_sec_per_place;
             }),
         "Medges/s");

  bench::row("(paper's Table 2: HPL 87%%, RandomAccess 100%%, FFT 100%%,"
             " Stream 98%%, UTS 98%%, K-Means 98%%, SW 98%%, BC 45%%)");
  return 0;
}

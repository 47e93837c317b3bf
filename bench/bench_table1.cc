// Table 1 (paper §5.2): X10 implementation vs the best achievable on the
// same machine. The paper compares against IBM's hand-tuned HPCC Class 1
// runs; our stand-in baseline is a "direct" implementation of each kernel —
// plain single-core loops with no runtime, no transport, no termination
// detection (DESIGN.md §2). Reported: per-place rate of the distributed
// run at scale (as many places as the machine has hardware threads, at most
// 8) as a fraction of the direct single-core rate. Both sides are the median
// of bench::kRepeats runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>

#include "bench_common.h"
#include "kernels/fft/fft.h"
#include "kernels/hpl/hpl.h"
#include "kernels/ra/randomaccess.h"
#include "kernels/stream/stream.h"
#include "kernels/util/dgemm.h"
#include "kernels/util/fft1d.h"
#include "kernels/util/hpcc_rng.h"
#include "runtime/api.h"

using namespace apgas;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- direct (no-runtime) baselines ------------------------------------------

double direct_stream_gbs() {
  constexpr std::size_t kN = 1u << 18;
  constexpr int kIters = 5;
  std::vector<double> a(kN), b(kN, 1.0), c(kN, 2.0);
  const auto t0 = Clock::now();
  for (int it = 0; it < kIters; ++it) {
    for (std::size_t i = 0; i < kN; ++i) a[i] = b[i] + 3.0 * c[i];
  }
  const double secs = seconds_since(t0);
  return 3.0 * sizeof(double) * kN * kIters / secs / 1e9;
}

double direct_ra_gups(int log2_table) {
  // Comparable baseline: same *total* table as the distributed run and
  // atomic updates (the distributed path pays atomicity too).
  const std::uint64_t kTable = 1ull << log2_table;
  std::vector<std::uint64_t> table(kTable);
  std::iota(table.begin(), table.end(), 0);
  std::uint64_t ran = kernels::hpcc_starts(0);
  const std::uint64_t updates = 4 * kTable;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < updates; ++i) {
    ran = kernels::hpcc_next(ran);
    std::atomic_ref<std::uint64_t>(table[ran & (kTable - 1)])
        .fetch_xor(ran, std::memory_order_relaxed);
  }
  const double secs = seconds_since(t0);
  return static_cast<double>(updates) / secs / 1e9;
}

double direct_fft_gflops() {
  constexpr int kLog2 = 16;
  constexpr std::size_t kN = 1u << kLog2;
  std::vector<kernels::Complex> x(kN, kernels::Complex(0.5, -0.5));
  const auto t0 = Clock::now();
  kernels::fft_forward(x.data(), kN);
  const double secs = seconds_since(t0);
  return 5.0 * kN * kLog2 / secs / 1e9;
}

double direct_hpl_gflops() {
  // Plain sequential right-looking LU with partial pivoting.
  constexpr int kN = 256;
  std::vector<double> a(static_cast<std::size_t>(kN) * kN);
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      a[static_cast<std::size_t>(i) * kN + j] = kernels::hpl_entry(1, i, j);
    }
  }
  const auto t0 = Clock::now();
  for (int k = 0; k < kN; ++k) {
    int piv = k;
    for (int i = k + 1; i < kN; ++i) {
      if (std::abs(a[static_cast<std::size_t>(i) * kN + k]) >
          std::abs(a[static_cast<std::size_t>(piv) * kN + k])) {
        piv = i;
      }
    }
    if (piv != k) {
      for (int j = 0; j < kN; ++j) {
        std::swap(a[static_cast<std::size_t>(k) * kN + j],
                  a[static_cast<std::size_t>(piv) * kN + j]);
      }
    }
    const double d = a[static_cast<std::size_t>(k) * kN + k];
    for (int i = k + 1; i < kN; ++i) {
      a[static_cast<std::size_t>(i) * kN + k] /= d;
    }
    if (k + 1 < kN) {
      kernels::dgemm_sub(static_cast<std::size_t>(kN - k - 1),
                         static_cast<std::size_t>(kN - k - 1), 1,
                         &a[static_cast<std::size_t>(k + 1) * kN + k],
                         static_cast<std::size_t>(kN),
                         &a[static_cast<std::size_t>(k) * kN + k + 1],
                         static_cast<std::size_t>(kN),
                         &a[static_cast<std::size_t>(k + 1) * kN + k + 1],
                         static_cast<std::size_t>(kN));
    }
  }
  const double secs = seconds_since(t0);
  const double n = kN;
  return (2.0 / 3.0 * n * n * n + 1.5 * n * n) / secs / 1e9;
}

}  // namespace

int main() {
  const int kPlaces = bench::core_sweep(8).back();  // a power of two
  int log2_places = 0;
  while ((1 << log2_places) < kPlaces) ++log2_places;
  bench::header("Table 1 — APGAS runs vs direct (no-runtime) baselines");
  bench::row("%-18s %10s %20s %22s %10s", "benchmark", "places",
             "APGAS (per place)", "direct (single core)", "ratio");

  // Median per-place rate of `measure` run at kPlaces places.
  const auto apgas_median = [kPlaces](const char* label, auto measure) {
    double rate = 0;
    Config cfg;
    cfg.places = kPlaces;
    Runtime::run(bench::observe(cfg),
                 [&] { rate = bench::repeat(measure).median; });
    bench::maybe_emit_metrics(label);
    return rate;
  };

  // Stream.
  {
    const double direct = bench::repeat(direct_stream_gbs).median;
    const double apgas_rate = apgas_median("stream", [] {
      kernels::StreamParams p;
      p.elements_per_place = 1u << 18;
      p.iterations = 5;
      return kernels::stream_run(p).gb_per_sec_per_place;
    });
    bench::row("%-18s %10d %17.2f GB/s %19.2f GB/s %9.0f%%", "EP Stream",
               kPlaces, apgas_rate, direct, 100 * apgas_rate / direct);
  }
  // RandomAccess: 2^15 table entries per place.
  {
    const double direct =
        bench::repeat([&] { return direct_ra_gups(15 + log2_places); }).median;
    const double apgas_rate = apgas_median("randomaccess", [] {
      kernels::RaParams p;
      p.log2_table_per_place = 15;
      return kernels::randomaccess_run(p).gups_per_place;
    });
    bench::row("%-18s %10d %16.4f GUP/s %18.4f GUP/s %9.0f%%", "RandomAccess",
               kPlaces, apgas_rate, direct, 100 * apgas_rate / direct);
  }
  // FFT: the direct baseline's 2^16 elements per place.
  {
    const double direct = bench::repeat(direct_fft_gflops).median;
    const double apgas_rate = apgas_median("fft", [&] {
      kernels::FftParams p;
      p.log2_size = 16 + log2_places;
      return kernels::fft_run(p).gflops_per_place;
    });
    bench::row("%-18s %10d %14.3f Gflop/s %16.3f Gflop/s %9.0f%%",
               "Global FFT", kPlaces, apgas_rate, direct,
               100 * apgas_rate / direct);
  }
  // HPL.
  {
    const double direct = bench::repeat(direct_hpl_gflops).median;
    const double apgas_rate = apgas_median("hpl", [] {
      kernels::HplParams p;
      p.n = 512;
      p.nb = 32;
      return kernels::hpl_run(p).gflops_per_place;
    });
    bench::row("%-18s %10d %14.3f Gflop/s %16.3f Gflop/s %9.0f%%",
               "Global HPL", kPlaces, apgas_rate, direct,
               100 * apgas_rate / direct);
  }
  bench::row("(paper's Table 1 ratios vs hand-tuned Class 1 runs: HPL 85%%,"
             " RandomAccess 81%%, FFT 41%%, Stream 87%%)");
  return 0;
}

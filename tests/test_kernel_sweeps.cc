// Parameterized kernel sweeps: every kernel across its configuration space,
// each point fully verified. These cover the edge geometry the headline
// tests skip (ragged HPL blocks on odd grids, rectangular FFT views, short
// queries, radix lifelines, scheduler accounting).
#include "glb/glb.h"
#include "kernels/fft/fft.h"
#include "kernels/hpl/hpl.h"
#include "kernels/kmeans/kmeans.h"
#include "kernels/ra/randomaccess.h"
#include "kernels/sw/smith_waterman.h"
#include "runtime/api.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace {

using namespace apgas;

Config cfg_n(int places) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = 4;
  cfg.congruent_bytes = 32u << 20;
  return cfg;
}

// --- HPL shape sweep -----------------------------------------------------------

struct HplCase {
  int places, n, nb;
};

class HplSweep : public ::testing::TestWithParam<HplCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, HplSweep,
    ::testing::Values(HplCase{1, 64, 8}, HplCase{2, 96, 16},
                      HplCase{3, 90, 16},   // 1x3 grid, ragged blocks
                      HplCase{4, 128, 32},  // single block column per place
                      HplCase{6, 144, 16},  // 2x3 grid
                      HplCase{4, 100, 24}), // nothing divides anything
    [](const auto& info) {
      const auto& c = info.param;
      return "p" + std::to_string(c.places) + "_n" + std::to_string(c.n) +
             "_nb" + std::to_string(c.nb);
    });

TEST_P(HplSweep, FactorsAndSolvesEveryShape) {
  const auto c = GetParam();
  Runtime::run(cfg_n(c.places), [&] {
    kernels::HplParams p;
    p.n = c.n;
    p.nb = c.nb;
    auto r = kernels::hpl_run(p);
    EXPECT_TRUE(r.verified) << "residual " << r.residual << " agreement "
                            << r.solve_agreement;
  });
}

// --- FFT size sweep --------------------------------------------------------------

struct FftCase {
  int places, log2n;
  bool overlap;
};

class FftSweep : public ::testing::TestWithParam<FftCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sizes, FftSweep,
    ::testing::Values(FftCase{1, 8, false}, FftCase{2, 11, false},
                      FftCase{4, 13, false},  // odd log2: rectangular view
                      FftCase{4, 14, true}, FftCase{2, 9, true},
                      FftCase{8, 12, false}),
    [](const auto& info) {
      const auto& c = info.param;
      return "p" + std::to_string(c.places) + "_n" + std::to_string(c.log2n) +
             (c.overlap ? "_overlap" : "_phased");
    });

TEST_P(FftSweep, RoundTripsAtEverySize) {
  const auto c = GetParam();
  Runtime::run(cfg_n(c.places), [&] {
    kernels::FftParams p;
    p.log2_size = c.log2n;
    p.overlap = c.overlap;
    auto r = kernels::fft_run(p);
    EXPECT_TRUE(r.verified) << "err " << r.max_roundtrip_error;
  });
}

// --- RandomAccess sizes --------------------------------------------------------------

class RaSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};
INSTANTIATE_TEST_SUITE_P(TableSizes, RaSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(8, 12)),
                         [](const auto& info) {
                           return "p" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_log" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST_P(RaSweep, ReplayVerifiesExactly) {
  const auto [places, log2] = GetParam();
  Runtime::run(cfg_n(places), [&] {
    kernels::RaParams p;
    p.log2_table_per_place = log2;
    auto r = kernels::randomaccess_run(p);
    EXPECT_EQ(r.error_fraction, 0.0);
  });
}

// --- K-Means dimensions ---------------------------------------------------------------

class KmeansSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};
INSTANTIATE_TEST_SUITE_P(Dims, KmeansSweep,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Values(2, 16),
                                            ::testing::Values(1, 12)),
                         [](const auto& info) {
                           return "p" + std::to_string(std::get<0>(info.param)) +
                                  "_k" + std::to_string(std::get<1>(info.param)) +
                                  "_d" + std::to_string(std::get<2>(info.param));
                         });

TEST_P(KmeansSweep, DistributedEqualsSequential) {
  const auto [places, clusters, dim] = GetParam();
  kernels::KmeansParams p;
  p.points_per_place = 300;
  p.clusters = clusters;
  p.dim = dim;
  p.iterations = 3;
  const auto seq = kernels::kmeans_sequential(p, 300 * places);
  Runtime::run(cfg_n(places), [&] {
    auto r = kernels::kmeans_run(p);
    ASSERT_EQ(r.centroids.size(), seq.centroids.size());
    for (std::size_t i = 0; i < seq.centroids.size(); ++i) {
      ASSERT_NEAR(r.centroids[i], seq.centroids[i], 1e-9);
    }
  });
}

// --- Smith-Waterman scoring schemes ----------------------------------------------------

class SwSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};
INSTANTIATE_TEST_SUITE_P(Queries, SwSweep,
                         ::testing::Combine(::testing::Values(2, 5),
                                            ::testing::Values(8, 40, 150)),
                         [](const auto& info) {
                           return "p" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_m" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST_P(SwSweep, FragmentDecompositionExact) {
  const auto [places, short_len] = GetParam();
  Runtime::run(cfg_n(places), [&] {
    kernels::SwParams p;
    p.short_len = short_len;
    p.long_per_place = 1200;
    auto r = kernels::smith_waterman_run(p, /*verify=*/true);
    EXPECT_TRUE(r.verified);
  });
}

// --- radix lifelines --------------------------------------------------------------------

TEST(LifelineRadix, DegreeBoundedByDimensions) {
  for (int places : {4, 16, 17, 64, 100}) {
    for (int v = 0; v < places; ++v) {
      auto out = glb::lifelines_of(v, places,
                                   glb::LifelineKind::kHypercubeRadix, 4);
      // z = ceil(log_4 places) digits, at most one lifeline per digit.
      int z = 0;
      for (std::int64_t s = 1; s < places; s *= 4) ++z;
      EXPECT_LE(static_cast<int>(out.size()), z);
      for (int peer : out) {
        EXPECT_GE(peer, 0);
        EXPECT_LT(peer, places);
        EXPECT_NE(peer, v);
      }
    }
  }
}

TEST(LifelineRadix, GlbCompletesWithRadixLifelines) {
  Runtime::run(cfg_n(9), [&] {
    glb::GlbConfig g;
    g.lifelines = glb::LifelineKind::kHypercubeRadix;
    g.chunk = 64;
    glb::Glb<glb::CounterBag> balancer(g);
    balancer.run(glb::CounterBag(0, 12000, /*spin=*/4));
    std::uint64_t total = 0;
    for (int p = 0; p < num_places(); ++p) {
      total += balancer.stats_at(p).processed;
    }
    EXPECT_EQ(total, 12000u);
  });
}

// --- scheduler statistics ------------------------------------------------------------------

TEST(SchedulerStats, CountsActivitiesAndMessages) {
  Runtime::run(cfg_n(3), [&] {
    auto& rt = Runtime::get();
    const auto before = rt.sched(1).activities_executed();
    const auto idle_before = rt.sched(0).idle_transitions();
    finish([&] {
      for (int i = 0; i < 50; ++i) asyncAt(1, [] {});
      // Place 0 goes idle by construction: this finish cannot close until
      // place 0's idle counter moves (or 10 s pass and the check fails).
      asyncAt(1, [&rt, idle_before] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (rt.sched(0).idle_transitions() == idle_before &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      });
    });
    EXPECT_GE(rt.sched(1).activities_executed(), before + 50);
    EXPECT_GT(rt.sched(1).messages_processed(), 0u);
    EXPECT_GT(rt.sched(0).idle_transitions(), 0u);
  });
}

}  // namespace

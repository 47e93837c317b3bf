// The kernels' CPUID-selected vector bodies against their scalar loops:
// K-Means classification bit for bit (centroids, sums, inertia, the
// lowest-index tie rule) and Smith-Waterman scores, plus golden values
// recorded from the scalar code at the benchmark's sizes. Tests of the
// AVX-512 bodies skip where CPUID reports no AVX-512F.
#include "kernels/kmeans/kmeans.h"
#include "kernels/sw/smith_waterman.h"
#include "runtime/api.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace {

using namespace kernels;

constexpr const char* kNoAvx512 =
    "CPUID reports no AVX-512F; the vector body cannot run here (the scalar "
    "one is tested on its own)";

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// FNV-1a over the bit patterns of `v`.
std::uint64_t fnv_bits(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double x : v) {
    const std::uint64_t b = bits_of(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// --- K-Means -------------------------------------------------------------------

// Recorded from the scalar code before the vector body existed, at the
// spmd-kernels sizes: 64 clusters, dim 12, 4000 points x 4 places,
// 5 iterations, seed 42.
constexpr std::uint64_t kSeqCentroidsFnv = 0x4005f8863ac7b005ULL;
constexpr std::uint64_t kSeqInertia[5] = {
    0x40c6050df252c9bdULL, 0x40c21b85dfdcb6a3ULL, 0x40c1c43ba4e55e3cULL,
    0x40c19cec26fce4e6ULL, 0x40c185dd207d61d2ULL};
// kmeans_run at 4 places: the All-Reduce adds the place partials in its own
// order, so the bits differ from the sequential run's.
constexpr std::uint64_t kRunCentroidsFnv = 0x62a84d6bd3ed5aafULL;
constexpr std::uint64_t kRunInertia[5] = {
    0x40c6050df252c9e9ULL, 0x40c21b85dfdcb6a0ULL, 0x40c1c43ba4e55e4fULL,
    0x40c19cec26fce4e0ULL, 0x40c185dd207d61eeULL};

void expect_golden(const KmeansResult& r, std::uint64_t centroids_fnv,
                   const std::uint64_t (&inertia)[5]) {
  ASSERT_EQ(r.centroids.size(), 64u * 12u);
  EXPECT_EQ(fnv_bits(r.centroids), centroids_fnv);
  ASSERT_EQ(r.inertia_per_iter.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(bits_of(r.inertia_per_iter[i]), inertia[i]) << "iteration " << i;
  }
}

TEST(KmeansSimd, SelectionPrefersAvx512) {
  const auto wide = detail::kmeans_classify_avx512();
  EXPECT_EQ(detail::kmeans_classify_selected(),
            wide != nullptr ? wide : &detail::kmeans_classify_scalar);
  EXPECT_EQ(std::string(kmeans_simd_path()),
            wide != nullptr ? "avx512f" : "scalar");
}

TEST(KmeansSimd, ScalarGoldenAtWorkloadSize) {
  const KmeansParams p;
  expect_golden(
      detail::kmeans_sequential_with(&detail::kmeans_classify_scalar, p,
                                     4 * p.points_per_place),
      kSeqCentroidsFnv, kSeqInertia);
}

TEST(KmeansSimd, Avx512GoldenAtWorkloadSize) {
  const auto wide = detail::kmeans_classify_avx512();
  if (wide == nullptr) GTEST_SKIP() << kNoAvx512;
  const KmeansParams p;
  expect_golden(detail::kmeans_sequential_with(wide, p, 4 * p.points_per_place),
                kSeqCentroidsFnv, kSeqInertia);
}

TEST(KmeansSimd, DistributedGoldenAtWorkloadSize) {
  apgas::Config cfg;
  cfg.places = 4;
  cfg.places_per_node = 4;
  apgas::Runtime::run(cfg, [] {
    expect_golden(kmeans_run(KmeansParams{}), kRunCentroidsFnv, kRunInertia);
  });
}

/// Random points in [0, 1) and centroids with exact duplicates: centroid k
/// copies k - 1 when k % 3 == 1 (the lane before, same block) and k - 8 when
/// k % 3 == 2 and k >= 8 (the same lane, one block before). `dup_of[k]`
/// names the copied centroid, or -1.
struct Cloud {
  std::vector<double> points;
  std::vector<double> centroids;
  std::vector<int> dup_of;
};

Cloud make_cloud(int clusters, int dim, int n, std::uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Cloud c;
  c.points.resize(static_cast<std::size_t>(n) * dim);
  for (double& x : c.points) x = u(rng);
  c.centroids.resize(static_cast<std::size_t>(clusters) * dim);
  c.dup_of.assign(static_cast<std::size_t>(clusters), -1);
  for (int k = 0; k < clusters; ++k) {
    int src = -1;
    if (k % 3 == 1) src = k - 1;
    if (k % 3 == 2 && k >= 8) src = k - 8;
    c.dup_of[static_cast<std::size_t>(k)] = src;
    for (int d = 0; d < dim; ++d) {
      c.centroids[static_cast<std::size_t>(k) * dim + d] =
          src >= 0 ? c.centroids[static_cast<std::size_t>(src) * dim + d]
                   : u(rng);
    }
  }
  // Some points sit exactly on a centroid: distance 0, tied with its copies.
  for (int i = 0; i < n; i += 5) {
    const int k = (i / 5) % clusters;
    for (int d = 0; d < dim; ++d) {
      c.points[static_cast<std::size_t>(i) * dim + d] =
          c.centroids[static_cast<std::size_t>(k) * dim + d];
    }
  }
  return c;
}

detail::KmeansPartial classify(detail::KmeansClassifyFn fn, const Cloud& c,
                               int clusters, int dim) {
  detail::KmeansPartial part(clusters, dim);
  fn(c.points.data(),
     static_cast<std::int64_t>(c.points.size()) / dim, c.centroids.data(),
     clusters, dim, part);
  return part;
}

TEST(KmeansSimd, ScalarKeepsLowestIndexOnTies) {
  for (const int clusters : {2, 9, 65}) {
    const Cloud c = make_cloud(clusters, 3, 500, 11);
    const auto part = classify(&detail::kmeans_classify_scalar, c, clusters, 3);
    std::int64_t total = 0;
    for (int k = 0; k < clusters; ++k) {
      total += part.counts[static_cast<std::size_t>(k)];
      if (c.dup_of[static_cast<std::size_t>(k)] >= 0) {
        EXPECT_EQ(part.counts[static_cast<std::size_t>(k)], 0)
            << "duplicate centroid " << k << " of " << clusters;
      }
    }
    EXPECT_EQ(total, 500);
  }
}

TEST(KmeansSimd, Avx512MatchesScalarBitForBit) {
  const auto wide = detail::kmeans_classify_avx512();
  if (wide == nullptr) GTEST_SKIP() << kNoAvx512;
  std::uint32_t seed = 1;
  for (const int clusters : {1, 2, 7, 8, 9, 63, 64, 65}) {
    for (const int dim : {1, 3, 12}) {
      const Cloud c = make_cloud(clusters, dim, 301, seed++);
      const auto want =
          classify(&detail::kmeans_classify_scalar, c, clusters, dim);
      const auto got = classify(wide, c, clusters, dim);
      const std::string at = "clusters " + std::to_string(clusters) +
                             ", dim " + std::to_string(dim);
      EXPECT_EQ(got.counts, want.counts) << at;
      EXPECT_EQ(bits_of(got.inertia), bits_of(want.inertia)) << at;
      ASSERT_EQ(got.sums.size(), want.sums.size()) << at;
      for (std::size_t i = 0; i < want.sums.size(); ++i) {
        ASSERT_EQ(bits_of(got.sums[i]), bits_of(want.sums[i]))
            << at << ", sum " << i;
      }
    }
  }
}

TEST(KmeansSimd, Avx512LloydRunsMatchScalar) {
  const auto wide = detail::kmeans_classify_avx512();
  if (wide == nullptr) GTEST_SKIP() << kNoAvx512;
  for (const int clusters : {1, 7, 9, 65}) {
    for (const int dim : {1, 3, 12}) {
      KmeansParams p;
      p.clusters = clusters;
      p.dim = dim;
      p.iterations = 4;
      const auto want = detail::kmeans_sequential_with(
          &detail::kmeans_classify_scalar, p, 700);
      const auto got = detail::kmeans_sequential_with(wide, p, 700);
      EXPECT_EQ(fnv_bits(got.centroids), fnv_bits(want.centroids))
          << "clusters " << clusters << ", dim " << dim;
      EXPECT_EQ(fnv_bits(got.inertia_per_iter), fnv_bits(want.inertia_per_iter))
          << "clusters " << clusters << ", dim " << dim;
    }
  }
}

// --- Smith-Waterman ------------------------------------------------------------

struct Scheme {
  int match, mismatch, gap;
};

// Recorded from the scalar scan: the spmd-kernels query (default SwParams)
// against the whole 4-place long sequence.
constexpr int kWorkloadBest = 340;

TEST(SwSimd, VectorAppliesOnlyToNegativeGaps) {
  EXPECT_TRUE(detail::sw_vector_applies(200, 2, -1));
  EXPECT_TRUE(detail::sw_vector_applies(1, 0, -7));
  EXPECT_FALSE(detail::sw_vector_applies(200, 2, 0));
  EXPECT_FALSE(detail::sw_vector_applies(200, 2, 1));
  // Values past the int32 lanes' range stay on the scalar scan.
  EXPECT_FALSE(detail::sw_vector_applies(4000, 1 << 20, -1));
  EXPECT_FALSE(detail::sw_vector_applies(10, 1, -(1 << 28)));
  EXPECT_EQ(std::string(sw_simd_path()),
            detail::sw_scan_avx512() != nullptr ? "avx512f" : "scalar");
}

TEST(SwSimd, ScalarGoldenAtWorkloadSize) {
  const SwParams p;
  EXPECT_EQ(detail::sw_scan_scalar(sw_short_seq(p), p.seed, 0,
                                   4 * p.long_per_place, p.match, p.mismatch,
                                   p.gap),
            kWorkloadBest);
}

TEST(SwSimd, Avx512GoldenAtWorkloadSize) {
  const auto wide = detail::sw_scan_avx512();
  if (wide == nullptr) GTEST_SKIP() << kNoAvx512;
  const SwParams p;
  EXPECT_EQ(wide(sw_short_seq(p), p.seed, 0, 4 * p.long_per_place, p.match,
                 p.mismatch, p.gap),
            kWorkloadBest);
}

TEST(SwSimd, Avx512MatchesScalar) {
  const auto wide = detail::sw_scan_avx512();
  if (wide == nullptr) GTEST_SKIP() << kNoAvx512;
  const Scheme schemes[] = {{2, -1, -1}, {1, -1, -2}, {3, -2, -1},
                            {5, -4, -3}, {1, 0, -1},  {2, 1, -1}};
  std::mt19937 rng(5);
  for (const int len : {1, 15, 16, 17, 200, 257}) {
    for (const Scheme& s : schemes) {
      // A copy of a stretch of the long sequence (high scores) with some
      // positions replaced by random letters, 'N' among them (no match).
      const std::uint64_t seed = rng();
      const std::int64_t lo = rng() % 5000;
      const std::int64_t hi = lo + 300 + rng() % 1200;
      std::string q;
      for (int i = 0; i < len; ++i) {
        q.push_back(rng() % 4 == 0 ? "ACGTN"[rng() % 5]
                                   : sw_long_base(seed, lo + 50 + i));
      }
      ASSERT_TRUE(detail::sw_vector_applies(len, s.match, s.gap));
      EXPECT_EQ(wide(q, seed, lo, hi, s.match, s.mismatch, s.gap),
                detail::sw_scan_scalar(q, seed, lo, hi, s.match, s.mismatch,
                                       s.gap))
          << "length " << len << ", scheme " << s.match << "/" << s.mismatch
          << "/" << s.gap << ", range [" << lo << ", " << hi << ")";
    }
  }
}

// Two consecutive stretches of the long sequence with 12 letters that never
// match between them: the best alignment leaves the first stretch's last
// row down the insert chain, 12 rows in one column, and resumes on the
// second. Each cut position starts the chain in another lane.
TEST(SwSimd, Avx512MatchesScalarOnLongInsertRuns) {
  const auto wide = detail::sw_scan_avx512();
  if (wide == nullptr) GTEST_SKIP() << kNoAvx512;
  const Scheme schemes[] = {{5, -10, -1}, {3, -5, -2}, {2, -1, -1}};
  const std::uint64_t seed = 99;
  for (int cut = 1; cut <= 48; ++cut) {
    std::string q;
    for (int i = 0; i < cut; ++i) q.push_back(sw_long_base(seed, 700 + i));
    q.append(12, 'N');
    for (int i = 0; i < 30; ++i) q.push_back(sw_long_base(seed, 700 + cut + i));
    for (const Scheme& s : schemes) {
      EXPECT_EQ(wide(q, seed, 600, 900, s.match, s.mismatch, s.gap),
                detail::sw_scan_scalar(q, seed, 600, 900, s.match, s.mismatch,
                                       s.gap))
          << "cut " << cut << ", scheme " << s.match << "/" << s.mismatch
          << "/" << s.gap;
    }
  }
}

TEST(SwSimd, NonNegativeGapTakesScalarScan) {
  const SwParams p;
  const std::string q = sw_short_seq(p);
  for (const int gap : {0, 1}) {
    EXPECT_FALSE(detail::sw_vector_applies(static_cast<int>(q.size()),
                                           p.match, gap));
    EXPECT_EQ(sw_scan(q, p.seed, 0, 500, p.match, p.mismatch, gap),
              detail::sw_scan_scalar(q, p.seed, 0, 500, p.match, p.mismatch,
                                     gap))
        << "gap " << gap;
  }
}

}  // namespace

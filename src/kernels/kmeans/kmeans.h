// K-Means clustering, Lloyd's algorithm (paper §7): points are partitioned
// across places; each iteration classifies locally by nearest centroid,
// computes per-place partial sums, and merges them with two All-Reduce
// collectives (sums and counts) to produce next-iteration centroids.
//
// The classification body is chosen once from CPUID: an AVX-512F one that
// scores 8 clusters per vector, or the scalar loop. Both give the same bits.
#pragma once

#include <cstdint>
#include <vector>

namespace kernels {

struct KmeansParams {
  int points_per_place = 4000;  // paper: 40000 per place
  int clusters = 64;            // paper: 4096
  int dim = 12;
  int iterations = 5;
  std::uint64_t seed = 42;
};

struct KmeansResult {
  double seconds = 0;
  std::vector<double> centroids;  // clusters x dim, final
  std::vector<double> inertia_per_iter;
  bool verified = false;  ///< inertia monotone non-increasing (Lloyd's)
};

KmeansResult kmeans_run(const KmeansParams& params);

/// Single-threaded reference (same deterministic point/centroid generation);
/// used by tests to check the distributed run is exact.
KmeansResult kmeans_sequential(const KmeansParams& params, int total_points);

/// Deterministic synthetic point cloud: point `global_id`, dimension d.
double kmeans_point_coord(std::uint64_t seed, std::int64_t global_id, int d);

/// The classification body CPUID selected: "avx512f" (8 clusters per
/// vector) or "scalar".
const char* kmeans_simd_path();

namespace detail {

/// What one classification pass adds up: per-cluster coordinate sums
/// (clusters x dim), member counts and the summed squared distances.
struct KmeansPartial {
  KmeansPartial(int clusters, int dim)
      : sums(static_cast<std::size_t>(clusters) * dim, 0.0),
        counts(static_cast<std::size_t>(clusters), 0) {}
  std::vector<double> sums;
  std::vector<std::int64_t> counts;
  double inertia = 0;
};

/// A classification pass: for each of the `n` points (row-major, `dim`
/// coordinates each) in order, finds the nearest of the `clusters`
/// centroids (row-major) by squared distance summed over dimensions
/// 0..dim-1, the lowest index on ties, and adds the point to `out`.
using KmeansClassifyFn = void (*)(const double* points, std::int64_t n,
                                  const double* centroids, int clusters,
                                  int dim, KmeansPartial& out);

/// One point and one centroid at a time, available everywhere.
void kmeans_classify_scalar(const double* points, std::int64_t n,
                            const double* centroids, int clusters, int dim,
                            KmeansPartial& out);

/// The AVX-512F body, or nullptr when this CPU or target has none.
KmeansClassifyFn kmeans_classify_avx512();

/// The body kmeans_run and kmeans_sequential use, chosen once from CPUID:
/// AVX-512F when present, otherwise the scalar one.
KmeansClassifyFn kmeans_classify_selected();

/// kmeans_sequential through a given classification body.
KmeansResult kmeans_sequential_with(KmeansClassifyFn classify,
                                    const KmeansParams& params,
                                    int total_points);

}  // namespace detail

}  // namespace kernels

#include "kernels/kmeans/kmeans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "kernels/util/cpu.h"
#include "runtime/api.h"
#include "runtime/place_group.h"
#include "runtime/team.h"

namespace kernels {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Initial centroids are the first `clusters` points (standard Forgy-like
/// deterministic choice so every place agrees without communication).
std::vector<double> initial_centroids(const KmeansParams& p) {
  std::vector<double> c(static_cast<std::size_t>(p.clusters) * p.dim);
  for (int k = 0; k < p.clusters; ++k) {
    for (int d = 0; d < p.dim; ++d) {
      c[static_cast<std::size_t>(k) * p.dim + d] =
          kmeans_point_coord(p.seed, k, d);
    }
  }
  return c;
}

/// Points [lo, hi), row-major: generated once per run, then classified by
/// every iteration.
std::vector<double> points_of(const KmeansParams& p, std::int64_t lo,
                              std::int64_t hi) {
  std::vector<double> pts(static_cast<std::size_t>(hi - lo) * p.dim);
  std::size_t i = 0;
  for (std::int64_t g = lo; g < hi; ++g) {
    for (int d = 0; d < p.dim; ++d) pts[i++] = kmeans_point_coord(p.seed, g, d);
  }
  return pts;
}

#if defined(__x86_64__)

// The vector body must add the same products in the same order as the
// scalar loop. The AVX-512F target also enables FMA, and GCC contracts
// `acc += diff * diff` into one fused multiply-add by default, which rounds
// once instead of twice and changes the centroids' bits. Contraction is
// switched off here, in the source, so every build of it (this tree's CMake
// or any other) keeps a separate multiply and add.
#if defined(__clang__)
#define KMEANS_AVX512 __attribute__((target("avx512f")))
#define KMEANS_NO_CONTRACT _Pragma("clang fp contract(off)")
#else
#define KMEANS_AVX512 \
  __attribute__((target("avx512f"), optimize("fp-contract=off")))
#define KMEANS_NO_CONTRACT
#endif

using V8d = double __attribute__((vector_size(64)));
using V8l = std::int64_t __attribute__((vector_size(64)));
constexpr int kLanes = 8;
// Blocks whose accumulators stay live across one dimension loop: 64
// clusters, 8 of the 32 vector registers.
constexpr int kChunkBlocks = 8;

// Squared distances from point `pt` to the NB blocks of 8 centroids at
// `tile` (block b, dimension d, lane l at tile[(b * dim + d) * 8 + l]),
// folded into the per-lane nearest distance and cluster. Lane l only ever
// sees clusters l, l + 8, ... in ascending order, so strict `<` keeps the
// lowest of that lane's nearest clusters.
template <int NB>
KMEANS_AVX512 inline void nearest_in_chunk(const double* pt, int dim,
                                           const double* tile,
                                           std::int64_t first_k, V8d& best,
                                           V8l& best_k) {
  KMEANS_NO_CONTRACT
  V8d acc[NB] = {};
  for (int d = 0; d < dim; ++d) {
    const double x = pt[d];
    const V8d p = {x, x, x, x, x, x, x, x};
    // Unrolled, so that every acc[b] lives in a register.
#pragma GCC unroll 8
    for (int b = 0; b < NB; ++b) {
      V8d c;
      std::memcpy(&c, tile + (static_cast<std::size_t>(b) * dim + d) * kLanes,
                  sizeof(c));
      const V8d diff = p - c;
      acc[b] += diff * diff;
    }
  }
  const V8l lane = {0, 1, 2, 3, 4, 5, 6, 7};
#pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) {
    const V8l lt = acc[b] < best;
    best = lt ? acc[b] : best;
    best_k = lt ? lane + (first_k + kLanes * b) : best_k;
  }
}

// One butterfly step of the cross-lane argmin: each lane keeps the smaller
// of its (distance, cluster) pair and lane P's, the lower cluster on equal
// distances.
template <int... P>
KMEANS_AVX512 inline void lane_min(V8d& best, V8l& best_k) {
  const V8d other = __builtin_shufflevector(best, best, P...);
  const V8l other_k = __builtin_shufflevector(best_k, best_k, P...);
  const V8l take = (other < best) | ((other == best) & (other_k < best_k));
  best = take ? other : best;
  best_k = take ? other_k : best_k;
}

// The per-point loop over centroids already in blocks. It calls nothing:
// a call from here into code built without AVX would run with the vector
// registers' upper halves dirty (this function gets no vzeroupper before
// such calls), which made it several times slower.
KMEANS_AVX512 void classify_tiles(const double* points, std::int64_t n,
                                  const double* tile, int blocks, int dim,
                                  double* sums, std::int64_t* counts,
                                  double& inertia) {
  const double max = std::numeric_limits<double>::max();
  for (std::int64_t i = 0; i < n; ++i) {
    const double* pt = points + static_cast<std::size_t>(i) * dim;
    V8d best = {max, max, max, max, max, max, max, max};
    V8l best_k = {};
    for (int b0 = 0; b0 < blocks; b0 += kChunkBlocks) {
      const double* t = tile + static_cast<std::size_t>(b0) * dim * kLanes;
      const std::int64_t k0 = static_cast<std::int64_t>(b0) * kLanes;
      switch (std::min(kChunkBlocks, blocks - b0)) {
        case 1: nearest_in_chunk<1>(pt, dim, t, k0, best, best_k); break;
        case 2: nearest_in_chunk<2>(pt, dim, t, k0, best, best_k); break;
        case 3: nearest_in_chunk<3>(pt, dim, t, k0, best, best_k); break;
        case 4: nearest_in_chunk<4>(pt, dim, t, k0, best, best_k); break;
        case 5: nearest_in_chunk<5>(pt, dim, t, k0, best, best_k); break;
        case 6: nearest_in_chunk<6>(pt, dim, t, k0, best, best_k); break;
        case 7: nearest_in_chunk<7>(pt, dim, t, k0, best, best_k); break;
        default: nearest_in_chunk<8>(pt, dim, t, k0, best, best_k);
      }
    }
    // Across lanes: the smallest distance, then the lowest cluster among
    // equals, which is the cluster the scalar scan's strict `<` keeps.
    // Three butterfly steps leave the winner in every lane.
    lane_min<4, 5, 6, 7, 0, 1, 2, 3>(best, best_k);
    lane_min<2, 3, 0, 1, 6, 7, 4, 5>(best, best_k);
    lane_min<1, 0, 3, 2, 5, 4, 7, 6>(best, best_k);
    const std::int64_t k = best_k[0];
    inertia += best[0];
    ++counts[k];
    double* s = sums + static_cast<std::size_t>(k) * dim;
    for (int d = 0; d < dim; ++d) s[d] += pt[d];
  }
}

void classify_avx512(const double* points, std::int64_t n,
                     const double* centroids, int clusters, int dim,
                     detail::KmeansPartial& out) {
  // Centroids dimension-major in blocks of 8 clusters. Lanes past the last
  // cluster sit at +inf: their distance is +inf and never wins.
  const int blocks = (clusters + kLanes - 1) / kLanes;
  std::vector<double> tile(static_cast<std::size_t>(blocks) * dim * kLanes,
                           std::numeric_limits<double>::infinity());
  for (int k = 0; k < clusters; ++k) {
    for (int d = 0; d < dim; ++d) {
      tile[(static_cast<std::size_t>(k / kLanes) * dim + d) * kLanes +
           k % kLanes] = centroids[static_cast<std::size_t>(k) * dim + d];
    }
  }
  classify_tiles(points, n, tile.data(), blocks, dim, out.sums.data(),
                 out.counts.data(), out.inertia);
}

#undef KMEANS_AVX512
#undef KMEANS_NO_CONTRACT

#endif  // __x86_64__

/// Averages sums/counts into new centroids (empty clusters keep position).
void update_centroids(const KmeansParams& p, const detail::KmeansPartial& part,
                      std::vector<double>& centroids) {
  for (int k = 0; k < p.clusters; ++k) {
    const auto n = part.counts[static_cast<std::size_t>(k)];
    if (n == 0) continue;
    for (int d = 0; d < p.dim; ++d) {
      centroids[static_cast<std::size_t>(k) * p.dim + d] =
          part.sums[static_cast<std::size_t>(k) * p.dim + d] /
          static_cast<double>(n);
    }
  }
}

bool inertia_monotone(const std::vector<double>& inertia) {
  for (std::size_t i = 1; i < inertia.size(); ++i) {
    if (inertia[i] > inertia[i - 1] * (1 + 1e-9)) return false;
  }
  return true;
}

}  // namespace

namespace detail {

void kmeans_classify_scalar(const double* points, std::int64_t n,
                            const double* centroids, int clusters, int dim,
                            KmeansPartial& out) {
  for (std::int64_t i = 0; i < n; ++i) {
    const double* pt = points + static_cast<std::size_t>(i) * dim;
    double best = std::numeric_limits<double>::max();
    int best_k = 0;
    for (int k = 0; k < clusters; ++k) {
      const double* c = centroids + static_cast<std::size_t>(k) * dim;
      double dist = 0;
      for (int d = 0; d < dim; ++d) {
        const double diff = pt[d] - c[d];
        dist += diff * diff;
      }
      if (dist < best) {
        best = dist;
        best_k = k;
      }
    }
    out.inertia += best;
    ++out.counts[static_cast<std::size_t>(best_k)];
    double* s = out.sums.data() + static_cast<std::size_t>(best_k) * dim;
    for (int d = 0; d < dim; ++d) s[d] += pt[d];
  }
}

KmeansClassifyFn kmeans_classify_avx512() {
#if defined(__x86_64__)
  if (cpu_has_avx512f()) return &classify_avx512;
#endif
  return nullptr;
}

KmeansClassifyFn kmeans_classify_selected() {
  static const KmeansClassifyFn chosen = [] {
    const KmeansClassifyFn wide = kmeans_classify_avx512();
    return wide != nullptr ? wide : &kmeans_classify_scalar;
  }();
  return chosen;
}

KmeansResult kmeans_sequential_with(KmeansClassifyFn classify,
                                    const KmeansParams& params,
                                    int total_points) {
  auto centroids = initial_centroids(params);
  KmeansResult result;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<double> points = points_of(params, 0, total_points);
  for (int it = 0; it < params.iterations; ++it) {
    KmeansPartial part(params.clusters, params.dim);
    classify(points.data(), total_points, centroids.data(), params.clusters,
             params.dim, part);
    update_centroids(params, part, centroids);
    result.inertia_per_iter.push_back(part.inertia);
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.centroids = std::move(centroids);
  result.verified = inertia_monotone(result.inertia_per_iter);
  return result;
}

}  // namespace detail

double kmeans_point_coord(std::uint64_t seed, std::int64_t global_id, int d) {
  const std::uint64_t h =
      mix(seed ^ mix(static_cast<std::uint64_t>(global_id) * 1315423911ULL +
                     static_cast<std::uint64_t>(d)));
  return static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
}

const char* kmeans_simd_path() {
  return detail::kmeans_classify_selected() == &detail::kmeans_classify_scalar
             ? "scalar"
             : "avx512f";
}

KmeansResult kmeans_run(const KmeansParams& params) {
  using namespace apgas;
  const std::int64_t per_place = params.points_per_place;
  const detail::KmeansClassifyFn classify = detail::kmeans_classify_selected();

  auto centroids = std::make_shared<std::vector<double>>(
      initial_centroids(params));
  auto inertia_hist = std::make_shared<std::vector<double>>();
  std::mutex mu;

  const auto t0 = std::chrono::steady_clock::now();
  PlaceGroup::world().broadcast([&params, centroids, inertia_hist, &mu,
                                 per_place, classify] {
    Team team = Team::world();
    // Every place keeps its own centroid copy; all copies stay identical
    // because the All-Reduces return identical sums everywhere.
    std::vector<double> local_centroids = *centroids;
    const std::int64_t lo = here() * per_place;
    const std::vector<double> points = points_of(params, lo, lo + per_place);
    for (int it = 0; it < params.iterations; ++it) {
      detail::KmeansPartial part(params.clusters, params.dim);
      classify(points.data(), per_place, local_centroids.data(),
               params.clusters, params.dim, part);
      // The paper's two All-Reduce collectives per iteration. The inertia
      // rides after the sums: the reduction adds element by element, so
      // it gets the same bits as in an All-Reduce of its own.
      part.sums.push_back(part.inertia);
      team.allreduce(part.sums.data(), part.sums.size(), ReduceOp::kSum);
      part.inertia = part.sums.back();
      part.sums.pop_back();
      team.allreduce(part.counts.data(), part.counts.size(), ReduceOp::kSum);
      update_centroids(params, part, local_centroids);
      if (here() == 0) {
        std::scoped_lock lock(mu);
        inertia_hist->push_back(part.inertia);
      }
    }
    if (here() == 0) {
      std::scoped_lock lock(mu);
      *centroids = local_centroids;
    }
  });
  const auto t1 = std::chrono::steady_clock::now();

  KmeansResult result;
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.centroids = *centroids;
  result.inertia_per_iter = *inertia_hist;
  result.verified = inertia_monotone(result.inertia_per_iter);
  return result;
}

KmeansResult kmeans_sequential(const KmeansParams& params, int total_points) {
  return detail::kmeans_sequential_with(detail::kmeans_classify_selected(),
                                        params, total_points);
}

}  // namespace kernels

#include "kernels/sw/smith_waterman.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/util/cpu.h"
#include "runtime/api.h"
#include "runtime/place_group.h"
#include "runtime/team.h"

namespace kernels {

namespace {
constexpr char kBases[4] = {'A', 'C', 'G', 'T'};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Index into kBases of the long sequence's base at global position i.
std::size_t long_base_index(std::uint64_t seed, std::int64_t i) {
  return mix(seed ^ static_cast<std::uint64_t>(i)) & 3;
}
}  // namespace

char sw_long_base(std::uint64_t seed, std::int64_t i) {
  return kBases[long_base_index(seed, i)];
}

std::string sw_short_seq(const SwParams& params) {
  // The query is a copy of a slice of the long sequence with sprinkled
  // mutations, so strong partial matches exist and the best score is
  // non-trivial.
  std::string q;
  q.reserve(static_cast<std::size_t>(params.short_len));
  const std::int64_t origin = 3 * params.short_len;
  for (int i = 0; i < params.short_len; ++i) {
    char c = sw_long_base(params.seed, origin + i);
    if (mix(params.seed * 31 + static_cast<std::uint64_t>(i)) % 11 == 0) {
      c = c == 'A' ? 'G' : 'A';  // mutate ~9% of positions
    }
    q.push_back(c);
  }
  return q;
}

namespace {

#if defined(__x86_64__)

using V16i = std::int32_t __attribute__((vector_size(64)));

__attribute__((target("avx512f"))) inline V16i vmax(V16i a, V16i b) {
  return a > b ? a : b;
}

// One long-sequence column at a time, 16 query rows per vector. Row i of
// column j is cur[i] = max(h[i], cur[i-1] + gap) with
// h[i] = max(0, prev[i-1] + score(query[i-1], b), prev[i] + gap): every h
// of the column is independent, and only the insert chain runs down the
// rows. With gap < 0 that chain is a max-plus prefix scan: within a vector,
// cur[l] = gap*l + max(max_{k<=l} (h[k] - gap*k), carry + gap), carry being
// the row above the vector. Four shift-and-max steps form the inner max.
__attribute__((target("avx512f"))) int scan_avx512(
    const std::string& query, std::uint64_t seed, std::int64_t lo,
    std::int64_t hi, int match, int mismatch, int gap) {
  constexpr int kRows = 16;
  const int m = static_cast<int>(query.size());
  const int nv = (m + kRows - 1) / kRows;
  const std::size_t words = static_cast<std::size_t>(nv) * kRows;
  // Per base, the score of every query row against it. Rows past the query
  // score 0: such a row never exceeds the best real cell above or to the
  // left of it, so it can join the column max.
  std::vector<std::int32_t> profile(4 * words, 0);
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t i = 0; i < query.size(); ++i) {
      profile[b * words + i] = query[i] == kBases[b] ? match : mismatch;
    }
  }
  std::vector<std::int32_t> prev_col(words, 0);
  std::vector<std::int32_t> cur_col(words, 0);
  const V16i zero = {};
  const V16i gapv = zero + gap;
  const V16i ramp = {0,         -gap,      -2 * gap,  -3 * gap,
                     -4 * gap,  -5 * gap,  -6 * gap,  -7 * gap,
                     -8 * gap,  -9 * gap,  -10 * gap, -11 * gap,
                     -12 * gap, -13 * gap, -14 * gap, -15 * gap};
  V16i best = zero;
  for (std::int64_t j = lo; j < hi; ++j) {
    const std::int32_t* score =
        profile.data() + long_base_index(seed, j) * words;
    V16i above = zero;  // previous vector of prev_col; row 0 is 0
    V16i carry = zero;  // cur of the row above this vector, in every lane
    for (int t = 0; t < nv; ++t) {
      const std::size_t at = static_cast<std::size_t>(t) * kRows;
      V16i up, sc;
      std::memcpy(&up, prev_col.data() + at, sizeof(V16i));
      std::memcpy(&sc, score + at, sizeof(V16i));
      // prev[i-1]: lane 0 takes the last lane of the vector above.
      const V16i diag = __builtin_shufflevector(above, up, 15, 16, 17, 18, 19,
                                                20, 21, 22, 23, 24, 25, 26, 27,
                                                28, 29, 30);
      above = up;
      const V16i h = vmax(vmax(diag + sc, up + gapv), zero);
      // h - gap*l >= 0, so shifting zeros in leaves each prefix max as is.
      V16i s = h + ramp;
      s = vmax(s, __builtin_shufflevector(zero, s, 15, 16, 17, 18, 19, 20, 21,
                                          22, 23, 24, 25, 26, 27, 28, 29, 30));
      s = vmax(s, __builtin_shufflevector(zero, s, 14, 15, 16, 17, 18, 19, 20,
                                          21, 22, 23, 24, 25, 26, 27, 28, 29));
      s = vmax(s, __builtin_shufflevector(zero, s, 12, 13, 14, 15, 16, 17, 18,
                                          19, 20, 21, 22, 23, 24, 25, 26, 27));
      s = vmax(s, __builtin_shufflevector(zero, s, 8, 9, 10, 11, 12, 13, 14,
                                          15, 16, 17, 18, 19, 20, 21, 22, 23));
      const V16i in = carry + gapv;
      const V16i cur = vmax(s, in) - ramp;
      std::memcpy(cur_col.data() + at, &cur, sizeof(V16i));
      best = vmax(best, cur);
      carry = __builtin_shufflevector(cur, cur, 15, 15, 15, 15, 15, 15, 15, 15,
                                      15, 15, 15, 15, 15, 15, 15, 15);
    }
    std::swap(prev_col, cur_col);
  }
  int out = 0;
  for (int l = 0; l < kRows; ++l) {
    out = std::max(out, static_cast<int>(best[l]));
  }
  return out;
}

#endif  // __x86_64__

detail::SwScanFn scan_avx512_selected() {
  static const detail::SwScanFn chosen = detail::sw_scan_avx512();
  return chosen;
}

}  // namespace

namespace detail {

int sw_scan_scalar(const std::string& query, std::uint64_t seed,
                   std::int64_t lo, std::int64_t hi, int match, int mismatch,
                   int gap) {
  // Standard SW with linear gaps, O(m) rolling rows over the long sequence.
  const int m = static_cast<int>(query.size());
  std::vector<int> prev(static_cast<std::size_t>(m) + 1, 0);
  std::vector<int> cur(static_cast<std::size_t>(m) + 1, 0);
  int best = 0;
  for (std::int64_t j = lo; j < hi; ++j) {
    const char b = sw_long_base(seed, j);
    cur[0] = 0;
    for (int i = 1; i <= m; ++i) {
      const int sub =
          prev[static_cast<std::size_t>(i) - 1] +
          (query[static_cast<std::size_t>(i) - 1] == b ? match : mismatch);
      const int del = prev[static_cast<std::size_t>(i)] + gap;
      const int ins = cur[static_cast<std::size_t>(i) - 1] + gap;
      const int v = std::max({0, sub, del, ins});
      cur[static_cast<std::size_t>(i)] = v;
      best = std::max(best, v);
    }
    std::swap(prev, cur);
  }
  return best;
}

SwScanFn sw_scan_avx512() {
#if defined(__x86_64__)
  if (cpu_has_avx512f()) return &scan_avx512;
#endif
  return nullptr;
}

bool sw_vector_applies(int query_len, int match, int gap) {
  // Cells stay within [0, max(match, 0) * query_len]; the scan adds one
  // more score and up to 15 gaps to them.
  const std::int64_t top =
      static_cast<std::int64_t>(std::max(match, 0)) * (query_len + 1) +
      16 * -static_cast<std::int64_t>(gap);
  return gap < 0 && top <= std::numeric_limits<std::int32_t>::max();
}

}  // namespace detail

int sw_scan(const std::string& query, std::uint64_t seed, std::int64_t lo,
            std::int64_t hi, int match, int mismatch, int gap) {
  const detail::SwScanFn wide = scan_avx512_selected();
  const detail::SwScanFn scan =
      wide != nullptr && detail::sw_vector_applies(
                             static_cast<int>(query.size()), match, gap)
          ? wide
          : &detail::sw_scan_scalar;
  return scan(query, seed, lo, hi, match, mismatch, gap);
}

const char* sw_simd_path() {
  return scan_avx512_selected() != nullptr ? "avx512f" : "scalar";
}

SwResult smith_waterman_run(const SwParams& params, bool verify) {
  using namespace apgas;
  const std::string query = sw_short_seq(params);
  const std::int64_t per_place = params.long_per_place;
  const std::int64_t total = per_place * num_places();
  // Fragments overlap by twice the query length: any local alignment of the
  // query spans at most 2*m long-sequence positions, so it is contained in
  // some fragment and the max-of-maxes is exact.
  const std::int64_t overlap = 2 * params.short_len;

  long best = 0;
  std::mutex mu;
  const auto t0 = std::chrono::steady_clock::now();
  PlaceGroup::world().broadcast([&] {
    Team team = Team::world();
    const std::int64_t lo = here() * per_place;
    const std::int64_t hi = std::min<std::int64_t>(total, lo + per_place + overlap);
    long local_best = 0;
    for (int it = 0; it < params.iterations; ++it) {
      local_best = sw_scan(query, params.seed, lo, hi, params.match,
                           params.mismatch, params.gap);
    }
    // The best overall match is the best of the best matches (§7).
    team.allreduce(&local_best, 1, ReduceOp::kMax);
    if (here() == 0) {
      std::scoped_lock lock(mu);
      best = local_best;
    }
  });
  const auto t1 = std::chrono::steady_clock::now();

  SwResult result;
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.best_score = static_cast<int>(best);
  result.cells_per_sec = static_cast<double>(total) * params.short_len *
                         params.iterations / result.seconds;
  if (verify) {
    const int seq_best = sw_scan(query, params.seed, 0, total, params.match,
                                 params.mismatch, params.gap);
    result.verified = seq_best == result.best_score;
  } else {
    result.verified = true;
  }
  return result;
}

}  // namespace kernels

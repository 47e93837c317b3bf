// Smith-Waterman local alignment (paper §7): the best partial match of a
// short DNA sequence against a long one. Parallelized exactly as the paper
// does — the long sequence is split into overlapping fragments, each place
// aligns the short sequence against its fragment, and the global best is the
// max of the per-fragment bests (an All-Reduce).
//
// The scan is chosen once from CPUID: an AVX-512F body that computes one
// long-sequence column 16 query rows at a time, or the scalar row loop.
// Both return the same score.
#pragma once

#include <cstdint>
#include <string>

namespace kernels {

struct SwParams {
  int short_len = 200;          // paper: 4000
  std::int64_t long_per_place = 20000;  // paper: 40000 per place
  int iterations = 1;           // paper reports 5-iteration times
  std::uint64_t seed = 7;
  int match = 2, mismatch = -1, gap = -1;
};

struct SwResult {
  double seconds = 0;
  int best_score = 0;
  double cells_per_sec = 0;
  bool verified = false;  ///< distributed max == sequential full-string max
};

SwResult smith_waterman_run(const SwParams& params, bool verify = false);

/// Deterministic DNA base of the long sequence at global position i.
char sw_long_base(std::uint64_t seed, std::int64_t i);

/// The short query sequence.
std::string sw_short_seq(const SwParams& params);

/// Best SW score of `query` against long[lo, hi): the vector scan where
/// detail::sw_vector_applies, otherwise the scalar one.
int sw_scan(const std::string& query, std::uint64_t seed, std::int64_t lo,
            std::int64_t hi, int match, int mismatch, int gap);

/// The scan body CPUID selected for a negative gap: "avx512f" (16 query
/// rows per vector) or "scalar".
const char* sw_simd_path();

namespace detail {

/// A scan body with sw_scan's signature.
using SwScanFn = int (*)(const std::string& query, std::uint64_t seed,
                         std::int64_t lo, std::int64_t hi, int match,
                         int mismatch, int gap);

/// One cell at a time, available everywhere and for every scheme.
int sw_scan_scalar(const std::string& query, std::uint64_t seed,
                   std::int64_t lo, std::int64_t hi, int match, int mismatch,
                   int gap);

/// The AVX-512F body, or nullptr when this CPU or target has none. It is
/// exact only where sw_vector_applies.
SwScanFn sw_scan_avx512();

/// Whether the vector scan's prefix-max form of the insert chain is exact
/// for this scheme: the gap is negative, and every value it forms fits in
/// an int32.
bool sw_vector_applies(int query_len, int match, int gap);

}  // namespace detail

}  // namespace kernels

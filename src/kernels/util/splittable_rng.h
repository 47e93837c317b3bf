// The UTS splittable random stream (Olivier et al. [25], BRG SHA-1 variant):
// a tree node's state is a 20-byte SHA-1 digest; child i's state is
// SHA-1(parent state || i as big-endian u32). This makes the tree shape a
// pure function of the root seed, so any traversal order counts the same
// nodes — the property UTS verification relies on.
#pragma once

#include <cmath>
#include <cstdint>

#include "kernels/util/sha1.h"

namespace kernels {

struct UtsNodeState {
  Sha1Digest digest;

  /// Root state from an integer seed: SHA-1 of the seed as a 4-byte
  /// big-endian word.
  static UtsNodeState root(std::uint32_t seed) {
    std::uint8_t buf[4] = {
        static_cast<std::uint8_t>(seed >> 24),
        static_cast<std::uint8_t>(seed >> 16),
        static_cast<std::uint8_t>(seed >> 8),
        static_cast<std::uint8_t>(seed),
    };
    return UtsNodeState{sha1(buf, sizeof(buf))};
  }

  /// Child i's state; one SHA-1 evaluation (the unit the paper's "17 trillion
  /// hashes" counts).
  [[nodiscard]] UtsNodeState spawn(std::uint32_t i) const {
    return UtsNodeState{sha1_spawn(digest, i)};
  }

  /// A positive 31-bit random value from the state (uts.c rng_rand).
  [[nodiscard]] std::uint32_t rand31() const {
    const std::uint32_t v = (std::uint32_t(digest[16]) << 24) |
                            (std::uint32_t(digest[17]) << 16) |
                            (std::uint32_t(digest[18]) << 8) |
                            std::uint32_t(digest[19]);
    return v & 0x7fffffffu;
  }

  /// Uniform in [0, 1) (uts.c rng_toProb).
  [[nodiscard]] double to_prob() const { return prob_of(rand31()); }

  /// to_prob() of a state whose last digest word (bytes 16..19, read
  /// big-endian) is `last_word`: batched hashing yields the word directly.
  static double prob_of(std::uint32_t last_word) {
    return static_cast<double>(last_word & 0x7fffffffu) / 2147483648.0;
  }
};

/// log(1 - p) for the geometric child-count distribution with mean ~b0
/// (p = 1 / (1 + b0)): constant for a tree shape, so callers compute it once.
inline double uts_geo_log_q(double b0) {
  const double p = 1.0 / (1.0 + b0);
  return std::log(1.0 - p);
}

/// Number of children of a node in a *geometric* UTS tree with fixed
/// branching parameter b0 and depth cut-off d (uts.c GEO_FIXED): beyond the
/// cut-off the tree stops; otherwise the child count follows the geometric
/// distribution with mean ~b0 — the long tail is what makes the tree
/// unbalanced. `u` is the node's to_prob(); `log_q` is uts_geo_log_q(b0).
inline int uts_geo_children(double u, int depth, double log_q,
                            int max_depth) {
  if (depth >= max_depth) return 0;
  return static_cast<int>(std::floor(std::log(1.0 - u) / log_q));
}

/// Number of children in a *binomial* UTS tree (uts.c BIN): the root has b0
/// children; every other node has m children with probability q and none
/// otherwise. With m*q < 1 the tree is finite with expected size
/// b0/(1 - m*q); the variance is enormous, making it the "deep and narrow"
/// shape the paper contrasts with shallow geometric trees (§6.1). `u` is the
/// node's to_prob().
inline int uts_bin_children(double u, int depth, int root_b0, int m,
                            double q) {
  if (depth == 0) return root_b0;
  return u < q ? m : 0;
}

}  // namespace kernels

// Unbalanced Tree Search over geometric trees (paper §6): counts the nodes
// of a tree generated on the fly from a SHA-1 splittable random stream,
// balanced across places by the lifeline GLB. The work-bag representation is
// the paper's §6.1 refinement: *intervals* of sibling indices rather than
// expanded node lists, with thieves taking fragments of every interval to
// counter the depth-cutoff bias.
#pragma once

#include <cstdint>
#include <vector>

#include "glb/glb.h"
#include "kernels/util/splittable_rng.h"

namespace kernels {

enum class UtsShape {
  kGeometric,  ///< the paper's workload: b0 = 4, depth cut-off d
  kBinomial,   ///< uts.c BIN: deep, narrow, extreme-variance trees (§6.1
               ///< mentions them as the shape interval stealing helps less)
};

struct UtsParams {
  UtsShape shape = UtsShape::kGeometric;
  double b0 = 4.0;        ///< geometric branching factor (paper: 4)
  std::uint32_t seed = 19;  ///< root seed (paper: r = 19)
  int depth = 10;         ///< cut-off d (paper: 14 at 1 place .. 22 at scale)
  int bin_root = 64;      ///< binomial: root child count
  int bin_m = 4;          ///< binomial: children on success
  double bin_q = 0.23;    ///< binomial: success probability (m*q < 1)
  glb::GlbConfig glb;
};

struct UtsResult {
  std::uint64_t nodes = 0;
  std::uint64_t hashes = 0;
  double seconds = 0;
  double mnodes_per_sec = 0;
  double mnodes_per_sec_per_place = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t resuscitations = 0;
  bool verified = false;  ///< optional check against the sequential count
};

/// The GLB work bag: a list of (parent state, depth, sibling interval).
class UtsBag {
 public:
  UtsBag() = default;
  UtsBag(const UtsParams& params, bool with_root);

  /// Generates up to `n` nodes and returns how many: min(n, nodes still
  /// pending). Spawn hashes run up to Sha1SpawnBatch::kLanes at a time, so
  /// the visiting order is not the one-node-at-a-time depth-first order;
  /// the tree, and so every count, is a pure function of the root seed.
  std::size_t process(std::size_t n);
  UtsBag split();
  void merge(UtsBag&& other);
  [[nodiscard]] bool empty() const { return frames_.empty(); }
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::uint64_t nodes() const { return nodes_; }
  [[nodiscard]] std::uint64_t hashes() const { return hashes_; }

  /// Legacy [35] representation: split() detaches expanded single-node
  /// frames from the tail instead of interval fragments.
  bool legacy_lists = false;

  // Ser hooks (x10rt::Ser): Frame and TreeShape are trivially copyable, so
  // the whole bag ships as flat vectors — this is what lets UTS-over-GLB run
  // across place processes.
  void ser_put(x10rt::ByteBuffer& b) const {
    b.put_vector(frames_);
    b.put(tree_);
    b.put(nodes_);
    b.put(hashes_);
    b.put(legacy_lists);
  }
  static UtsBag ser_get(x10rt::ByteBuffer& b) {
    UtsBag bag;
    bag.frames_ = b.get_vector<Frame>();
    bag.tree_ = b.get<TreeShape>();
    bag.nodes_ = b.get<std::uint64_t>();
    bag.hashes_ = b.get<std::uint64_t>();
    bag.legacy_lists = b.get<bool>();
    return bag;
  }

 private:
  struct Frame {
    UtsNodeState state;
    int depth = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };
  struct TreeShape {
    UtsShape shape = UtsShape::kGeometric;
    double geo_log_q = 0.0;  ///< uts_geo_log_q(b0), once per tree
    int max_depth = 0;
    int bin_root = 0;
    int bin_m = 0;
    double bin_q = 0.0;
  };
  /// Child count of a node at `depth` whose to_prob() is `u`.
  [[nodiscard]] int num_children(double u, int depth) const;

  std::vector<Frame> frames_;
  TreeShape tree_;
  std::uint64_t nodes_ = 0;
  std::uint64_t hashes_ = 0;
};

/// Distributed UTS via GLB; call from place 0.
UtsResult uts_run(const UtsParams& params, bool verify_sequential = false);

/// Reference sequential traversal (no runtime involvement).
UtsResult uts_sequential(const UtsParams& params);

}  // namespace kernels

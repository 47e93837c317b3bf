#include "kernels/uts/uts.h"

#include <algorithm>
#include <chrono>

#include "runtime/api.h"

namespace kernels {

int UtsBag::num_children(double u, int depth) const {
  if (tree_.shape == UtsShape::kGeometric) {
    return uts_geo_children(u, depth, tree_.geo_log_q, tree_.max_depth);
  }
  return uts_bin_children(u, depth, tree_.bin_root, tree_.bin_m, tree_.bin_q);
}

UtsBag::UtsBag(const UtsParams& params, bool with_root) {
  tree_.shape = params.shape;
  tree_.geo_log_q = uts_geo_log_q(params.b0);
  tree_.max_depth = params.depth;
  tree_.bin_root = params.bin_root;
  tree_.bin_m = params.bin_m;
  tree_.bin_q = params.bin_q;
  legacy_lists = params.glb.legacy;
  if (with_root) {
    const UtsNodeState root = UtsNodeState::root(params.seed);
    nodes_ = 1;  // the root itself
    const int children = num_children(root.to_prob(), 0);
    if (children > 0) {
      frames_.push_back(Frame{root, 0, 0, static_cast<std::uint32_t>(children)});
    }
  }
}

std::size_t UtsBag::process(std::size_t n) {
  // One SHA-1 per node generated (the paper's hash count). The hashes of
  // pending children are independent, so each round gathers up to kLanes of
  // them from the top of the frame stack: whole top frames, popped, then
  // part of the last frame reached. One sha1_spawn_batch call hashes them
  // all, then every child that has children gets a frame. Taking from the
  // top keeps the traversal depth-first and the frame list short.
  Sha1SpawnBatch batch;
  int depth[Sha1SpawnBatch::kLanes] = {};
  std::size_t done = 0;
  while (done < n && !frames_.empty()) {
    const int want = static_cast<int>(
        std::min<std::size_t>(Sha1SpawnBatch::kLanes, n - done));
    int lanes = 0;
    while (lanes < want && !frames_.empty()) {
      Frame& f = frames_.back();
      const std::uint32_t take =
          std::min<std::uint32_t>(want - lanes, f.hi - f.lo);
      for (std::uint32_t i = 0; i < take; ++i, ++lanes) {
        batch.set(lanes, f.state.digest, f.lo + i);
        depth[lanes] = f.depth + 1;
      }
      f.lo += take;
      if (f.lo == f.hi) frames_.pop_back();
    }
    sha1_spawn_batch(batch, lanes);
    for (int k = 0; k < lanes; ++k) {
      // Most children are leaves: count from the last digest word alone and
      // build the full digest only for a frame.
      const int children =
          num_children(UtsNodeState::prob_of(batch.child[4][k]), depth[k]);
      if (children > 0) {
        frames_.push_back(Frame{UtsNodeState{batch.digest(k)}, depth[k], 0,
                                static_cast<std::uint32_t>(children)});
      }
    }
    hashes_ += lanes;
    nodes_ += lanes;
    done += lanes;
  }
  return done;
}

UtsBag UtsBag::split() {
  UtsBag stolen;
  stolen.tree_ = tree_;
  stolen.legacy_lists = legacy_lists;
  if (legacy_lists) {
    // [35]-style: take half the frames as whole entries from the cold end
    // (the shallow, early frames), no interval fragmentation.
    const std::size_t take = frames_.size() / 2;
    if (take == 0) return stolen;
    stolen.frames_.assign(frames_.begin(),
                          frames_.begin() + static_cast<std::ptrdiff_t>(take));
    frames_.erase(frames_.begin(),
                  frames_.begin() + static_cast<std::ptrdiff_t>(take));
    return stolen;
  }
  // Paper §6.1: steal a fragment of *every* interval. Depth-first traversal
  // keeps the frame list short, and fragmenting all levels counters the
  // bias the depth cut-off introduces (shallow siblings root bigger
  // subtrees).
  for (Frame& f : frames_) {
    const std::uint32_t len = f.hi - f.lo;
    if (len < 2) continue;
    const std::uint32_t take = len / 2;
    stolen.frames_.push_back(Frame{f.state, f.depth, f.hi - take, f.hi});
    f.hi -= take;
  }
  return stolen;
}

void UtsBag::merge(UtsBag&& other) {
  if (frames_.empty()) tree_ = other.tree_;
  frames_.insert(frames_.end(), other.frames_.begin(), other.frames_.end());
  // Counters are additive: the initial bag arrives by merge and already
  // accounts for the root node.
  nodes_ += other.nodes_;
  hashes_ += other.hashes_;
  other.frames_.clear();
  other.nodes_ = 0;
  other.hashes_ = 0;
}

std::size_t UtsBag::size() const {
  std::size_t total = 0;
  for (const Frame& f : frames_) total += f.hi - f.lo;
  return total;
}

UtsResult uts_sequential(const UtsParams& params) {
  UtsBag bag(params, /*with_root=*/true);
  const auto t0 = std::chrono::steady_clock::now();
  while (bag.process(1u << 16) > 0) {
  }
  const auto t1 = std::chrono::steady_clock::now();
  UtsResult r;
  r.nodes = bag.nodes();
  r.hashes = bag.hashes();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.mnodes_per_sec = static_cast<double>(r.nodes) / r.seconds / 1e6;
  r.mnodes_per_sec_per_place = r.mnodes_per_sec;
  r.verified = true;
  return r;
}

UtsResult uts_run(const UtsParams& params, bool verify_sequential) {
  using namespace apgas;
  glb::Glb<UtsBag> balancer(params.glb);
  const auto t0 = std::chrono::steady_clock::now();
  balancer.run(UtsBag(params, /*with_root=*/true));
  const auto t1 = std::chrono::steady_clock::now();

  UtsResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (int p = 0; p < num_places(); ++p) {
    r.nodes += balancer.bag_at(p).nodes();
    r.hashes += balancer.bag_at(p).hashes();
    r.steal_attempts += balancer.stats_at(p).steal_attempts;
    r.resuscitations += balancer.stats_at(p).resuscitations;
  }
  r.mnodes_per_sec = static_cast<double>(r.nodes) / r.seconds / 1e6;
  r.mnodes_per_sec_per_place = r.mnodes_per_sec / num_places();
  if (verify_sequential) {
    r.verified = uts_sequential(params).nodes == r.nodes;
  } else {
    r.verified = true;
  }
  return r;
}

}  // namespace kernels

// Figure 1 "UTS" (paper §6.2): weak-scaling traversal rate of geometric
// trees (b0=4, r=19), depth growing with the place count as in the paper
// (14 at one place to 22 at 55,680). Also reports the load-balance quality
// (max/mean nodes per place), which is the hardware-independent shape of the
// paper's 98% parallel efficiency claim.
#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "kernels/util/sha1.h"
#include "kernels/uts/uts.h"
#include "runtime/api.h"

namespace {

// --- socket-mode UTS ----------------------------------------------------------
//
// Under APGAS_BACKEND=socket (apgas_launch) every place is its own process
// and the lifeline GLB traversal runs across them: bags ride the wire
// through their Ser hooks, steals through immediate frames. Place 0 gathers
// the per-place node counts into the "uts.nodes" counter; the launcher's
// metrics aggregation hands the total to this supervising parent, which
// verifies it against the sequential count.

int run_socket_uts() {
  using namespace apgas;
  Config cfg;
  bench::observe(cfg);  // APGAS_PLACES/APGAS_BACKEND/chaos/metrics knobs

  kernels::UtsParams p;
  if (const char* d = std::getenv("APGAS_UTS_DEPTH")) {
    const int v = std::atoi(d);
    if (v > 0) p.depth = v;
  }
  p.glb.chunk = 128;
  const std::uint64_t expected = kernels::uts_sequential(p).nodes;

  const auto t0 = std::chrono::steady_clock::now();
  Runtime::run(cfg, [p] {
    using namespace apgas;
    glb::Glb<kernels::UtsBag> balancer(p.glb);
    balancer.run(kernels::UtsBag(p, true));
    std::uint64_t nodes = 0;
    for (int q = 0; q < num_places(); ++q) nodes += balancer.bag_at(q).nodes();
    Runtime::get().metrics().counter("uts.nodes").fetch_add(
        nodes, std::memory_order_relaxed);
  });
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  // This process is the supervising parent: last_run_metrics() holds the
  // summed per-place counters.
  const auto& m = last_run_metrics();
  const auto it = m.find("uts.nodes");
  const std::uint64_t nodes = it == m.end() ? 0 : it->second;
  const bool verified = nodes == expected;
  bench::header(
      "UTS (geometric) — socket backend, lifeline GLB across place "
      "processes");
  bench::row("%8s %6s %14s %14s %10s", "places", "depth", "nodes", "Mnodes/s",
             "verified");
  bench::row("%8d %6d %14llu %14.3f %10s", cfg.places, p.depth,
             static_cast<unsigned long long>(nodes),
             static_cast<double>(nodes) / secs / 1e6, verified ? "yes" : "NO");
  if (!verified) {
    std::fprintf(stderr, "bench_uts: socket-mode count %llu != sequential "
                 "%llu\n",
                 static_cast<unsigned long long>(nodes),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  using namespace apgas;
  if (Config::from_env().backend == BackendKind::kSocket) {
    return run_socket_uts();
  }
  bench::header("UTS sequential traversal — the per-core node rate");
  bench::row("spawn path (CPUID): %s", kernels::sha1_spawn_path());
  bench::row("%6s %14s %14s", "depth", "nodes", "Mnodes/s");
  for (int depth : {10, 11}) {
    kernels::UtsParams p;
    p.depth = depth;
    kernels::UtsResult best;
    for (int rep = 0; rep < 3; ++rep) {
      const auto r = kernels::uts_sequential(p);
      if (r.mnodes_per_sec > best.mnodes_per_sec) best = r;
    }
    bench::row("%6d %14llu %14.3f", depth,
               static_cast<unsigned long long>(best.nodes),
               best.mnodes_per_sec);
  }
  bench::row("(paper: 10.929 Mnodes/s on one Power7 core, native C SHA-1, "
             "one hash at a time)");

  bench::header("Figure 1 / UTS on geometric trees — weak scaling");
  bench::row("%8s %6s %14s %14s %16s %12s %10s", "places", "depth", "nodes",
             "Mnodes/s", "Mnodes/s/place", "imbalance", "verified");
  for (int places : bench::core_sweep()) {
    Config cfg;
    cfg.places = places;
    cfg.places_per_node = 8;
    Runtime::run(bench::observe(cfg), [&] {
      kernels::UtsParams p;
      // Weak scaling: one extra depth level every 4x places (b0 = 4).
      int extra = 0;
      for (int q = places; q >= 4; q /= 4) ++extra;
      p.depth = 10 + extra;
      p.glb.chunk = 128;

      glb::Glb<kernels::UtsBag> balancer(p.glb);
      const auto t0 = std::chrono::steady_clock::now();
      balancer.run(kernels::UtsBag(p, true));
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();

      std::uint64_t nodes = 0;
      std::uint64_t max_nodes = 0;
      for (int q = 0; q < places; ++q) {
        const auto n = balancer.bag_at(q).nodes();
        nodes += n;
        max_nodes = std::max(max_nodes, n);
      }
      const double mean =
          static_cast<double>(nodes) / static_cast<double>(places);
      const bool verified = kernels::uts_sequential(p).nodes == nodes;
      bench::row("%8d %6d %14llu %14.3f %16.4f %11.2fx %10s", places, p.depth,
                 static_cast<unsigned long long>(nodes), nodes / secs / 1e6,
                 nodes / secs / 1e6 / places,
                 static_cast<double>(max_nodes) / mean,
                 verified ? "yes" : "NO");
    });
    bench::maybe_emit_metrics("uts.geometric.places" + std::to_string(places));
  }
  bench::row("(paper: 10.929 Mnodes/s/core at 1 core -> 10.712 at 55,680"
             " cores, 98%% efficiency; 69.3T nodes in 116s at scale)");

  bench::header("UTS on binomial trees (deep/narrow, §6.1's hard shape)");
  bench::row("%8s %14s %14s %12s %10s", "places", "nodes", "Mnodes/s",
             "imbalance", "verified");
  for (int places : {1, 4, 8}) {
    if (places > bench::cores()) break;
    Config cfg;
    cfg.places = places;
    cfg.places_per_node = 8;
    Runtime::run(bench::observe(cfg), [&] {
      kernels::UtsParams p;
      p.shape = kernels::UtsShape::kBinomial;
      p.bin_root = 2000;
      p.bin_m = 4;
      p.bin_q = 0.246;  // expected size 2000/(1-mq) ~= 120k nodes
      p.glb.chunk = 128;
      glb::Glb<kernels::UtsBag> balancer(p.glb);
      const auto t0 = std::chrono::steady_clock::now();
      balancer.run(kernels::UtsBag(p, true));
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      std::uint64_t nodes = 0;
      std::uint64_t max_nodes = 0;
      for (int q = 0; q < places; ++q) {
        nodes += balancer.bag_at(q).nodes();
        max_nodes = std::max(max_nodes, balancer.bag_at(q).nodes());
      }
      const bool verified = kernels::uts_sequential(p).nodes == nodes;
      bench::row("%8d %14llu %14.3f %11.2fx %10s", places,
                 static_cast<unsigned long long>(nodes), nodes / secs / 1e6,
                 static_cast<double>(max_nodes) * places /
                     static_cast<double>(nodes),
                 verified ? "yes" : "NO");
    });
    bench::maybe_emit_metrics("uts.binomial.places" + std::to_string(places));
  }
  return 0;
}

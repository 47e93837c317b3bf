// The three workloads. Inputs come from the benchmark seed; expected results
// are computed here, before Runtime::run, and every solve is checked against
// them (or against the kernel's own verification where that is cheaper than
// the solve).
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "glb/glb.h"
#include "kernels/bc/bc.h"
#include "kernels/fft/fft.h"
#include "kernels/hpl/hpl.h"
#include "kernels/kmeans/kmeans.h"
#include "kernels/ra/randomaccess.h"
#include "kernels/stream/stream.h"
#include "kernels/sw/smith_waterman.h"
#include "kernels/util/rmat.h"
#include "kernels/uts/uts.h"
#include "runtime/api.h"
#include "runtime/congruent.h"

namespace perfbench {

namespace {

constexpr int kPlaces = 4;

/// splitmix64 step: derives independent input seeds from the benchmark seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- uts-inproc / uts-socket ------------------------------------------------

/// Geometric UTS (b0 = 4, depth cut-off 11) under the lifeline GLB. Tree
/// size varies by orders of magnitude between root seeds, so the root seed is
/// the first one drawn from the benchmark seed whose tree has kTargetNodes
/// nodes within kTolerance; cheap prefix counts screen the candidates before
/// the exact count. The exact count is the expected result of every solve.
class UtsWorkload final : public Workload {
 public:
  static constexpr int kDepth = 11;
  static constexpr double kTargetNodes = 1.0e6;
  static constexpr double kTolerance = 0.03;

  UtsWorkload(std::uint64_t seed, bool socket, bool wrong_expected)
      : socket_(socket) {
    params_.b0 = 4.0;
    params_.depth = kDepth;
    params_.glb.chunk = 128;
    params_.glb.seed = derive(seed, 0);
    for (std::uint64_t i = 0;; ++i) {
      params_.seed = static_cast<std::uint32_t>(derive(seed, 1 + i));
      if (!prefix_fits(5, 0.15) || !prefix_fits(8, 0.04)) continue;
      const kernels::UtsResult full = kernels::uts_sequential(params_);
      if (std::abs(static_cast<double>(full.nodes) / kTargetNodes - 1.0) >
          kTolerance) {
        continue;
      }
      expected_ = full.nodes + (wrong_expected ? 1 : 0);
      sequential_ms_ = full.seconds * 1e3;
      break;
    }
  }

  void configure(apgas::Config& cfg) const override {
    cfg.backend = socket_ ? apgas::BackendKind::kSocket
                          : apgas::BackendKind::kInProc;
    cfg.congruent_bytes = 1u << 20;  // UTS allocates no congruent memory
  }

  bool solve(SpanLog& spans, Record& rec) override {
    glb::Glb<kernels::UtsBag> balancer(params_.glb);
    {
      SpanScope s(spans, Sp::kGlbRun);
      balancer.run(kernels::UtsBag(params_, true));
    }
    std::uint64_t nodes = 0;
    std::uint64_t max_nodes = 0;
    std::uint64_t steals = 0;
    for (int q = 0; q < kPlaces; ++q) {
      const std::uint64_t n = balancer.bag_at(q).nodes();
      nodes += n;
      max_nodes = std::max(max_nodes, n);
      steals += balancer.stats_at(q).steal_attempts;
    }
    rec.add("glb.imbalance", static_cast<double>(max_nodes) * kPlaces /
                                 static_cast<double>(nodes));
    rec.add("glb.steals", static_cast<double>(steals));
    return nodes == expected_;
  }

  [[nodiscard]] double cap_s() const override { return 5.0; }

  void describe(Record& rec) const override {
    rec.add("kernels.uts_sequential_ms", sequential_ms_);
    rec.add("kernels.uts.nodes", static_cast<double>(expected_));
  }

 private:
  /// Whether the tree cut at `depth` predicts a full size within `tol` of
  /// the target (each level multiplies the expected size by b0).
  bool prefix_fits(int depth, double tol) const {
    kernels::UtsParams p = params_;
    p.depth = depth;
    const double prefix = static_cast<double>(kernels::uts_sequential(p).nodes);
    const double growth = (std::pow(4.0, kDepth + 1) - 1.0) /
                          (std::pow(4.0, depth + 1) - 1.0);
    return std::abs(prefix * growth / kTargetNodes - 1.0) <= tol;
  }

  bool socket_;
  kernels::UtsParams params_;
  std::uint64_t expected_ = 0;
  double sequential_ms_ = 0;
};

// --- spmd-kernels -----------------------------------------------------------

/// One fan-out round: a default-protocol finish in which place 0 asyncAt's
/// every place and each of those tasks spawns kLocal empty local asyncs,
/// then a blocking at(1, ...). `ran[q]` counts the asyncs that ran at q.
/// Returns whether every async ran, at its own place, and `at` ran at 1.
constexpr int kLocal = 8;
using Counts = std::array<std::atomic<int>, kPlaces>;

bool fan_out(SpanLog& spans, Counts& ran, int expected_per_place) {
  using namespace apgas;
  Counts* counts = &ran;
  {
    SpanScope f(spans, Sp::kFinish);
    std::int64_t body_end = 0;
    finish(Pragma::kDefault, [&] {
      for (int q = 0; q < kPlaces; ++q) {
        SpanScope a(spans, Sp::kAsyncAt);
        asyncAt(q, [counts, q] {
          const bool right_place = here() == q;
          for (int j = 0; j < kLocal; ++j) {
            async([counts, q, right_place] {
              if (right_place) (*counts)[q].fetch_add(1);
            });
          }
        });
      }
      body_end = now_ns();
    });
    spans.add(Sp::kFinishCloseWait, body_end, now_ns());
  }
  int at_place = -1;
  {
    SpanScope a(spans, Sp::kAt);
    at_place = at(1, [] { return here(); });
  }
  bool ok = at_place == 1;
  for (auto& c : ran) {
    const int n = c.exchange(0);  // reset even after a mismatch
    ok = ok && n == expected_per_place;
  }
  return ok;
}

/// One pass of the seven bulk-synchronous kernels, statically partitioned,
/// closed by one fan-out round. The fan-out costs well under 1% of the pass;
/// it is there so that the spans around asyncAt, at and a default-protocol
/// finish are recorded on a workload whose timings hold steady (as a
/// workload of its own, its latency doubled whenever the host was busy).
class SpmdWorkload final : public Workload {
 public:
  SpmdWorkload(std::uint64_t seed, bool wrong_expected)
      : fan_out_expected_(kLocal + (wrong_expected ? 1 : 0)) {
    // The kernels' default sizes, except RandomAccess (2^13 words per place
    // instead of 2^14) and BC (scale 9 instead of 10): that keeps one pass
    // near 120 ms, so a run holds well over 100 solves.
    ra_.log2_table_per_place = 13;
    kmeans_.seed = derive(seed, 10);
    hpl_.seed = derive(seed, 11);
    sw_.seed = derive(seed, 12);
    bc_.graph.scale = 9;
    bc_.graph.seed = derive(seed, 13);
    bc_.perm_seed = derive(seed, 14);

    // References, computed once: a check that costs more than the solve
    // (sequential SW over the whole string, sequential k-means, sequential
    // Brandes) runs here rather than in every pass.
    const kernels::KmeansResult km =
        kernels::kmeans_sequential(kmeans_, kmeans_.points_per_place * kPlaces);
    kmeans_centroids_ = km.centroids;
    sw_best_ = kernels::sw_scan(kernels::sw_short_seq(sw_), sw_.seed, 0,
                                sw_.long_per_place * kPlaces, sw_.match,
                                sw_.mismatch, sw_.gap) +
               (wrong_expected ? 1 : 0);
    const kernels::CsrGraph g = kernels::rmat_generate(bc_.graph);
    bc_centrality_.assign(static_cast<std::size_t>(g.num_vertices), 0.0);
    for (std::int64_t v = 0; v < g.num_vertices; ++v) {
      kernels::brandes_source(g, static_cast<std::int32_t>(v), bc_centrality_);
    }
  }

  void configure(apgas::Config& cfg) const override {
    cfg.backend = apgas::BackendKind::kInProc;
    // Stream's three arrays plus the FFT staging buffer and the RA table,
    // with slack for alignment; reset between passes.
    cfg.congruent_bytes = 3 * stream_.elements_per_place * sizeof(double) +
                          (4u << 20);
  }

  bool solve(SpanLog& spans, Record& rec) override {
    apgas::Runtime::get().congruent().reset();
    bool ok = true;
    {
      SpanScope s(spans, Sp::kStream);
      const kernels::StreamResult r = kernels::stream_run(stream_);
      ok = ok && r.verified;
      rec.add("kernels.stream.gbs_computed", r.gb_per_sec_total);
    }
    {
      SpanScope s(spans, Sp::kRandomAccess);
      const kernels::RaResult r = kernels::randomaccess_run(ra_);
      ok = ok && r.verified;
      rec.add("kernels.randomaccess.gups", r.gups);
    }
    {
      SpanScope s(spans, Sp::kFft);
      const kernels::FftResult r = kernels::fft_run(fft_);
      ok = ok && r.verified;
      rec.add("kernels.fft.gflops", r.gflops);
    }
    {
      SpanScope s(spans, Sp::kKmeans);
      const kernels::KmeansResult r = kernels::kmeans_run(kmeans_);
      ok = ok && r.verified && close_to(r.centroids, kmeans_centroids_, 1e-9);
    }
    {
      SpanScope s(spans, Sp::kHpl);
      const kernels::HplResult r = kernels::hpl_run(hpl_);
      ok = ok && r.verified;
      rec.add("kernels.hpl.gflops", r.gflops);
    }
    {
      SpanScope s(spans, Sp::kSmithWaterman);
      const kernels::SwResult r = kernels::smith_waterman_run(sw_, false);
      ok = ok && r.best_score == sw_best_;
    }
    {
      SpanScope s(spans, Sp::kBc);
      const kernels::BcResult r = kernels::bc_run(bc_);
      ok = ok && r.verified && close_to(r.centrality, bc_centrality_, 1e-9);
    }
    return fan_out(spans, fan_out_ran_, fan_out_expected_) && ok;
  }

  [[nodiscard]] double cap_s() const override { return 10.0; }

  void describe(Record& rec) const override {
    const double array_bytes =
        static_cast<double>(stream_.elements_per_place * sizeof(double));
    rec.add("kernels.stream.array_mib", array_bytes / (1u << 20));
    rec.add("kernels.stream.total_mib", 3 * array_bytes * kPlaces / (1u << 20));
  }

 private:
  /// Element-wise agreement within `rel` of the reference's magnitude.
  static bool close_to(const std::vector<double>& got,
                       const std::vector<double>& want, double rel) {
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (std::abs(got[i] - want[i]) > rel * std::max(1.0, std::abs(want[i]))) {
        return false;
      }
    }
    return true;
  }

  kernels::StreamParams stream_;
  kernels::RaParams ra_;
  kernels::FftParams fft_;
  kernels::KmeansParams kmeans_;
  kernels::HplParams hpl_;
  kernels::SwParams sw_;
  kernels::BcParams bc_;
  std::vector<double> kmeans_centroids_;
  int sw_best_ = 0;
  std::vector<double> bc_centrality_;
  int fan_out_expected_;
  Counts fan_out_ran_{};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        bool wrong_expected) {
  if (name == "uts-inproc") {
    return std::make_unique<UtsWorkload>(seed, false, wrong_expected);
  }
  if (name == "uts-socket") {
    return std::make_unique<UtsWorkload>(seed, true, wrong_expected);
  }
  if (name == "spmd-kernels") {
    return std::make_unique<SpmdWorkload>(seed, wrong_expected);
  }
  return nullptr;
}

}  // namespace perfbench

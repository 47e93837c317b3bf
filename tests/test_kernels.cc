// End-to-end kernel tests (paper §5-§7): every kernel runs distributed and
// verifies against its reference or invariant.
#include "kernels/bc/bc.h"
#include "kernels/fft/fft.h"
#include "kernels/hpl/hpl.h"
#include "kernels/kmeans/kmeans.h"
#include "kernels/ra/randomaccess.h"
#include "kernels/stream/stream.h"
#include "kernels/sw/smith_waterman.h"
#include "kernels/uts/uts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

namespace {

using namespace apgas;
using namespace kernels;

Config cfg_n(int places) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = 4;
  cfg.congruent_bytes = 64u << 20;
  return cfg;
}

// --- Stream --------------------------------------------------------------------

TEST(StreamKernel, TriadVerifiesOnCongruentMemory) {
  Runtime::run(cfg_n(4), [&] {
    StreamParams p;
    p.elements_per_place = 1u << 16;
    p.iterations = 3;
    auto r = stream_run(p);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.gb_per_sec_total, 0.0);
  });
}

TEST(StreamKernel, HeapVariantMatches) {
  Runtime::run(cfg_n(2), [&] {
    StreamParams p;
    p.elements_per_place = 1u << 14;
    p.use_congruent = false;
    auto r = stream_run(p);
    EXPECT_TRUE(r.verified);
  });
}

// --- RandomAccess ----------------------------------------------------------------

TEST(RaKernel, UpdatesVerifyExactly) {
  Runtime::run(cfg_n(4), [&] {
    RaParams p;
    p.log2_table_per_place = 10;
    auto r = randomaccess_run(p);
    // Our GUPS remote ops are atomic, so verification is exact (the paper's
    // hardware path tolerates <1% loss).
    EXPECT_EQ(r.error_fraction, 0.0);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.updates, 4ull << 12);  // 4 * total table
  });
}

TEST(RaKernel, SinglePlace) {
  Runtime::run(cfg_n(1), [&] {
    RaParams p;
    p.log2_table_per_place = 10;
    auto r = randomaccess_run(p);
    EXPECT_TRUE(r.verified);
  });
}

// --- K-Means ---------------------------------------------------------------------

TEST(KmeansKernel, MatchesSequentialExactly) {
  KmeansParams p;
  p.points_per_place = 500;
  p.clusters = 8;
  p.dim = 4;
  p.iterations = 4;
  KmeansResult seq = kmeans_sequential(p, 500 * 3);
  Runtime::run(cfg_n(3), [&] {
    auto dist = kmeans_run(p);
    ASSERT_EQ(dist.centroids.size(), seq.centroids.size());
    for (std::size_t i = 0; i < seq.centroids.size(); ++i) {
      EXPECT_NEAR(dist.centroids[i], seq.centroids[i], 1e-9);
    }
    ASSERT_EQ(dist.inertia_per_iter.size(), seq.inertia_per_iter.size());
    for (std::size_t i = 0; i < seq.inertia_per_iter.size(); ++i) {
      EXPECT_NEAR(dist.inertia_per_iter[i], seq.inertia_per_iter[i],
                  1e-6 * seq.inertia_per_iter[i]);
    }
  });
}

TEST(KmeansKernel, InertiaMonotone) {
  Runtime::run(cfg_n(4), [&] {
    KmeansParams p;
    p.points_per_place = 800;
    p.clusters = 16;
    p.iterations = 6;
    auto r = kmeans_run(p);
    EXPECT_TRUE(r.verified) << "Lloyd's inertia must not increase";
    EXPECT_EQ(r.inertia_per_iter.size(), 6u);
  });
}

// --- Smith-Waterman -----------------------------------------------------------------

TEST(SwKernel, DistributedMaxEqualsSequential) {
  Runtime::run(cfg_n(4), [&] {
    SwParams p;
    p.short_len = 64;
    p.long_per_place = 3000;
    auto r = smith_waterman_run(p, /*verify=*/true);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.best_score, 0);
  });
}

TEST(SwKernel, StrongMatchFoundAcrossPlaces) {
  // The query is derived from long-sequence positions near the start, owned
  // by place 0; the fragmented scan must still find it wherever it lies.
  Runtime::run(cfg_n(6), [&] {
    SwParams p;
    p.short_len = 48;
    p.long_per_place = 1500;
    auto r = smith_waterman_run(p, /*verify=*/true);
    EXPECT_TRUE(r.verified);
    // ~91% identity copy exists, so the score is near match * len.
    EXPECT_GT(r.best_score, p.match * p.short_len / 2);
  });
}

// --- UTS -------------------------------------------------------------------------

TEST(UtsKernel, SequentialCountsAreDeterministic) {
  UtsParams p;
  p.depth = 6;
  auto a = uts_sequential(p);
  auto b = uts_sequential(p);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.hashes, b.hashes);
  EXPECT_GT(a.nodes, 100u);  // b0=4, d=6 => thousands of nodes typically
}

TEST(UtsKernel, SequentialCountsMatchGolden) {
  // Counts recorded with a byte-wise reference SHA-1 whose root and child
  // digests match Python hashlib (UtsRng.GoldenDigests). Comparing GLB with
  // uts_sequential cannot catch a hash that is wrong but self-consistent;
  // these counts do.
  const std::pair<int, std::uint64_t> kGeometric[] = {
      {6, 1120}, {8, 18796}, {10, 305793}};
  UtsParams p;  // geometric, seed 19, b0 4
  for (const auto& [depth, nodes] : kGeometric) {
    p.depth = depth;
    EXPECT_EQ(uts_sequential(p).nodes, nodes) << "depth " << depth;
  }
  UtsParams bin;
  bin.shape = UtsShape::kBinomial;
  EXPECT_EQ(uts_sequential(bin).nodes, 313u);
}

TEST(UtsKernel, TreeSizeGrowsWithDepth) {
  UtsParams p;
  p.depth = 4;
  const auto small = uts_sequential(p).nodes;
  p.depth = 7;
  const auto big = uts_sequential(p).nodes;
  EXPECT_GT(big, small * 4);
}

TEST(UtsKernel, DistributedCountMatchesSequential) {
  for (int places : {1, 4, 7}) {
    Runtime::run(cfg_n(places), [&] {
      UtsParams p;
      p.depth = 8;
      auto r = uts_run(p, /*verify_sequential=*/true);
      EXPECT_TRUE(r.verified) << places << " places";
      EXPECT_EQ(r.nodes, 18796u) << places << " places";  // golden, seed 19
    });
  }
}

TEST(UtsKernel, LegacySchedulerCountsMatchToo) {
  Runtime::run(cfg_n(4), [&] {
    UtsParams p;
    p.depth = 8;
    p.glb.legacy = true;
    auto r = uts_run(p, /*verify_sequential=*/true);
    EXPECT_TRUE(r.verified);
  });
}

TEST(UtsKernel, HashesEqualNodesMinusRoot) {
  // Every node except the root is generated by exactly one SHA-1.
  UtsParams p;
  p.depth = 7;
  auto r = uts_sequential(p);
  EXPECT_EQ(r.hashes, r.nodes - 1);
}

TEST(UtsKernel, WorkIsActuallyDistributed) {
  Runtime::run(cfg_n(4), [&] {
    UtsParams p;
    p.depth = 10;
    auto r = uts_run(p);
    EXPECT_GT(r.resuscitations + r.steal_attempts, 0u);
  });
}

// --- UtsBag batching -------------------------------------------------------------

TEST(UtsBag, ProcessReturnsMinOfRequestAndRemaining) {
  // Depth 8 of the golden geometric tree: 18,796 nodes, the root included.
  UtsParams p;
  p.depth = 8;
  for (const std::size_t n : {1u, 7u, 15u, 16u, 17u, 128u}) {
    UtsBag bag(p, /*with_root=*/true);
    std::uint64_t remaining = 18796 - 1;
    std::uint64_t returned = 0;
    for (;;) {
      const std::size_t done = bag.process(n);
      ASSERT_EQ(done, std::min<std::uint64_t>(n, remaining)) << "n = " << n;
      if (done == 0) break;
      remaining -= done;
      returned += done;
    }
    EXPECT_TRUE(bag.empty()) << "n = " << n;
    EXPECT_EQ(bag.nodes(), 1 + returned) << "n = " << n;
    EXPECT_EQ(bag.hashes(), bag.nodes() - 1) << "n = " << n;
  }
}

// Two bags trade work the way GLB places do: after every process(17) each
// bag hands a split() of itself to the other.
std::uint64_t split_merge_traversal(const UtsParams& p) {
  UtsBag bags[2] = {UtsBag(p, /*with_root=*/true), UtsBag(p, false)};
  while (!bags[0].empty() || !bags[1].empty()) {
    for (int b = 0; b < 2; ++b) {
      bags[b].process(17);
      bags[1 - b].merge(bags[b].split());
    }
  }
  EXPECT_EQ(bags[0].hashes() + bags[1].hashes(),
            bags[0].nodes() + bags[1].nodes() - 1);
  return bags[0].nodes() + bags[1].nodes();
}

TEST(UtsBag, SplitMergeAfterEveryProcessKeepsGoldenCounts) {
  for (const bool legacy : {false, true}) {
    UtsParams geo;
    geo.depth = 8;
    geo.glb.legacy = legacy;
    EXPECT_EQ(split_merge_traversal(geo), 18796u) << "legacy " << legacy;
    UtsParams bin;
    bin.shape = UtsShape::kBinomial;
    bin.glb.legacy = legacy;
    EXPECT_EQ(split_merge_traversal(bin), 313u) << "legacy " << legacy;
  }
}

// --- FFT -------------------------------------------------------------------------

TEST(FftKernel, GlobalMatchesNaiveDft) {
  Runtime::run(cfg_n(4), [&] {
    constexpr std::size_t kN = 256;
    std::vector<Complex> x(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      x[i] = Complex(std::cos(0.1 * static_cast<double>(i)),
                     std::sin(0.05 * static_cast<double>(i)));
    }
    auto got = fft_global(x);
    auto ref = dft_naive(x.data(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_NEAR(std::abs(got[i] - ref[i]), 0.0, 1e-8) << "bin " << i;
    }
  });
}

TEST(FftKernel, RoundTripVerifiesAtScaleParams) {
  for (int places : {1, 2, 4}) {
    Runtime::run(cfg_n(places), [&] {
      FftParams p;
      p.log2_size = 12;
      auto r = fft_run(p);
      EXPECT_TRUE(r.verified) << places << " places, err "
                              << r.max_roundtrip_error;
      EXPECT_GT(r.gflops, 0.0);
    });
  }
}

TEST(FftKernel, OverlappedTransposeMatches) {
  // The fused FFT+twiddle+RDMA-transpose path (the paper's §5.2 missing
  // overlap experiment) must be numerically identical to the phased path.
  for (int places : {1, 2, 4}) {
    Runtime::run(cfg_n(places), [&] {
      FftParams p;
      p.log2_size = 12;
      p.overlap = true;
      auto r = fft_run(p);
      EXPECT_TRUE(r.verified) << places << " places, err "
                              << r.max_roundtrip_error;
    });
  }
}

TEST(FftKernel, FullStreamSuiteVerifies) {
  Runtime::run(cfg_n(2), [&] {
    StreamParams p;
    p.elements_per_place = 1u << 14;
    p.full_suite = true;
    auto r = stream_run(p);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.copy_gbs, 0.0);
    EXPECT_GT(r.scale_gbs, 0.0);
    EXPECT_GT(r.add_gbs, 0.0);
    EXPECT_GT(r.gb_per_sec_total, 0.0);
  });
}

TEST(HplKernel, DistributedSolveAgreesWithReference) {
  Runtime::run(cfg_n(4), [&] {
    HplParams p;
    p.n = 160;
    p.nb = 16;
    auto r = hpl_run(p);
    EXPECT_LT(r.solve_agreement, 1e-9)
        << "distributed block-fan-in solve drifted from gathered solve";
    EXPECT_TRUE(r.verified);
  });
}

// --- Betweenness Centrality ---------------------------------------------------------

TEST(BcKernel, BrandesMatchesReferenceTinyGraph) {
  RmatParams gp;
  gp.scale = 5;
  gp.edge_factor = 4;
  const auto g = rmat_generate(gp);
  const auto ref = bc_reference(g);
  Runtime::run(cfg_n(3), [&] {
    BcParams p;
    p.graph = gp;
    auto r = bc_run(p);
    ASSERT_EQ(r.centrality.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(r.centrality[i], ref[i], 1e-9) << "vertex " << i;
    }
  });
}

TEST(BcKernel, GlbVariantMatchesStatic) {
  RmatParams gp;
  gp.scale = 7;
  gp.edge_factor = 6;
  std::vector<double> from_static;
  std::vector<double> from_glb;
  std::int64_t edges_static = 0, edges_glb = 0;
  Runtime::run(cfg_n(4), [&] {
    BcParams p;
    p.graph = gp;
    auto r1 = bc_run(p);
    from_static = r1.centrality;
    edges_static = r1.edges_traversed;
    p.use_glb = true;
    auto r2 = bc_run(p);
    from_glb = r2.centrality;
    edges_glb = r2.edges_traversed;
  });
  ASSERT_EQ(from_static.size(), from_glb.size());
  for (std::size_t i = 0; i < from_static.size(); ++i) {
    ASSERT_NEAR(from_static[i], from_glb[i], 1e-9);
  }
  EXPECT_EQ(edges_static, edges_glb);
}

TEST(BcKernel, SourceBudgetLimitsWork) {
  RmatParams gp;
  gp.scale = 7;
  Runtime::run(cfg_n(2), [&] {
    BcParams p;
    p.graph = gp;
    p.sources = 8;
    BcParams full_params;
    full_params.graph = gp;
    auto full = bc_run(full_params);
    auto partial = bc_run(p);
    EXPECT_LT(partial.edges_traversed, full.edges_traversed);
  });
}

// --- HPL -------------------------------------------------------------------------

TEST(HplKernel, SolvesSmallSystemOnePlace) {
  Runtime::run(cfg_n(1), [&] {
    HplParams p;
    p.n = 96;
    p.nb = 16;
    auto r = hpl_run(p);
    EXPECT_TRUE(r.verified) << "residual " << r.residual;
  });
}

TEST(HplKernel, SolvesOn2x2Grid) {
  Runtime::run(cfg_n(4), [&] {
    HplParams p;
    p.n = 128;
    p.nb = 16;
    auto r = hpl_run(p);
    EXPECT_EQ(r.pr, 2);
    EXPECT_EQ(r.pc, 2);
    EXPECT_TRUE(r.verified) << "residual " << r.residual;
  });
}

TEST(HplKernel, NonSquareGridAndRaggedBlocks) {
  Runtime::run(cfg_n(2), [&] {
    HplParams p;
    p.n = 100;  // not a multiple of nb: exercises partial blocks
    p.nb = 16;
    auto r = hpl_run(p);
    EXPECT_TRUE(r.verified) << "residual " << r.residual;
  });
}

TEST(HplKernel, LargerBlockCyclicRun) {
  Runtime::run(cfg_n(4), [&] {
    HplParams p;
    p.n = 192;
    p.nb = 24;
    auto r = hpl_run(p);
    EXPECT_TRUE(r.verified) << "residual " << r.residual;
    EXPECT_GT(r.gflops, 0.0);
  });
}

}  // namespace

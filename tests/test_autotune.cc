// Online tuning controller (docs/transport.md "Adaptive tuning").
//
// The decision rules are pure functions in the `tune` namespace, so the bulk
// of this suite is deterministic arithmetic with no runtime at all. The
// integration half drives an Autotune against a bare x10rt::Transport with
// forced ticks, and one end-to-end test runs a real Runtime with
// APGAS_AUTOTUNE semantics armed.
#include "runtime/autotune.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/api.h"
#include "runtime/runtime.h"

namespace {

using namespace apgas;

// --- tune::Ewma --------------------------------------------------------------

TEST(TuneEwma, FirstSamplePrimes) {
  tune::Ewma e;
  EXPECT_FALSE(e.primed);
  e.add(800);
  EXPECT_TRUE(e.primed);
  EXPECT_EQ(e.value, 800u);
}

TEST(TuneEwma, ConvergesWithGainOneEighth) {
  tune::Ewma e;
  e.add(0);
  e.add(800);  // 0 + 800/8
  EXPECT_EQ(e.value, 100u);
  for (int i = 0; i < 100; ++i) e.add(800);
  // Integer EWMA converges to within rounding of the plateau.
  EXPECT_GE(e.value, 790u);
  EXPECT_LE(e.value, 800u);
}

// --- tune::SrttEstimator -----------------------------------------------------

TEST(TuneSrtt, UnprimedReportsZeroRto) {
  tune::SrttEstimator s;
  EXPECT_EQ(s.rto_us(10, 1000), 0u);
}

TEST(TuneSrtt, FirstSampleSeedsSrttAndHalfVariance) {
  tune::SrttEstimator s;
  s.sample(8000);
  EXPECT_EQ(s.srtt_ns, 8000u);
  EXPECT_EQ(s.rttvar_ns, 4000u);
  // RTO = (8000 + 4*4000)/1000 + 1 = 25us, inside a wide clamp.
  EXPECT_EQ(s.rto_us(1, 1'000'000), 25u);
}

TEST(TuneSrtt, JacobsonKarelsUpdate) {
  tune::SrttEstimator s;
  s.sample(8000);
  s.sample(16000);
  // err = 8000: rttvar = 4000 + (8000-4000)/4 = 5000; srtt = 8000 + 1000.
  EXPECT_EQ(s.srtt_ns, 9000u);
  EXPECT_EQ(s.rttvar_ns, 5000u);
}

TEST(TuneSrtt, SteadySamplesShrinkVariance) {
  tune::SrttEstimator s;
  for (int i = 0; i < 200; ++i) s.sample(10000);
  EXPECT_EQ(s.srtt_ns, 10000u);
  // Integer gain truncation floors the variance decay just above zero.
  EXPECT_LE(s.rttvar_ns, 3u);
  EXPECT_EQ(s.rto_us(1, 1'000'000), 11u);  // (10000 + 4*3)/1000 + 1
}

TEST(TuneSrtt, RtoClampsToFloorAndCeiling) {
  tune::SrttEstimator s;
  s.sample(1000);  // raw RTO ~ 5us
  EXPECT_EQ(s.rto_us(250, 100'000), 250u);
  s.sample(900'000'000);  // raw RTO in the hundreds of ms
  EXPECT_EQ(s.rto_us(250, 100'000), 100'000u);
}

TEST(TuneSrtt, DegenerateCeilingBelowFloorCollapsesToFloor) {
  tune::SrttEstimator s;
  s.sample(50'000'000);
  EXPECT_EQ(s.rto_us(1000, 10), 1000u);
}

// --- tune::coalesce_next_threshold -------------------------------------------

tune::CoalesceWindow window(std::uint64_t size, std::uint64_t count,
                            std::uint64_t idle, std::uint64_t records,
                            std::uint64_t bypasses = 0) {
  tune::CoalesceWindow w;
  w.size_flushes = size;
  w.count_flushes = count;
  w.idle_flushes = idle;
  w.envelopes = size + count + idle;
  w.records = records;
  w.bypasses = bypasses;
  return w;
}

TEST(TuneCoalesce, StaticallyOffStaysOff) {
  tune::Ewma r;
  EXPECT_EQ(tune::coalesce_next_threshold(0, 0, 50'000, r,
                                          window(10, 0, 0, 1000), true),
            0u);
}

TEST(TuneCoalesce, EmptyWindowHolds) {
  tune::Ewma r;
  EXPECT_EQ(tune::coalesce_next_threshold(4096, 4096, 50'000, r,
                                          window(0, 0, 0, 0), true),
            4096u);
}

TEST(TuneCoalesce, ShrinksWhenResidencyExceedsBudget) {
  tune::Ewma r;
  r.add(200'000);  // 200us residency vs 50us budget
  EXPECT_EQ(tune::coalesce_next_threshold(4096, 4096, 50'000, r,
                                          window(10, 0, 0, 1000), true),
            2048u);
  // Shrinking saturates at the floor, never 0 (0 means "static cap").
  EXPECT_EQ(tune::coalesce_next_threshold(1, 4096, 50'000, r,
                                          window(10, 0, 0, 1000), true),
            1u);
}

TEST(TuneCoalesce, CollapsesDegenerateEnvelopesToFloor) {
  tune::Ewma r;
  r.add(1000);  // residency fine
  // Idle-driven flushes, ~1 record per envelope: pure overhead.
  EXPECT_EQ(tune::coalesce_next_threshold(4096, 4096, 50'000, r,
                                          window(0, 0, 10, 10), true),
            tune::kCoalesceFloorBytes);
}

TEST(TuneCoalesce, GrowsWhenSizeFlushesDominateAndResidencyComfortable) {
  tune::Ewma r;
  r.add(10'000);  // 10us <= half of the 50us budget
  EXPECT_EQ(tune::coalesce_next_threshold(64, 4096, 50'000, r,
                                          window(10, 0, 2, 1000), true),
            256u);
  // Growth clamps at the cap.
  EXPECT_EQ(tune::coalesce_next_threshold(2048, 4096, 50'000, r,
                                          window(10, 0, 2, 1000), true),
            4096u);
  // At the cap there is nothing to grow into.
  EXPECT_EQ(tune::coalesce_next_threshold(4096, 4096, 50'000, r,
                                          window(10, 0, 2, 1000), true),
            4096u);
}

TEST(TuneCoalesce, HalfBudgetResidencyBlocksGrowth) {
  tune::Ewma r;
  r.add(40'000);  // 40us: above budget/2, below budget — hold
  EXPECT_EQ(tune::coalesce_next_threshold(64, 4096, 50'000, r,
                                          window(10, 0, 2, 1000), true),
            64u);
}

TEST(TuneCoalesce, ProbesUpFromBypassOnlyWindowOnlyWhenAllowed) {
  tune::Ewma r;
  const auto w = window(0, 0, 0, 0, /*bypasses=*/50);
  EXPECT_EQ(tune::coalesce_next_threshold(1, 4096, 50'000, r, w, false), 1u);
  EXPECT_EQ(tune::coalesce_next_threshold(1, 4096, 50'000, r, w, true),
            tune::kCoalesceProbeBytes);
  // Subsequent probes double; still capped.
  EXPECT_EQ(tune::coalesce_next_threshold(64, 4096, 50'000, r, w, true), 128u);
  EXPECT_EQ(tune::coalesce_next_threshold(4096, 4096, 50'000, r, w, true),
            4096u);
}

TEST(TuneCoalesce, OutOfRangeCurrentSnapsToCap) {
  tune::Ewma r;
  EXPECT_EQ(tune::coalesce_next_threshold(1 << 20, 4096, 50'000, r,
                                          window(0, 0, 0, 0), true),
            4096u);
}

// --- tune::park_next_ceiling -------------------------------------------------

TEST(TunePark, QuietWindowHolds) {
  EXPECT_EQ(tune::park_next_ceiling(100, 1, 200, 0, 0), 100u);
}

TEST(TunePark, WorkDominatedHalves) {
  EXPECT_EQ(tune::park_next_ceiling(200, 1, 200, 40, 10), 100u);
  EXPECT_EQ(tune::park_next_ceiling(1, 1, 200, 40, 0), 1u);  // floor
}

TEST(TunePark, IdleDominatedDoubles) {
  EXPECT_EQ(tune::park_next_ceiling(50, 1, 200, 3, 10), 100u);
  EXPECT_EQ(tune::park_next_ceiling(200, 1, 200, 0, 10), 200u);  // ceiling
}

TEST(TunePark, MixedWindowHolds) {
  // work >= idle but < 4x idle: neither rule fires.
  EXPECT_EQ(tune::park_next_ceiling(100, 1, 200, 20, 10), 100u);
}

TEST(TunePark, ClampsCurrentIntoBand) {
  EXPECT_EQ(tune::park_next_ceiling(1000, 1, 200, 0, 0), 200u);
  EXPECT_EQ(tune::park_next_ceiling(0, 5, 200, 0, 0), 5u);
}

// --- Autotune against a bare transport ---------------------------------------

struct BareHarness {
  x10rt::TransportConfig tc;
  std::unique_ptr<Autotune> at;
  std::unique_ptr<x10rt::Transport> tr;
  int am_nop = -1;

  explicit BareHarness(Autotune::Knobs kn, std::size_t coalesce_bytes,
                       std::uint64_t retx_timeout_us = 0) {
    tc.places = 2;
    tc.coalesce_bytes = coalesce_bytes;
    tc.retx_timeout_us = retx_timeout_us;
    at = std::make_unique<Autotune>(tc.places, kn);
    Autotune* a = at.get();
    tc.flush_hook = [a](int src, int dst, std::uint32_t records,
                        x10rt::FlushReason reason, std::uint64_t residency) {
      a->on_flush(src, dst, records, reason, residency);
    };
    tc.rtt_sample_hook = [a](int src, int dst, std::uint64_t rtt_ns) {
      a->on_rtt_sample(src, dst, rtt_ns);
    };
    tr = std::make_unique<x10rt::Transport>(tc);
    at->attach_transport(tr.get());
    am_nop = tr->register_am([](x10rt::ByteBuffer&) {});
  }

  void send_small(int n = 1) {
    for (int i = 0; i < n; ++i) {
      x10rt::ByteBuffer buf;
      buf.put<std::uint64_t>(0xabcdef);
      tr->send_am(0, 1, am_nop, std::move(buf));
    }
  }

  std::size_t drain(int place) {
    std::size_t n = 0;
    while (auto m = tr->poll(place)) {
      tr->dispatch(place, *m);
      ++n;
    }
    return n;
  }
};

Autotune::Knobs coalesce_knobs(std::uint64_t budget_us,
                               std::uint64_t probe_period = 1u << 30) {
  Autotune::Knobs kn;
  kn.residency_budget_us = budget_us;
  kn.coalesce_bytes_cap = 4096;
  kn.probe_period = probe_period;  // default: probes effectively off
  return kn;
}

TEST(AutotuneTransport, ShrinksThresholdWhenResidencyOverBudget) {
  // Budget 0: any measured residency is over budget -> halve per window.
  BareHarness h(coalesce_knobs(0), 4096);
  EXPECT_EQ(h.tr->coalesce_threshold(0, 1), 4096u);
  h.send_small();
  EXPECT_EQ(h.tr->flush_coalesced(0), 1u);
  h.at->tick(0);
  EXPECT_EQ(h.tr->coalesce_threshold(0, 1), 2048u);
  EXPECT_EQ(h.at->adjust_down(), 1u);
  // No new evidence: the next tick holds.
  h.at->tick(0);
  EXPECT_EQ(h.tr->coalesce_threshold(0, 1), 2048u);
  EXPECT_EQ(h.at->adjust_down(), 1u);
  h.drain(1);
}

TEST(AutotuneTransport, CollapsesDegenerateCoalescingAndDivertsDirect) {
  // Comfortable budget, but every envelope is one idle-flushed record:
  // coalescing is pure overhead and collapses to the floor in one tick.
  BareHarness h(coalesce_knobs(1'000'000), 4096);
  h.send_small();
  EXPECT_EQ(h.tr->flush_coalesced(0), 1u);
  h.at->tick(0);
  EXPECT_EQ(h.tr->coalesce_threshold(0, 1), tune::kCoalesceFloorBytes);
  // The pair now sends direct: delivery without any flush, and the bypass
  // tally (the controller's probe-up signal) advances.
  const std::uint64_t bypass_before = h.tr->coalesce_dyn_bypass(0, 1);
  h.send_small();
  // 3 inbox messages: the first envelope's delivery, the record it
  // re-enqueues (records run from the inbox, never inline), the divert.
  EXPECT_EQ(h.drain(1), 3u);
  EXPECT_GT(h.tr->coalesce_dyn_bypass(0, 1), bypass_before);
}

TEST(AutotuneTransport, RushProbesOnBypassRateJumpAndGrowsBack) {
  // Collapse first, prime the divert baseline with steady collapsed windows,
  // then more than double the rate: the rush probe must fire on that tick
  // (no waiting for the safety cadence) and growth climbs back to the cap.
  BareHarness h(coalesce_knobs(1'000'000, 1), 4096);
  h.send_small();
  h.tr->flush_coalesced(0);
  h.at->tick(0);
  ASSERT_EQ(h.tr->coalesce_threshold(0, 1), tune::kCoalesceFloorBytes);
  for (int round = 0; round < 3; ++round) {
    h.send_small(100);
    h.drain(1);
    h.at->tick(0);
    EXPECT_EQ(h.tr->coalesce_threshold(0, 1), tune::kCoalesceFloorBytes);
  }
  // 300 diverts > 2 * max(baseline=100, kProbeRushMinBypasses) -> rush.
  h.send_small(300);
  h.drain(1);
  h.at->tick(0);
  EXPECT_EQ(h.tr->coalesce_threshold(0, 1), tune::kCoalesceProbeBytes);
  // Now small records coalesce again; size-flushes dominate -> x4 per window
  // until the static cap.
  for (int round = 0; round < 4; ++round) {
    h.send_small(64);
    h.tr->flush_coalesced(0);
    h.drain(1);
    h.at->tick(0);
  }
  EXPECT_EQ(h.tr->coalesce_threshold(0, 1), 4096u);
  EXPECT_GT(h.at->adjust_up(), 0u);
}

TEST(AutotuneTransport, SafetyProbeFiresOnlyAfterSlowCadence) {
  // A steady trickle of diverts (no rate jump) must hold the floor until
  // probe_period * kProbeSlowFactor ticks have passed since the collapse,
  // then probe once — the bound on ignoring a flood that matches the old
  // latency phase's send rate.
  BareHarness h(coalesce_knobs(1'000'000, 1), 4096);
  h.send_small();
  h.tr->flush_coalesced(0);
  h.at->tick(0);
  ASSERT_EQ(h.tr->coalesce_threshold(0, 1), tune::kCoalesceFloorBytes);
  int probe_tick = -1;
  for (int t = 1; t <= 2 * static_cast<int>(tune::kProbeSlowFactor); ++t) {
    h.send_small(8);
    h.drain(1);
    h.at->tick(0);
    if (h.tr->coalesce_threshold(0, 1) != tune::kCoalesceFloorBytes) {
      probe_tick = t;
      break;
    }
  }
  EXPECT_EQ(probe_tick, static_cast<int>(tune::kProbeSlowFactor));
  EXPECT_EQ(h.tr->coalesce_threshold(0, 1), tune::kCoalesceProbeBytes);
}

TEST(AutotuneTransport, AdaptiveRtoReachesFloorOnFastAcks) {
  Autotune::Knobs kn;
  kn.coalesce_bytes_cap = 0;
  kn.retx_timeout_us = 100'000;      // static anchor
  kn.retx_backoff_max_us = 50'000;   // ceil = max(100ms, 50ms) = 100ms
  BareHarness h(kn, /*coalesce_bytes=*/0, /*retx_timeout_us=*/100'000);
  ASSERT_TRUE(h.tr->reliability_enabled());
  EXPECT_EQ(h.tr->retx_rto_us(0, 1), 100'000u);  // static until adjusted
  h.send_small(4);
  EXPECT_EQ(h.drain(1), 4u);
  h.tr->retx_pump(1, /*force=*/true);  // standalone ack back to 0
  h.drain(0);                          // admission processes the ack
  EXPECT_GE(h.at->rtt_samples(), 1u);
  h.at->tick(0);
  EXPECT_EQ(h.at->rto_updates(), 1u);
  // In-process acks return in microseconds; RTO clamps to the floor
  // (retx_timeout_us / 4).
  EXPECT_EQ(h.tr->retx_rto_us(0, 1), 25'000u);
  EXPECT_TRUE(h.tr->retx_quiescent());
}

TEST(AutotuneTransport, PairDiagReportsAdjustedPairs) {
  BareHarness h(coalesce_knobs(0), 4096);
  EXPECT_TRUE(h.at->pair_diag(0).empty());
  h.send_small();
  h.tr->flush_coalesced(0);
  h.at->tick(0);
  const auto diag = h.at->pair_diag(0);
  ASSERT_EQ(diag.size(), 1u);
  EXPECT_EQ(diag[0].dst, 1);
  EXPECT_EQ(diag[0].threshold, 2048u);
  EXPECT_GT(diag[0].residency_ewma_ns, 0u);
  h.drain(1);
}

TEST(AutotuneTransport, AdjustHookSeesEveryAdjustment) {
  BareHarness h(coalesce_knobs(0), 4096);
  std::vector<std::uint64_t> values;
  h.at->set_adjust_hook([&](int place, int dst, Autotune::Knob knob,
                            std::uint64_t value) {
    EXPECT_EQ(place, 0);
    EXPECT_EQ(dst, 1);
    EXPECT_EQ(knob, Autotune::Knob::kCoalesce);
    values.push_back(value);
  });
  for (int i = 0; i < 3; ++i) {
    h.send_small();
    h.tr->flush_coalesced(0);
    h.at->tick(0);
  }
  EXPECT_EQ(values, (std::vector<std::uint64_t>{2048, 1024, 512}));
  h.drain(1);
}

TEST(AutotuneTransport, MixedPhasesLoseNothingWhileThresholdMoves) {
  // Alternating flood bursts and window-1 round trips: the pingpong phase
  // collapses the pair's threshold and later floods run against the moved
  // one. Every flood record and every reply must arrive across each move.
  BareHarness h(coalesce_knobs(1'000'000, 1), 4096);
  long floods = 0;
  long pongs = 0;
  const int am_flood =
      h.tr->register_am([&floods](x10rt::ByteBuffer&) { ++floods; });
  const int am_pong =
      h.tr->register_am([&pongs](x10rt::ByteBuffer&) { ++pongs; });
  x10rt::Transport& tr = *h.tr;
  const int am_ping = tr.register_am([&tr, am_pong](x10rt::ByteBuffer& buf) {
    x10rt::ByteBuffer b;
    b.put(buf.get<std::uint64_t>());
    tr.send_am(1, 0, am_pong, std::move(b));
  });
  constexpr int kCycles = 3, kFlood = 2000, kPings = 200;
  for (int c = 0; c < kCycles; ++c) {
    for (int i = 0; i < kFlood; ++i) {
      x10rt::ByteBuffer b;
      b.put(static_cast<std::uint64_t>(i));
      tr.send_am(0, 1, am_flood, std::move(b));
    }
    tr.flush_coalesced(0, x10rt::FlushReason::kIdle);
    h.drain(1);
    h.at->tick(0);
    for (int i = 0; i < kPings; ++i) {
      x10rt::ByteBuffer b;
      b.put(static_cast<std::uint64_t>(i));
      tr.send_am(0, 1, am_ping, std::move(b));
      tr.flush_coalesced(0, x10rt::FlushReason::kIdle);
      h.drain(1);
      tr.flush_coalesced(1, x10rt::FlushReason::kIdle);
      h.drain(0);
    }
    h.at->tick(0);
    h.at->tick(1);
  }
  EXPECT_EQ(floods, long{kCycles} * kFlood);
  EXPECT_EQ(pongs, long{kCycles} * kPings);
  EXPECT_GT(h.at->adjust_down(), 0u);
}

TEST(AutotuneTransport, MaybeTickIsTimeGated) {
  BareHarness h(coalesce_knobs(0), 4096);
  // A burst of maybe_tick calls inside one interval coalesces to one tick.
  for (int i = 0; i < 100; ++i) h.at->maybe_tick(0);
  EXPECT_LE(h.at->ticks(), 2u);
}

// --- end-to-end: a Runtime with the controller armed -------------------------

TEST(AutotuneRuntime, ArmedRunCompletesAndExportsGauges) {
  Config cfg;
  cfg.places = 4;
  cfg.autotune = 1;
  cfg.coalesce_bytes = 4096;
  cfg.retx_timeout_us = 1000;
  Runtime::run(cfg, [] {
    for (int round = 0; round < 50; ++round) {
      finish([&] {
        for (int p = 0; p < num_places(); ++p) {
          asyncAt(p, [] {});
        }
      });
    }
  });
  const auto& m = last_run_metrics();
  ASSERT_TRUE(m.count("autotune.ticks"));
  EXPECT_GT(m.at("autotune.ticks"), 0u);
  ASSERT_TRUE(m.count("autotune.rtt_samples"));
  // Retx acks flow constantly under finish traffic; the estimators must have
  // been fed.
  EXPECT_GT(m.at("autotune.rtt_samples"), 0u);
}

TEST(AutotuneRuntime, DisabledRunExportsNoAutotuneMetrics) {
  Config cfg;
  cfg.places = 2;
  cfg.autotune = 0;
  Runtime::run(cfg, [] {
    finish([&] { asyncAt(1, [] {}); });
  });
  for (const auto& [k, v] : last_run_metrics()) {
    EXPECT_EQ(k.rfind("autotune.", 0), std::string::npos)
        << k << " exported by a run with the controller off";
  }
}

}  // namespace

// Unit tests for the distributed-telemetry building blocks: the Cristian
// clock-offset estimator and drift model (clocksync.h), the telemetry frame
// helpers (telemetry.h), the trace blob codec, and the merged Perfetto
// exporter's happened-before clamping (trace.h). All pure functions — no
// sockets, no forks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "runtime/clocksync.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"

namespace apgas {
namespace {

using clocksync::DriftModel;
using clocksync::Estimate;
using clocksync::Sample;

// --- offset estimation -------------------------------------------------------

TEST(ClockSync, SymmetricRoundRecoversExactOffset) {
  // Child clock runs 500ns behind the supervisor; wire delay 100ns each way.
  // t0=1000 (sup), child reads remote = (1100 - 500) = 600, t1=1200.
  const Estimate e = clocksync::estimate({{1000, 1200, 600}});
  ASSERT_TRUE(e.valid);
  EXPECT_EQ(e.offset_ns, 500);  // sup = child + 500
  EXPECT_EQ(e.rtt_ns, 200u);
  EXPECT_EQ(e.remote_ref_ns, 600u);
}

TEST(ClockSync, MinRttSampleWins) {
  // Three rounds; the middle one has the tightest RTT and a distinct echo,
  // so its midpoint must be the one used.
  const std::vector<Sample> rounds = {
      {1000, 3000, 1500},  // rtt 2000
      {5000, 5100, 5050},  // rtt 100  <- chosen: offset = 5050-5050 = 0
      {9000, 9900, 9000},  // rtt 900
  };
  const Estimate e = clocksync::estimate(rounds);
  ASSERT_TRUE(e.valid);
  EXPECT_EQ(e.rtt_ns, 100u);
  EXPECT_EQ(e.offset_ns, 0);
  EXPECT_EQ(e.remote_ref_ns, 5050u);
}

TEST(ClockSync, AsymmetricJitterErrorBoundedByHalfRtt) {
  // True offset 0, but the reply leg is slower than the request leg: the
  // echo was taken at sup-time 1010 while the midpoint assumption says 1200.
  // The estimator's error must stay within rtt/2.
  const Estimate e = clocksync::estimate({{1000, 1400, 1010}});
  ASSERT_TRUE(e.valid);
  EXPECT_LE(std::abs(e.offset_ns - 0), static_cast<std::int64_t>(e.rtt_ns / 2));
}

TEST(ClockSync, TornAndEmptySamplesAreRejected) {
  EXPECT_FALSE(clocksync::estimate({}).valid);
  // t1 < t0: a torn read; the only sample, so the estimate is invalid.
  EXPECT_FALSE(clocksync::estimate({{2000, 1000, 1500}}).valid);
  // ...but a torn sample next to a good one is just skipped.
  const Estimate e = clocksync::estimate({{2000, 1000, 1500}, {1000, 1200, 600}});
  ASSERT_TRUE(e.valid);
  EXPECT_EQ(e.offset_ns, 500);
}

// --- drift model -------------------------------------------------------------

TEST(ClockSync, DriftModelInterpolatesBetweenEstimates) {
  // Offset grows 1000ns over 1e9ns of child time => drift 1e-6 (1 ppm).
  Estimate a{1000, 100, 1'000'000'000, true};
  Estimate b{2000, 100, 2'000'000'000, true};
  const DriftModel m = clocksync::drift_model(a, b);
  EXPECT_EQ(m.offset_ns, 1000);
  EXPECT_EQ(m.remote_ref_ns, 1'000'000'000u);
  EXPECT_NEAR(m.drift, 1e-6, 1e-12);
  // Rebase at the second reference instant lands on offset b exactly.
  EXPECT_EQ(clocksync::rebase_ns(m, 2'000'000'000u),
            static_cast<std::int64_t>(2'000'000'000) + 2000);
  // Halfway: offset 1500.
  EXPECT_EQ(clocksync::rebase_ns(m, 1'500'000'000u),
            static_cast<std::int64_t>(1'500'000'000) + 1500);
}

TEST(ClockSync, ImplausibleDriftClampsToZero) {
  // 1ms of offset change over 100us of elapsed child time: 1e4 ppm — noise.
  Estimate a{0, 100, 1'000'000, true};
  Estimate b{1'000'000, 100, 1'100'000, true};
  const DriftModel m = clocksync::drift_model(a, b);
  EXPECT_EQ(m.drift, 0.0);
  EXPECT_EQ(m.offset_ns, 0);  // falls back to the earlier estimate
}

TEST(ClockSync, DriftModelDegradesWhenAnEstimateIsInvalid) {
  Estimate good{750, 100, 5000, true};
  Estimate bad;  // !valid
  DriftModel m = clocksync::drift_model(good, bad);
  EXPECT_EQ(m.drift, 0.0);
  EXPECT_EQ(m.offset_ns, 750);
  m = clocksync::drift_model(bad, good);
  EXPECT_EQ(m.offset_ns, 750);
  m = clocksync::drift_model(bad, bad);
  EXPECT_EQ(m.offset_ns, 0);  // identity
  EXPECT_EQ(clocksync::rebase_ns(m, 1234u), 1234);
}

// --- offset table + aligned latency -----------------------------------------

TEST(ClockSync, OffsetTableArmsAndAligns) {
  clocksync::clear_offsets();
  EXPECT_FALSE(clocksync::armed());
  EXPECT_EQ(clocksync::offset_ns(0), 0);

  // Place 0 runs 100ns ahead of the supervisor, place 1 runs 300ns behind.
  clocksync::set_offsets({-100, 300});
  EXPECT_TRUE(clocksync::armed());
  EXPECT_EQ(clocksync::offset_ns(0), -100);
  EXPECT_EQ(clocksync::offset_ns(1), 300);
  EXPECT_EQ(clocksync::offset_ns(7), 0);  // out of range

  // send at place 0's 1000 (sup 900), recv at place 1's 800 (sup 1100):
  // true latency 200ns. The raw difference would be 800-1000 (wraparound).
  EXPECT_EQ(clocksync::aligned_ship_ns(800, 1, 1000, 0), 200u);
  // Residual error can push the difference negative; clamp to 1.
  EXPECT_EQ(clocksync::aligned_ship_ns(500, 1, 1000, 0), 1u);
  clocksync::clear_offsets();
  EXPECT_FALSE(clocksync::armed());
}

// --- telemetry frames --------------------------------------------------------

TEST(Telemetry, PrefixParsingAndSelection) {
  const auto defaults = telemetry::parse_key_prefixes("");
  EXPECT_FALSE(defaults.empty());
  EXPECT_TRUE(telemetry::key_selected("sched.p0.steals", defaults));
  EXPECT_TRUE(telemetry::key_selected("hist.task.exec_ns.p99", defaults));
  // Team latency histograms exist but stay out of the default set.
  EXPECT_FALSE(
      telemetry::key_selected("hist.team.op_ns.barrier.p99", defaults));

  const auto custom = telemetry::parse_key_prefixes("glb.,hist.team.");
  ASSERT_EQ(custom.size(), 2u);
  EXPECT_TRUE(telemetry::key_selected("hist.team.op_ns.barrier.p99", custom));
  EXPECT_FALSE(telemetry::key_selected("sched.p0.steals", custom));
}

TEST(Telemetry, FrameEmitsDeltasAndAbsolutes) {
  const std::vector<std::string> prefixes = {"sched.", "hist.task."};
  std::map<std::string, std::uint64_t> prev;
  const std::map<std::string, std::uint64_t> snap1 = {
      {"sched.p0.steals", 5},
      {"sched.p0.idle", 0},                // zero delta -> omitted
      {"hist.task.exec_ns.p99", 4200},     // absolute
      {"hist.team.op_ns.barrier.p99", 9},  // absolute, but not selected
  };
  const std::string f1 = telemetry::make_frame(2, 0, 1234, snap1, prefixes,
                                               prev);
  EXPECT_NE(f1.find("\"place\":2"), std::string::npos);
  EXPECT_NE(f1.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(f1.find("\"t_ms\":1234"), std::string::npos);
  EXPECT_NE(f1.find("\"sched.p0.steals\":5"), std::string::npos);
  EXPECT_EQ(f1.find("sched.p0.idle"), std::string::npos);
  EXPECT_EQ(f1.find("hist.team.op_ns"), std::string::npos);
  EXPECT_NE(f1.find("\"hist.task.exec_ns.p99\":4200"), std::string::npos);

  // Second frame: steals moved 5 -> 3 (a gauge going down) => delta -2;
  // the percentile stays absolute, not differenced.
  const std::map<std::string, std::uint64_t> snap2 = {
      {"sched.p0.steals", 3},
      {"hist.task.exec_ns.p99", 4100},
  };
  const std::string f2 = telemetry::make_frame(2, 1, 2234, snap2, prefixes,
                                               prev);
  EXPECT_NE(f2.find("\"sched.p0.steals\":-2"), std::string::npos);
  EXPECT_NE(f2.find("\"hist.task.exec_ns.p99\":4100"), std::string::npos);
}

TEST(Telemetry, WatchdogWrapEscapesReport) {
  const std::string line =
      telemetry::wrap_watchdog(1, 99, "stall:\n  \"inbox\"=3\t\\x");
  EXPECT_NE(line.find("\"place\":1"), std::string::npos);
  EXPECT_NE(line.find("\"watchdog\":\"stall:\\n  \\\"inbox\\\"=3\\t\\\\x\""),
            std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // stays one JSONL line
}

// --- trace blob codec --------------------------------------------------------

TEST(TraceCodec, RoundTrips) {
  std::vector<trace::Event> evs;
  evs.push_back({100, trace::Ev::kActivitySpawn, 0, 0xabcdef, (1ull << 32) | 1});
  evs.push_back({250, trace::Ev::kActivityBegin, 1, 0xabcdef, 7});
  evs.push_back({900, trace::Ev::kActivityEnd, 1, 0xabcdef, 0});

  const std::string blob = trace::encode_events(5'000'000'000ull, evs);
  std::uint64_t epoch = 0;
  std::vector<trace::Event> back;
  ASSERT_TRUE(trace::decode_events(blob, epoch, back));
  EXPECT_EQ(epoch, 5'000'000'000ull);
  ASSERT_EQ(back.size(), evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(back[i].t_ns, evs[i].t_ns);
    EXPECT_EQ(back[i].kind, evs[i].kind);
    EXPECT_EQ(back[i].place, evs[i].place);
    EXPECT_EQ(back[i].a, evs[i].a);
    EXPECT_EQ(back[i].b, evs[i].b);
  }
}

TEST(TraceCodec, RejectsMalformedBlobs) {
  std::uint64_t epoch = 77;
  std::vector<trace::Event> out;
  EXPECT_FALSE(trace::decode_events("", epoch, out));
  EXPECT_FALSE(trace::decode_events("garbage-not-a-blob", epoch, out));
  // Truncated valid blob.
  const std::string blob = trace::encode_events(
      1, {{100, trace::Ev::kMsgSend, 0, 1, 2}});
  EXPECT_FALSE(
      trace::decode_events(blob.substr(0, blob.size() - 3), epoch, out));
  // Outputs untouched on failure.
  EXPECT_EQ(epoch, 77u);
  EXPECT_TRUE(out.empty());
}

// --- merged exporter ---------------------------------------------------------

TEST(MergedTrace, ClampsBeginsOntoRemoteSpawnAndEmitsProcessRows) {
  // Place 0 spawns span 0x42 at t=1000 destined for place 1 (remote bit
  // set); place 1's begin lands at t=400 — before the spawn, as residual
  // clock error can produce. The exporter must shift the begin/end pair
  // onto the spawn instant so the flow arrow points forward.
  trace::ProcEvents p0;
  p0.place = 0;
  p0.events.push_back(
      {1000, trace::Ev::kActivitySpawn, 0, 0x42, (1ull << 32) | 1});
  trace::ProcEvents p1;
  p1.place = 1;
  p1.events.push_back({400, trace::Ev::kActivityBegin, 1, 0x42, 0});
  p1.events.push_back({600, trace::Ev::kActivityEnd, 1, 0x42, 0});

  std::uint64_t clamped = 0;
  const std::string json = trace::chrome_json_merged({p0, p1}, &clamped);
  EXPECT_EQ(clamped, 1u);
  // Per-place process rows.
  EXPECT_NE(json.find("\"args\":{\"name\":\"place 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"place 1\"}"), std::string::npos);
  // Flow pair present, both halves keyed by the span id.
  EXPECT_NE(json.find("\"ph\":\"s\",\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x42\""), std::string::npos);
  // The begin was shifted onto the spawn instant. The global base is the
  // pre-clamp minimum (the begin's raw 400), so spawn and begin both land
  // at 1000 - 400 = 600ns => ts 0.600us, and the arrow has zero extent
  // instead of pointing backwards.
  EXPECT_NE(json.find("\"ph\":\"s\",\"ts\":0.600"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"ts\":0.600"), std::string::npos);
}

TEST(MergedTrace, WellOrderedInputNeedsNoClamping) {
  trace::ProcEvents p0;
  p0.place = 0;
  p0.events.push_back(
      {1000, trace::Ev::kActivitySpawn, 0, 0x7, (1ull << 32) | 1});
  trace::ProcEvents p1;
  p1.place = 1;
  p1.events.push_back({1500, trace::Ev::kActivityBegin, 1, 0x7, 0});
  p1.events.push_back({2000, trace::Ev::kActivityEnd, 1, 0x7, 0});

  std::uint64_t clamped = 99;
  const std::string json = trace::chrome_json_merged({p0, p1}, &clamped);
  EXPECT_EQ(clamped, 0u);
  EXPECT_NE(json.find("\"id\":\"0x7\""), std::string::npos);
}

}  // namespace
}  // namespace apgas

// Unit tests for the distributed-telemetry building blocks: the telemetry
// frame helpers (telemetry.h), the trace blob codec, and the merged Perfetto
// exporter (trace.h). All pure functions — no sockets, no forks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "runtime/telemetry.h"
#include "runtime/trace.h"

namespace apgas {
namespace {

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

/// The "ts" of the first event named `name` with phase `ph`, or -1.
double ts_of(const std::string& json, const std::string& name,
             const std::string& ph) {
  const std::string key =
      "{\"name\":\"" + name + "\",\"ph\":\"" + ph + "\",\"ts\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

TEST(MergedTrace, EmitsEveryEventAtEpochPlusOffsetWithProcessRowsAndFlows) {
  // Two place processes whose recorders started at different instants of
  // the shared host clock. Place 0 spawns span 0x42 at epoch 10,000 + 1,000;
  // place 1 (epoch 10,500) begins it at +700 and ends it at +900. Absolute
  // times are 11,000 / 11,200 / 11,400, and the base is the earliest of
  // them, so the emitted ts are 0, 0.200 and 0.400 us.
  trace::ProcEvents p0;
  p0.place = 0;
  p0.epoch_ns = 10'000;
  p0.events.push_back(
      {1000, trace::Ev::kActivitySpawn, 0, 0x42, (1ull << 32) | 1});
  trace::ProcEvents p1;
  p1.place = 1;
  p1.epoch_ns = 10'500;
  p1.events.push_back({700, trace::Ev::kActivityBegin, 1, 0x42, 0});
  p1.events.push_back({900, trace::Ev::kActivityEnd, 1, 0x42, 0});

  const std::string json = trace::chrome_json_merged({p0, p1});
  // Per-place process rows.
  EXPECT_NE(json.find("\"args\":{\"name\":\"place 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"place 1\"}"), std::string::npos);
  // Flow pair present, both halves keyed by the span id: the start sits on
  // the spawn, the finish on the begin, and it points forward.
  EXPECT_NE(json.find("\"id\":\"0x42\""), std::string::npos);
  EXPECT_DOUBLE_EQ(ts_of(json, "activity.spawn", "s"), 0.0) << json;
  EXPECT_DOUBLE_EQ(ts_of(json, "activity.spawn", "f"), 0.2) << json;
  // Every event at epoch + t_ns - base, nothing shifted or reordered.
  EXPECT_DOUBLE_EQ(ts_of(json, "activity", "B"), 0.2) << json;
  EXPECT_DOUBLE_EQ(ts_of(json, "activity", "E"), 0.4) << json;
}

TEST(MergedTrace, WellOrderedInputNeedsNoClamping) {
  // Input whose flow already points forward comes out exactly as stamped:
  // the spawn at 0 and the begin 500 ns later, one arrow between them.
  trace::ProcEvents p0;
  p0.place = 0;
  p0.events.push_back(
      {1000, trace::Ev::kActivitySpawn, 0, 0x7, (1ull << 32) | 1});
  trace::ProcEvents p1;
  p1.place = 1;
  p1.events.push_back({1500, trace::Ev::kActivityBegin, 1, 0x7, 0});
  p1.events.push_back({2000, trace::Ev::kActivityEnd, 1, 0x7, 0});

  const std::string json = trace::chrome_json_merged({p0, p1});
  EXPECT_NE(json.find("\"id\":\"0x7\""), std::string::npos);
  EXPECT_DOUBLE_EQ(ts_of(json, "activity.spawn", "s"), 0.0) << json;
  EXPECT_DOUBLE_EQ(ts_of(json, "activity.spawn", "f"), 0.5) << json;
  EXPECT_DOUBLE_EQ(ts_of(json, "activity", "E"), 1.0) << json;
}

}  // namespace
}  // namespace apgas

// End-to-end apgas_launch tests (ISSUE 6 satellite): the launcher binary
// runs a real multi-process job — fork, socket mesh, teardown barrier,
// metrics aggregation, exit-status aggregation — and the crash-fault path
// SIGKILLs one place mid-run and must report the failed place with a nonzero
// exit instead of hanging on the barrier. The telemetry-plane tests drive
// the same binaries with tracing/telemetry armed and validate the merged
// Perfetto trace (clock-rebased, time-ordered cross-process flow arrows),
// the streamed telemetry JSONL, and the apgas_top renderer.
//
// The binaries under test are injected by CMake as compile definitions
// (APGAS_LAUNCH_BIN / APGAS_UTS_BIN / APGAS_TOP_BIN), so the test works from
// any build dir.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/launcher.h"

namespace {

struct RunResult {
  int exit_code = -1;
  bool signaled = false;
  std::string output;  // stdout + stderr interleaved
  double secs = 0.0;
};

/// Runs a shell command, capturing combined output and the exit status.
RunResult run(const std::string& cmd) {
  RunResult r;
  const auto t0 = std::chrono::steady_clock::now();
  std::FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  const auto t1 = std::chrono::steady_clock::now();
  r.secs = std::chrono::duration<double>(t1 - t0).count();
  if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    r.signaled = true;
  }
  return r;
}

const std::string kLaunch = APGAS_LAUNCH_BIN;
const std::string kUts = APGAS_UTS_BIN;
const std::string kTop = APGAS_TOP_BIN;
const std::string kTeam = TEAM_SOCKET_PROBE_BIN;

// No dots before the leaf name: bench_common's per_run_path inserts ".r0"
// at the first dot after the last slash, and the traced test predicts that
// mangled name.
std::string tmp_path(const std::string& leaf) {
  return ::testing::TempDir() + "apgas_launcher_test_" +
         std::to_string(::getpid()) + "_" + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One cross-process flow arrow half, scraped out of the merged trace JSON.
/// Flow events carry no nested args object, so the enclosing {...} can be
/// scanned with plain string ops.
struct FlowEvent {
  char ph = '?';
  double ts = -1.0;
  std::string id;
};

std::vector<FlowEvent> scrape_flows(const std::string& json) {
  std::vector<FlowEvent> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"cat\":\"flow\"", pos)) != std::string::npos) {
    const std::size_t open = json.rfind('{', pos);
    const std::size_t close = json.find('}', pos);
    EXPECT_NE(open, std::string::npos);
    EXPECT_NE(close, std::string::npos);
    const std::string obj = json.substr(open, close - open + 1);
    FlowEvent f;
    std::size_t at = obj.find("\"ph\":\"");
    if (at != std::string::npos) f.ph = obj[at + 6];
    at = obj.find("\"ts\":");
    if (at != std::string::npos) f.ts = std::strtod(obj.c_str() + at + 5, nullptr);
    at = obj.find("\"id\":\"");
    if (at != std::string::npos) {
      const std::size_t end = obj.find('"', at + 6);
      f.id = obj.substr(at + 6, end - at - 6);
    }
    out.push_back(std::move(f));
    pos = close;
  }
  return out;
}

TEST(Launcher, RunsUtsAcrossFourPlaceProcesses) {
  // Lifeline GLB across place processes: UtsBags ride the wire through their
  // Ser hooks, steals and lifeline resuscitations cross process boundaries,
  // and the node count must match the sequential traversal exactly —
  // bench_uts exits nonzero (and prints "NO") otherwise.
  const RunResult r =
      run(kLaunch + " -n 4 " + kUts);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verified"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("NO"), std::string::npos) << r.output;
}

TEST(Launcher, SurvivesDelayChaosWithExactCounts) {
  // Delay chaos reorders every place's arrivals under the socket backend,
  // and GLB's steal/lifeline protocol rides the same wire the finish
  // protocol does — the node count must still be exact.
  const RunResult r =
      run(kLaunch + " -n 4 --chaos-delay 0.3 --seed 7 " + kUts);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("NO"), std::string::npos) << r.output;
}

TEST(Launcher, TeamCollectivesRunAcrossPlaceProcesses) {
  // team_socket_probe runs a barrier -> allreduce -> bcast round on the
  // world team in both modes at every place; kNative downgrades to the
  // emulated mail path across processes instead of touching shared memory.
  const RunResult r = run(kLaunch + " -n 4 " + kTeam);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("8/8 mode-rounds ok"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("verified"), std::string::npos) << r.output;
}

TEST(Launcher, ReportsUsageOnMissingPlaces) {
  const RunResult r = run(kLaunch + " " + kUts);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(Launcher, TeardownReleasesOnlyOnBalancedChannels) {
  // The supervisor's release test over three places' 'Q' reports. Each
  // report holds, per peer, {frames sent to it, frames received from it}.
  using apgas::launcher::encode_frame_counts;
  using apgas::launcher::frame_counts_balanced;
  auto report = [](int self, std::vector<std::pair<int, int>> per_peer) {
    std::vector<x10rt::BackendPeerDiag> diag;
    for (int q = 0; q < 3; ++q) {
      if (q == self) continue;
      x10rt::BackendPeerDiag d;
      d.peer = q;
      d.frames_sent = static_cast<std::uint64_t>(per_peer[q].first);
      d.frames_received = static_cast<std::uint64_t>(per_peer[q].second);
      diag.push_back(d);
    }
    return encode_frame_counts(3, diag);
  };
  // 0 -> 1: 5 frames, 1 -> 2: 2 frames, 2 -> 0: 1 frame.
  const std::string r0 = report(0, {{0, 0}, {5, 0}, {0, 1}});
  const std::string r1 = report(1, {{0, 5}, {0, 0}, {2, 0}});
  const std::string r2 = report(2, {{1, 0}, {0, 2}, {0, 0}});
  EXPECT_TRUE(frame_counts_balanced({r0, r1, r2}));
  // A place that has not reported yet holds the barrier.
  EXPECT_FALSE(frame_counts_balanced({r0, "", r2}));
  // Place 2 has not yet counted the frame place 1 sent it last.
  EXPECT_FALSE(frame_counts_balanced(
      {r0, r1, report(2, {{1, 0}, {0, 1}, {0, 0}})}));
  // Place 1 sent one more frame after place 2's report.
  EXPECT_FALSE(frame_counts_balanced(
      {r0, report(1, {{0, 5}, {0, 0}, {3, 0}}), r2}));
}

TEST(Launcher, TracedRunMergesTimeOrderedFlowsAcrossPlaces) {
  // APGAS_TRACE in socket mode must yield ONE merged Perfetto JSON written
  // by the supervisor (bench_common inserts ".r0" for the run index), with
  // a process row per place and every cross-process spawn->begin flow arrow
  // pointing forward in time after the clock rebase.
  const std::string trace = tmp_path("uts.trace.json");
  const RunResult r =
      run("APGAS_TRACE=" + trace + " " + kLaunch + " -n 4 " + kUts);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const std::string merged = tmp_path("uts.r0.trace.json");
  const std::string json = slurp(merged);
  ASSERT_FALSE(json.empty()) << "supervisor did not write " << merged;
  ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (int p = 0; p < 4; ++p) {
    EXPECT_NE(json.find("\"args\":{\"name\":\"place " + std::to_string(p) +
                        "\"}"),
              std::string::npos)
        << "missing process row for place " << p;
  }

  // Pair the flow halves by id: every finish ("f", on the destination's
  // activity.begin) needs a start ("s", on the source's spawn) and must not
  // precede it — the acceptance invariant for the clock rebase + clamping.
  const std::vector<FlowEvent> flows = scrape_flows(json);
  std::map<std::string, double> starts;
  std::size_t pairs = 0;
  for (const FlowEvent& f : flows) {
    if (f.ph != 's') continue;
    auto [it, fresh] = starts.try_emplace(f.id, f.ts);
    if (!fresh && f.ts < it->second) it->second = f.ts;
  }
  for (const FlowEvent& f : flows) {
    if (f.ph != 'f') continue;
    const auto it = starts.find(f.id);
    ASSERT_NE(it, starts.end()) << "flow finish without a start: " << f.id;
    EXPECT_LE(it->second, f.ts)
        << "flow " << f.id << " points backwards in time";
    ++pairs;
  }
  // 4 places x 8 frontier subtrees means plenty of remote spawns; require a
  // healthy number of complete arrows, not just one lucky pair.
  EXPECT_GE(pairs, 8u) << "merged trace lost its cross-process flow arrows";
  std::remove(merged.c_str());
}

TEST(Launcher, TelemetryStreamsFramesFromEveryPlace) {
  const std::string tele = tmp_path("tele.jsonl");
  const RunResult r = run("APGAS_TELEMETRY_MS=20 APGAS_TELEMETRY_PATH=" +
                          tele + " " + kLaunch + " -n 4 " + kUts);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const std::string log = slurp(tele);
  ASSERT_FALSE(log.empty()) << "no telemetry JSONL at " << tele;
  // Every place must have streamed at least one frame (the sampler emits a
  // final frame on stop, so even a fast run produces one per place), and
  // every line must be a self-contained JSON object.
  for (int p = 0; p < 4; ++p) {
    EXPECT_NE(log.find("\"place\":" + std::to_string(p) + ","),
              std::string::npos)
        << "no telemetry frame from place " << p << "\n" << log;
  }
  std::stringstream ss(log);
  std::string line;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"t_ms\":"), std::string::npos) << line;
  }

  // The dashboard must be able to read the real stream.
  const RunResult top = run(kTop + " --once " + tele);
  EXPECT_EQ(top.exit_code, 0) << top.output;
  EXPECT_NE(top.output.find("apgas_top"), std::string::npos) << top.output;
  std::remove(tele.c_str());
}

TEST(Launcher, ApgasTopOnceRendersPlaceRows) {
  // Synthetic stream: deterministic totals, one watchdog report. --once
  // prints cumulative totals and flags the stalled place.
  const std::string tele = tmp_path("top.jsonl");
  {
    std::ofstream out(tele);
    out << R"({"place":0,"seq":0,"t_ms":100,"d":{"sched.p0.activities_executed":50,"sched.p0.steals":3},"a":{"hist.activity.exec_ns.p99":5000}})"
        << "\n"
        << R"({"place":0,"seq":1,"t_ms":200,"d":{"sched.p0.activities_executed":25},"a":{"hist.activity.exec_ns.p99":6000}})"
        << "\n"
        << R"({"place":1,"seq":0,"t_ms":150,"d":{"sched.p1.activities_executed":70},"a":{}})"
        << "\n"
        << R"({"place":1,"t_ms":180,"watchdog":"no progress for 3 intervals"})"
        << "\n";
  }
  const RunResult r = run(kTop + " --once " + tele);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 place(s)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("75"), std::string::npos)  // 50 + 25 accumulated
      << r.output;
  EXPECT_NE(r.output.find("70"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("!!"), std::string::npos)  // watchdog flag
      << r.output;
  std::remove(tele.c_str());

  // Missing file is a clean nonzero exit, not a hang or crash.
  const RunResult miss = run(kTop + " --once " + tele + ".nope");
  EXPECT_EQ(miss.exit_code, 1);
}

TEST(Launcher, ApgasTopRatesRenderDashWhenStampsDoNotAdvance) {
  // Duplicate-stamp guard: rates divide counter deltas by the *frame-stamp*
  // interval. Tick 1 drains both frames (stamp advances 0 -> 100, delta 75
  // -> 750/s); tick 2 drains nothing, so the stamp is stuck at 100 and
  // dt == 0 — exactly what duplicate t_ms stamps from a coarse clock look
  // like. Every rate cell must degrade to "-", never inf/nan garbage.
  const std::string tele = tmp_path("dup.jsonl");
  {
    std::ofstream out(tele);
    out << R"({"place":0,"seq":0,"t_ms":100,"d":{"sched.p0.activities_executed":50},"a":{}})"
        << "\n"
        << R"({"place":0,"seq":1,"t_ms":100,"d":{"sched.p0.activities_executed":25},"a":{}})"
        << "\n";
  }
  const RunResult r = run(kTop + " --ticks 2 --interval 0 " + tele);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("750"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("inf"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("nan"), std::string::npos) << r.output;
  // The dt == 0 render: the four 10-wide rate cells (task, steal, frame,
  // park) all "-".
  std::size_t dashes = 0;
  for (std::size_t at = 0;
       (at = r.output.find("         - ", at)) != std::string::npos; ++at) {
    ++dashes;
  }
  EXPECT_GE(dashes, 4u) << r.output;
  std::remove(tele.c_str());
}

TEST(Launcher, CrashedPlaceFailsFastWithAReport) {
  // Crash-fault injection: SIGKILL place 2 shortly after launch. The
  // supervisor must (a) name the failed place, (b) exit nonzero, (c) not
  // hang on the teardown barrier — a generous wall-clock bound guards
  // against the hang regression, far below the 300 s ctest timeout.
  const RunResult r = run(kLaunch +
                          " -n 4 --kill-place 2 --kill-after-ms 50 "
                          "--chaos-delay 0.5 " +
                          kUts);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_FALSE(r.signaled);
  EXPECT_NE(r.output.find("place 2 failed"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("signal 9"), std::string::npos) << r.output;
  EXPECT_LT(r.secs, 60.0) << "launcher hung on a dead place";
}

}  // namespace

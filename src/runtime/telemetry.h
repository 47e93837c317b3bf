// Periodic live telemetry: a sampler thread turns MetricsRegistry snapshots
// into newline-delimited JSON frames every APGAS_TELEMETRY_MS.
//
// Frame format (one JSON object per line, documented in
// docs/observability.md):
//
//   {"place":1,"seq":4,"t_ms":81234,
//    "d":{"sched.p1.activities_executed":503,...},
//    "a":{"hist.task.exec_ns.p99":41216,...}}
//
//   place  emitting place (-1 = whole in-process job)
//   seq    frame counter, per emitter, from 0
//   t_ms   hist::now_ns()/1e6 — absolute steady-clock milliseconds; every
//          place process reads the same host clock, so frames line up
//   d      counter DELTAS since the previous frame; zero deltas are omitted,
//          so an idle place costs a few bytes per frame
//   a      ABSOLUTE values: histogram percentile/max keys, which are not
//          meaningfully differentiable
//
// Key selection is by comma-separated name-prefix list (APGAS_TELEMETRY_KEYS);
// the default set covers what apgas_top renders. The pure helpers
// (parse_key_prefixes / key_selected / make_frame / wrap_watchdog) have no
// thread or socket dependencies and are unit-tested directly.
//
// Sinks: in socket mode each child streams frames over its ctrl socket and
// the supervisor appends them to one JSONL file; an in-process run appends
// directly via JsonlWriter. Interval 0 (the default) constructs nothing —
// the disabled path is bit-for-bit inert.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace apgas {

class MetricsRegistry;

namespace telemetry {

/// Splits a comma-separated prefix list; empty input yields the default
/// prefix set (the keys apgas_top renders).
[[nodiscard]] std::vector<std::string> parse_key_prefixes(
    const std::string& csv);

/// True when `key` starts with any of `prefixes`.
[[nodiscard]] bool key_selected(std::string_view key,
                                const std::vector<std::string>& prefixes);

/// Builds one frame from `snap`, emitting selected counters as deltas
/// against `prev` (updated in place; zero deltas omitted) and selected
/// hist.* percentile/max keys as absolutes. Returns the JSON line without
/// trailing newline.
[[nodiscard]] std::string make_frame(
    int place, std::uint64_t seq, std::uint64_t t_ms,
    const std::map<std::string, std::uint64_t>& snap,
    const std::vector<std::string>& prefixes,
    std::map<std::string, std::uint64_t>& prev);

/// Wraps a watchdog report as a telemetry line:
/// {"place":N,"t_ms":T,"watchdog":"<escaped report>"}.
[[nodiscard]] std::string wrap_watchdog(int place, std::uint64_t t_ms,
                                        std::string_view report);

/// Append-only JSONL file shared by the telemetry sampler and the watchdog
/// sink (two threads); each append writes line + '\n' and flushes so
/// apgas_top can tail the file live.
class JsonlWriter {
 public:
  /// Opens `path` for writing (truncates). Failure is logged and leaves the
  /// writer inert.
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter();
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  void append(std::string_view line);
  [[nodiscard]] bool ok() const { return f_ != nullptr; }

 private:
  std::FILE* f_ = nullptr;
  std::mutex mu_;
};

}  // namespace telemetry

/// The sampler thread. Construct + start() once the registry is live; stop()
/// joins after emitting one final frame, so even jobs shorter than the
/// interval produce at least one line per emitter.
class Telemetry {
 public:
  using Sink = std::function<void(const std::string& json_line)>;

  Telemetry(MetricsRegistry& reg, int place, int interval_ms,
            const std::string& keys_csv, Sink sink);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  void start();
  void stop();

 private:
  void loop();
  void emit_frame();

  MetricsRegistry& reg_;
  int place_;
  int interval_ms_;
  std::vector<std::string> prefixes_;
  Sink sink_;
  std::map<std::string, std::uint64_t> prev_;
  std::uint64_t seq_ = 0;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
};

}  // namespace apgas

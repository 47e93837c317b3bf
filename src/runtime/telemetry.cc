#include "runtime/telemetry.h"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstring>

#include "runtime/histogram.h"
#include "runtime/metrics.h"

namespace apgas {
namespace telemetry {

namespace {

// Everything apgas_top's columns need: task/steal/park rates from the
// per-place scheduler counters, ship counts, socket frames sent, GLB
// steals, and the task latency histograms.
const char* const kDefaultPrefixes[] = {
    "sched.",
    "runtime.",
    "finish.opened",
    "finish.closed",
    "transport.backend.frames_sent",
    "glb.",
    "hist.task.",
    "hist.activity.",
};

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Histogram exports are point-in-time statistics; everything else in a
// snapshot is a monotone counter or gauge worth differencing.
bool is_absolute_key(std::string_view key) {
  if (key.substr(0, 5) != "hist.") return false;
  return key.ends_with(".p50") || key.ends_with(".p90") ||
         key.ends_with(".p99") || key.ends_with(".max");
}

}  // namespace

std::vector<std::string> parse_key_prefixes(const std::string& csv) {
  std::vector<std::string> out;
  if (csv.empty()) {
    for (const char* p : kDefaultPrefixes) out.emplace_back(p);
    return out;
  }
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool key_selected(std::string_view key,
                  const std::vector<std::string>& prefixes) {
  for (const std::string& p : prefixes) {
    if (key.substr(0, p.size()) == p) return true;
  }
  return false;
}

std::string make_frame(int place, std::uint64_t seq, std::uint64_t t_ms,
                       const std::map<std::string, std::uint64_t>& snap,
                       const std::vector<std::string>& prefixes,
                       std::map<std::string, std::uint64_t>& prev) {
  std::string out;
  out.reserve(256);
  char buf[64];
  std::snprintf(buf, sizeof buf,
                "{\"place\":%d,\"seq\":%" PRIu64 ",\"t_ms\":%" PRIu64
                ",\"d\":{",
                place, seq, t_ms);
  out += buf;
  bool first = true;
  for (const auto& [key, val] : snap) {
    if (is_absolute_key(key) || !key_selected(key, prefixes)) continue;
    std::uint64_t& last = prev[key];
    // Gauges can legitimately move down; emit signed.
    const auto delta =
        static_cast<std::int64_t>(val) - static_cast<std::int64_t>(last);
    last = val;
    if (delta == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    std::snprintf(buf, sizeof buf, "\":%" PRId64, delta);
    out += buf;
  }
  out += "},\"a\":{";
  first = true;
  for (const auto& [key, val] : snap) {
    if (!is_absolute_key(key) || !key_selected(key, prefixes)) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    std::snprintf(buf, sizeof buf, "\":%" PRIu64, val);
    out += buf;
  }
  out += "}}";
  return out;
}

std::string wrap_watchdog(int place, std::uint64_t t_ms,
                          std::string_view report) {
  std::string out;
  out.reserve(report.size() + 64);
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"place\":%d,\"t_ms\":%" PRIu64
                                 ",\"watchdog\":\"",
                place, t_ms);
  out += buf;
  append_json_escaped(out, report);
  out += "\"}";
  return out;
}

JsonlWriter::JsonlWriter(const std::string& path) {
  f_ = std::fopen(path.c_str(), "w");
  if (f_ == nullptr) {
    std::fprintf(stderr, "apgas: cannot open telemetry log %s: %s\n",
                 path.c_str(), std::strerror(errno));
  }
}

JsonlWriter::~JsonlWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void JsonlWriter::append(std::string_view line) {
  if (f_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fputc('\n', f_);
  std::fflush(f_);
}

}  // namespace telemetry

Telemetry::Telemetry(MetricsRegistry& reg, int place, int interval_ms,
                     const std::string& keys_csv, Sink sink)
    : reg_(reg),
      place_(place),
      interval_ms_(interval_ms < 1 ? 1 : interval_ms),
      prefixes_(telemetry::parse_key_prefixes(keys_csv)),
      sink_(std::move(sink)) {}

Telemetry::~Telemetry() { stop(); }

void Telemetry::start() {
  if (running_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { loop(); });
}

void Telemetry::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_ = false;
}

void Telemetry::emit_frame() {
  const std::uint64_t t_ms = hist::now_ns() / 1000000u;
  sink_(telemetry::make_frame(place_, seq_++, t_ms, reg_.snapshot(),
                              prefixes_, prev_));
}

void Telemetry::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                     [this] { return stopping_; })) {
      break;
    }
    lock.unlock();
    emit_frame();
    lock.lock();
  }
  lock.unlock();
  // Final frame: the deltas accumulated since the last tick, so short jobs
  // still produce one line per emitter.
  emit_frame();
}

}  // namespace apgas

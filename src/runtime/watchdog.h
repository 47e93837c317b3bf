// Stall watchdog: turns a silent hang into an actionable report.
//
// Distributed termination detection fails ugly: when a finish protocol loses
// an account (or chaos parks the wrong control message), the job simply stops
// making progress and a CI run times out with no evidence. The watchdog is a
// sampler thread (off by default; Config::watchdog_interval_ms /
// APGAS_WATCHDOG_MS) that snapshots the runtime's monotone progress counters
// every interval. When *none* of them advances for N consecutive intervals it
// dumps one human-readable diagnosis to stderr — per-place queue depths and
// scheduler totals, the oldest open finish (seq + protocol), per-peer socket
// queues and frame counts, and the last few flight-recorder events — then
// stays quiet until progress resumes (one report per distinct stall, not one
// per interval).
//
// Only monotone counters participate in stall detection: oscillating signals
// (parked workers, inbox depth) would read as "progress" while the job spins
// in place, so they appear in the diagnosis but never reset the stall clock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "runtime/metrics.h"

namespace apgas {

class Runtime;

class Watchdog {
 public:
  /// `interval` between progress samples; a diagnosis fires after
  /// `stall_intervals` consecutive samples with no progress (>= 1).
  Watchdog(Runtime& rt, std::chrono::milliseconds interval,
           int stall_intervals);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Starts the sampler thread. Call once, before the workers can stall.
  void start();

  /// Stops and joins the sampler thread. Idempotent; the destructor calls it.
  void stop();

  /// Diagnoses fired so far (also the "watchdog.diagnoses" counter).
  [[nodiscard]] std::uint64_t diagnoses() const {
    return diagnoses_->load(std::memory_order_relaxed);
  }

  /// Redirects diagnosis reports into `sink` instead of stderr. Socket-mode
  /// children forward reports to the launcher supervisor this way, so a
  /// multi-process stall produces one consolidated, place-labelled report
  /// rather than interleaved child stderr. Set before start().
  void set_report_sink(std::function<void(const std::string&)> sink) {
    report_sink_ = std::move(sink);
  }

 private:
  /// The monotone progress vector; any component advancing counts as
  /// progress.
  struct Progress {
    std::uint64_t activities = 0;        // sum sched.pN.activities_executed
    std::uint64_t messages = 0;          // sum sched.pN.messages_processed
    std::uint64_t finishes_opened = 0;   // finish.opened
    std::uint64_t finishes_closed = 0;   // finish.closed
    std::uint64_t transport_msgs = 0;    // transport.msgs.total
    friend bool operator==(const Progress&, const Progress&) = default;
  };

  [[nodiscard]] Progress sample() const;
  void diagnose(int stalled_intervals) const;
  void loop();

  Runtime& rt_;
  std::chrono::milliseconds interval_;
  int stall_intervals_;
  MetricsRegistry::Counter* diagnoses_;
  std::function<void(const std::string&)> report_sink_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace apgas

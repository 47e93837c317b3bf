// MetricsRegistry: one named-counter API for every runtime-internal number.
//
// The paper's claims (§3.1 control-message volume, §5 out-degree, §6 steal
// traffic) used to be checked against ad-hoc getters scattered across
// Scheduler, Transport, and the finish protocols. The registry absorbs them:
//   * counters — atomic uint64s owned by the registry. Hot paths resolve a
//     counter once (by name, at startup) and keep the pointer; incrementing
//     costs exactly what the old member atomics cost.
//   * gauges — lazy callbacks evaluated at read time, for values another
//     layer already maintains (the x10rt transport's per-class tallies,
//     which must stay runtime-agnostic).
//   * histograms — lock-free log-linear latency distributions (histogram.h),
//     resolved once like counters; snapshots expand each one into
//     hist.<name>.{count,p50,p90,p99,max} keys.
//
// Naming convention (dots as separators, documented in
// docs/observability.md):
//   sched.pN.*        per-place scheduler counters
//   sched.msgs.CLASS  messages processed, by class, all places
//   runtime.*         task shipping
//   finish.*          finish-protocol control traffic
//   glb.*             global-load-balancer steal accounting
//   transport.*       x10rt transport stats (gauges)
//   trace.*           flight-recorder stats (gauges)
//   hist.*            histogram percentile exports (docs/observability.md)
//
// Runtime::run snapshots the registry at teardown; last_run_metrics() hands
// the snapshot to tests and benches after the job has quiesced.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/histogram.h"

namespace apgas {

class MetricsRegistry {
 public:
  using Counter = std::atomic<std::uint64_t>;
  using Gauge = std::function<std::uint64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it (at zero) on
  /// first use. The reference stays valid for the registry's lifetime —
  /// resolve once, increment lock-free forever.
  Counter& counter(const std::string& name);

  /// Returns the histogram registered under `name` (without the `hist.`
  /// export prefix), creating it empty on first use. Same contract as
  /// counter(): resolve once, record lock-free forever.
  Histogram& histogram(const std::string& name);

  /// Registers a lazily-evaluated value. Re-registering a name replaces the
  /// previous gauge (used when a new Runtime wires fresh closures).
  void add_gauge(const std::string& name, Gauge gauge);

  /// Current value of a counter or gauge; 0 for unknown names.
  [[nodiscard]] std::uint64_t value(const std::string& name) const;

  /// Every counter, gauge, and histogram (expanded to five hist.<name>.*
  /// keys), by name, evaluated now.
  [[nodiscard]] std::map<std::string, std::uint64_t> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, Gauge> gauges_;
};

/// A snapshot as one JSON object {"key":value,...} when `as_json`, else as
/// flat `key=value` lines; keys sorted either way.
[[nodiscard]] std::string format_metrics(
    const std::map<std::string, std::uint64_t>& snapshot, bool as_json);

/// The one metrics file writer, shared by an in-process dump and the socket
/// supervisor's aggregate: format_metrics(snapshot, path ends in ".json").
/// Returns false on I/O failure (logged to stderr, never throws).
bool write_metrics(const std::string& path,
                   const std::map<std::string, std::uint64_t>& snapshot);

/// Metrics snapshot of the most recently completed Runtime::run (empty
/// before the first run). Safe to read once run() has returned.
const std::map<std::string, std::uint64_t>& last_run_metrics();

namespace detail {
void store_last_metrics(std::map<std::string, std::uint64_t> snapshot);
}  // namespace detail

}  // namespace apgas

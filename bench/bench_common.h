// Shared helpers for the reproduction benches. Each bench binary regenerates
// one table or figure of the paper (see DESIGN.md §5) by sweeping place
// counts and printing the same rows/series the paper reports.
//
// Scale note: the paper sweeps 1..55,680 cores of a Power 775; we sweep
// 1..N places (threads) on one machine. Wall-clock panels stop at the
// hardware thread count (core_sweep) and report the median of kRepeats runs,
// interleaved across the panel's place counts (repeat_rows);
// protocol columns (message counts, out-degree, balance quality) are exact
// and hardware-independent, so those benches sweep past the cores.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/config.h"
#include "runtime/congruent.h"
#include "runtime/metrics.h"
#include "runtime/runtime.h"

namespace bench {

/// Inserts ".rN" before the extension of `path` (after the last '/'), so
/// successive runs of one bench process don't overwrite each other's dumps:
/// "uts.trace.json" -> "uts.r0.trace.json", "out/metrics" -> "out/metrics.r0".
inline std::string per_run_path(const std::string& path, int run) {
  const std::string tag = ".r" + std::to_string(run);
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot =
      path.find('.', slash == std::string::npos ? 0 : slash + 1);
  if (dot == std::string::npos) return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

/// Applies the observability environment to a bench Config:
///   APGAS_TRACE=<path>     write a Chrome trace_event JSON after the run
///                          (also enables the flight recorder)
///   APGAS_METRICS=<path>   write metrics at teardown (.json => JSON,
///                          anything else => key=value text)
/// plus the APGAS_* knobs (places, workers_per_place, backend, chaos,
/// APGAS_TRACE_CAP ring capacity, ...)
/// via Config::apply_env — note benches that sweep
/// `cfg.places` themselves overwrite an APGAS_PLACES override afterwards.
///
/// Trace/metrics paths get a per-run ".rN" suffix (see per_run_path): benches
/// construct one Config per sweep point, so the Nth observe() call in a
/// process maps to run N and each run keeps its own dump files.
///
/// When any of APGAS_TRACE / APGAS_METRICS / APGAS_HIST is set, latency
/// histograms are armed too (a metrics dump without hist.* percentiles is
/// rarely what anyone wants); APGAS_HIST=0 still wins because apply_env runs
/// last. Returns the config so call sites can wrap construction inline.
inline apgas::Config& observe(apgas::Config& cfg) {
  static int run = 0;
  const int r = run++;
  if (const char* p = std::getenv("APGAS_TRACE")) {
    cfg.trace = true;
    cfg.trace_path = per_run_path(p, r);
    cfg.histograms = true;
  }
  if (const char* p = std::getenv("APGAS_METRICS")) {
    cfg.metrics_path = per_run_path(p, r);
    cfg.histograms = true;
  }
  if (std::getenv("APGAS_HIST") != nullptr) cfg.histograms = true;
  apgas::Config::apply_env(cfg);
  return cfg;
}

/// Prints machine-readable `label key=value` lines for the previous
/// Runtime::run, skipping the per-place scheduler counters (noise at bench
/// granularity; use APGAS_METRICS for the full dump).
inline void emit_metrics(const std::string& label) {
  for (const auto& [key, value] : apgas::last_run_metrics()) {
    if (key.rfind("sched.p", 0) == 0) continue;
    std::printf("[metrics] %s %s=%llu\n", label.c_str(), key.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::fflush(stdout);
}

/// True when either env knob asks for per-run metric lines on stdout.
inline bool metrics_requested() {
  return std::getenv("APGAS_METRICS_STDOUT") != nullptr;
}

/// emit_metrics gated on APGAS_METRICS_STDOUT — the benches call this after
/// every run so tables stay clean unless the user opts in.
inline void maybe_emit_metrics(const std::string& label) {
  if (metrics_requested()) emit_metrics(label);
}

inline std::vector<int> sweep_places(int max_places = 16) {
  std::vector<int> out;
  for (int p = 1; p <= max_places; p *= 2) out.push_back(p);
  return out;
}

/// Hardware threads of this machine (at least 1).
inline int cores() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// sweep_places capped at the hardware thread count: the sweep of the
/// wall-clock panels, whose rows never oversubscribe the cores.
inline std::vector<int> core_sweep(int max_places = 16) {
  return sweep_places(std::min(max_places, cores()));
}

/// Runs per sweep point of the wall-clock panels (the paper's
/// Smith-Waterman iteration count).
constexpr int kRepeats = 5;

/// Median and range of one sweep point's runs.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

/// Median and range of a set of runs.
inline Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v.front(), v.back()};
}

/// Calls `measure` kRepeats times and summarises the value it returns
/// (seconds or a rate). Inside a Runtime::run the congruent arena is
/// released before each call, so every run allocates afresh.
template <typename Measure>
Spread repeat(Measure&& measure) {
  std::vector<double> v;
  for (int i = 0; i < kRepeats; ++i) {
    if (apgas::Runtime::active()) apgas::Runtime::get().congruent().reset();
    v.push_back(measure());
  }
  return spread(std::move(v));
}

/// The rows of a scaling table, measured interleaved: kRepeats rounds, each
/// running every place count of `sweep` once in order (1, 2, 4, 1, 2, 4,
/// ...), so host load that comes and goes lands on every row instead of on
/// whichever row ran through it. Each run is a fresh
/// Runtime::run(make_cfg(sweep[i])) inside which `measure(i)` returns the
/// run's value for row i. Returns one Spread per row, in sweep order.
template <typename MakeCfg, typename Measure>
std::vector<Spread> repeat_rows(const std::vector<int>& sweep,
                                MakeCfg&& make_cfg, Measure&& measure) {
  std::vector<std::vector<double>> runs(sweep.size());
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const int places = sweep[i];
      apgas::Runtime::run(make_cfg(places),
                          [&] { runs[i].push_back(measure(i)); });
      maybe_emit_metrics("places" + std::to_string(places));
    }
  }
  std::vector<Spread> out;
  out.reserve(sweep.size());
  for (auto& v : runs) out.push_back(spread(std::move(v)));
  return out;
}

inline void header(const std::string& title) {
  static bool printed_machine = false;
  if (!printed_machine) {
    printed_machine = true;
    std::printf("[machine: %u hardware threads — wall-clock columns degrade "
                "once places exceed cores; message/balance columns are "
                "exact]\n",
                std::thread::hardware_concurrency());
  }
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace bench

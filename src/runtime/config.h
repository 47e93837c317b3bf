// Launch-time configuration for an APGAS "job" (the paper's §2.1: the number
// of places and the place→node mapping are fixed at launch, MPI-style).
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>

#include "x10rt/transport.h"

namespace apgas {

/// Which wire carries inter-place traffic (docs/transport.md "Backends").
enum class BackendKind : std::uint8_t {
  kInProc,  ///< all places share the process (the default, zero-overhead)
  kSocket,  ///< one process per place over a Unix-domain socketpair mesh
};

struct Config {
  /// Number of places. The paper runs one place per core (X10_NTHREADS=1);
  /// we default the same way and oversubscribe OS threads when places exceed
  /// cores, which is fine for protocol-level studies.
  int places = 4;

  /// Worker threads per place (X10_NTHREADS). The paper's runs use 1.
  int workers_per_place = 1;

  /// Places per "node" (octant). On the Power 775 this is 32; FINISH_DENSE
  /// routes control traffic through one master place per node.
  int places_per_node = 8;

  /// Wire backend. kSocket forks one process per place (Runtime::run
  /// delegates to launcher::run_places before constructing anything); a
  /// 1-place job stays in-process regardless. Both wires are lossless;
  /// cross-process teardown balances per-channel frame counts
  /// (docs/transport.md "Teardown: channel counting").
  BackendKind backend = BackendKind::kInProc;

  /// Network chaos injection (delay + reordering of queued messages).
  x10rt::ChaosConfig chaos;

  /// Track per-(src,dst) message counts — needed by out-degree benches.
  bool count_pairs = false;

  /// Bytes reserved per place for the congruent (registered, symmetric)
  /// allocator arena.
  std::size_t congruent_bytes = 16u << 20;

  /// Simulated page size for the congruent allocator's TLB accounting:
  /// 4 KiB "small" vs 16 MiB "large" pages (paper §3.3).
  bool congruent_large_pages = true;

  // --- flight recorder (docs/observability.md) -----------------------------

  /// Record runtime events (activity/message/finish/steal/team) into the
  /// per-place ring buffers. Off by default: every event site then costs one
  /// relaxed atomic load.
  bool trace = false;

  /// Events retained per place (ring capacity; oldest overwritten).
  std::size_t trace_capacity = 1u << 16;

  /// If non-empty, Runtime::run writes a Chrome trace_event JSON here at
  /// teardown (and implies `trace = true`).
  std::string trace_path;

  /// If non-empty, Runtime::run dumps the MetricsRegistry here at teardown
  /// (".json" suffix selects JSON, anything else flat key=value lines).
  std::string metrics_path;

  /// Arm the latency histograms (hist.* metric keys: task ship->execute,
  /// finish open->close per protocol, activity duration,
  /// steal-to-work). Off by default: every recording site then costs one
  /// relaxed atomic load, matching the flight recorder's contract.
  bool histograms = false;

  // --- stall watchdog (docs/observability.md) ------------------------------

  /// Sampling interval of the stall watchdog thread in milliseconds; 0 (the
  /// default) never starts the thread. When no progress signal advances for
  /// `watchdog_stall_intervals` consecutive samples, one human-readable
  /// diagnosis (queue depths, oldest open finish, per-peer socket queues
  /// and frame counts, recent trace events) is dumped to stderr; it re-arms
  /// only after progress resumes.
  int watchdog_interval_ms = 0;

  /// Consecutive no-progress samples before the watchdog diagnoses a stall.
  int watchdog_stall_intervals = 5;

  // --- live telemetry + clock sync (docs/observability.md) -----------------

  /// Sampling interval of the live telemetry stream in milliseconds; 0 (the
  /// default) never constructs the sampler — the disabled path is bit-for-bit
  /// inert. When armed, each place emits periodic delta frames of selected
  /// MetricsRegistry keys; in socket mode they stream over the ctrl socket
  /// into one supervisor-side JSONL (tail it with tools/apgas_top).
  int telemetry_interval_ms = 0;

  /// Where the telemetry JSONL goes. Empty (the default) resolves to
  /// "apgas_telemetry.jsonl" when the stream is armed.
  std::string telemetry_path;

  /// Comma-separated metric-name prefixes selecting which keys the telemetry
  /// frames carry. Empty selects the default set apgas_top renders
  /// (docs/observability.md "Distributed telemetry").
  std::string telemetry_keys;

  /// Request/echo rounds per child of the launcher's Cristian clock-offset
  /// handshake (minimum-RTT sample wins). Runs at attach and again in the
  /// teardown barrier for drift re-estimation; only meaningful in socket
  /// mode.
  int clocksync_rounds = 8;

  /// Applies `APGAS_*` environment overrides for the perf knobs on top of
  /// whatever `cfg` already holds, so benches and CI sweep configurations
  /// without recompiling:
  ///
  ///   APGAS_BACKEND            "socket" or "inproc"
  ///   APGAS_CHAOS_DELAY        chaos.delay_prob (0.0 .. 1.0)
  ///   APGAS_CHAOS_SEED         chaos.seed
  ///   APGAS_PLACES             places
  ///   APGAS_PLACES_PER_NODE    places_per_node
  ///   APGAS_WORKERS_PER_PLACE  workers_per_place
  ///   APGAS_HIST               histograms (nonzero arms them)
  ///   APGAS_WATCHDOG_MS        watchdog_interval_ms (nonzero starts it)
  ///   APGAS_WATCHDOG_INTERVALS watchdog_stall_intervals
  ///   APGAS_TELEMETRY_MS       telemetry_interval_ms (nonzero arms the stream)
  ///   APGAS_TELEMETRY_PATH     telemetry_path
  ///   APGAS_TELEMETRY_KEYS     telemetry_keys (comma-separated prefixes)
  ///   APGAS_CLOCKSYNC_ROUNDS   clocksync_rounds
  ///
  /// Unset variables leave the knob untouched. A variable that is set but
  /// malformed — empty, non-numeric, trailing garbage, negative, or out of
  /// range — aborts naming the variable: a typo'd override silently running
  /// the default configuration is a miscalibrated experiment, not a
  /// fallback.
  static void apply_env(Config& cfg) {
    auto die = [](const char* name, const char* value, const char* expected) {
      std::fprintf(stderr,
                   "[apgas] fatal: invalid value \"%s\" for %s (expected %s)\n",
                   value, name, expected);
      std::abort();
    };
    auto read = [&die](const char* name, auto& knob) {
      const char* v = std::getenv(name);
      if (v == nullptr) return;
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(v, &end, 10);
      if (*v == '\0' || end == v || *end != '\0' || errno == ERANGE ||
          parsed < 0) {
        die(name, v, "a non-negative integer");
      }
      knob = static_cast<std::remove_reference_t<decltype(knob)>>(parsed);
    };
    auto read_prob = [&die](const char* name, double& knob) {
      const char* v = std::getenv(name);
      if (v == nullptr) return;
      char* end = nullptr;
      errno = 0;
      const double parsed = std::strtod(v, &end);
      if (*v == '\0' || end == v || *end != '\0' || errno == ERANGE ||
          parsed < 0.0 || parsed > 1.0) {
        die(name, v, "a probability in [0, 1]");
      }
      knob = parsed;
    };
    if (const char* b = std::getenv("APGAS_BACKEND"); b != nullptr) {
      if (std::string_view(b) == "socket") {
        cfg.backend = BackendKind::kSocket;
      } else if (std::string_view(b) == "inproc") {
        cfg.backend = BackendKind::kInProc;
      } else {
        die("APGAS_BACKEND", b, "\"socket\" or \"inproc\"");
      }
    }
    read_prob("APGAS_CHAOS_DELAY", cfg.chaos.delay_prob);
    read("APGAS_CHAOS_SEED", cfg.chaos.seed);
    read("APGAS_PLACES", cfg.places);
    read("APGAS_PLACES_PER_NODE", cfg.places_per_node);
    read("APGAS_WORKERS_PER_PLACE", cfg.workers_per_place);
    int hist = cfg.histograms ? 1 : 0;
    read("APGAS_HIST", hist);
    cfg.histograms = hist != 0;
    read("APGAS_WATCHDOG_MS", cfg.watchdog_interval_ms);
    read("APGAS_WATCHDOG_INTERVALS", cfg.watchdog_stall_intervals);
    read("APGAS_TELEMETRY_MS", cfg.telemetry_interval_ms);
    if (const char* p = std::getenv("APGAS_TELEMETRY_PATH"); p != nullptr) {
      cfg.telemetry_path = p;
    }
    if (const char* k = std::getenv("APGAS_TELEMETRY_KEYS"); k != nullptr) {
      cfg.telemetry_keys = k;
    }
    read("APGAS_CLOCKSYNC_ROUNDS", cfg.clocksync_rounds);
  }

  /// Defaults + apply_env().
  [[nodiscard]] static Config from_env() {
    Config cfg;
    apply_env(cfg);
    return cfg;
  }
};

}  // namespace apgas

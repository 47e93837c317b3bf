// The APGAS runtime: places, workers, and the job lifecycle (paper §2, §4).
//
// A Runtime hosts P places inside one process. Each place is an isolated
// scheduler plus a share of the X10RT transport; the execution starts with
// `main` at place 0 under a root finish and ends when that finish terminates
// (all other places start idle, exactly as in X10).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/activity.h"
#include "runtime/config.h"
#include "runtime/finish.h"
#include "runtime/metrics.h"
#include "runtime/scheduler.h"
#include "x10rt/transport.h"

namespace apgas {

class CongruentSpace;

namespace launcher {
struct SocketWiring;
}  // namespace launcher

/// Finish-protocol counters, resolved against the MetricsRegistry once at
/// startup so the wire-protocol hot paths increment plain atomics (metric
/// names in docs/observability.md).
struct FinishCounters {
  MetricsRegistry::Counter* opened = nullptr;
  MetricsRegistry::Counter* upgrades = nullptr;
  MetricsRegistry::Counter* snapshots_sent = nullptr;
  MetricsRegistry::Counter* snapshots_applied = nullptr;
  MetricsRegistry::Counter* snapshots_stale = nullptr;
  MetricsRegistry::Counter* dense_batches = nullptr;
  MetricsRegistry::Counter* releases = nullptr;
  MetricsRegistry::Counter* completion_msgs = nullptr;
  MetricsRegistry::Counter* credit_msgs = nullptr;
  MetricsRegistry::Counter* tasks_shipped = nullptr;
  MetricsRegistry::Counter* closed = nullptr;
};

/// FINISH_DENSE per-master pending control frames, keyed by next hop.
struct DenseRelay {
  std::mutex mu;
  // next hop -> (final home, frame bytes)
  std::unordered_map<int, std::vector<std::pair<int, std::vector<std::byte>>>>
      pending;
  bool flusher_scheduled = false;
};

/// Everything a place owns.
struct PlaceState {
  std::unique_ptr<Scheduler> sched;

  std::mutex fin_mu;
  std::unordered_map<std::uint64_t, FinishHome*> home_finishes;
  std::unordered_map<FinishKey, std::unique_ptr<RemoteBlock>, FinishKeyHash>
      blocks;
  std::atomic<std::uint64_t> next_finish_seq{1};

  DenseRelay relay;

  // Per-place monitor backing X10's `atomic` / `when` (one lock per place;
  // the generation counter wakes `when` waiters after each atomic section).
  std::mutex atomic_mu;
  std::atomic<std::uint64_t> atomic_gen{0};

  // Local half of the causal span ids minted at this place (starts at 1 so
  // span 0 always means "untraced").
  std::atomic<std::uint64_t> next_span{1};
};

class Runtime {
 public:
  /// Runs `main` at place 0 under a root finish; returns when the whole job
  /// has quiesced. Only one Runtime may be live at a time. With
  /// cfg.backend == kSocket (and > 1 place) this instead forks one process
  /// per place via launcher::run_places and supervises them — the calling
  /// process never hosts a place, and the aggregated metrics land in
  /// last_run_metrics() as usual.
  static void run(const Config& cfg, std::function<void()> main);

  /// Internal: entry point of one forked place process (launcher.cc calls
  /// this right after fork). Builds a Runtime over a SocketBackend, runs the
  /// place (place 0 additionally drives `main` and broadcasts shutdown),
  /// participates in the teardown barrier, and ships the metrics blob.
  static int run_child(const Config& cfg, std::function<void()> main,
                       const launcher::SocketWiring& wiring);

  /// The live runtime (asserts one exists).
  static Runtime& get() {
    assert(current_ != nullptr && "no APGAS runtime is running");
    return *current_;
  }
  static bool active() { return current_ != nullptr; }

  [[nodiscard]] int places() const { return cfg_.places; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// True when every place is a separate process (socket backend).
  [[nodiscard]] bool multi_process() const { return local_place_ >= 0; }
  /// The place this process hosts; -1 when all places are in-process.
  [[nodiscard]] int local_place() const { return local_place_; }
  /// Whether place `p`'s state (scheduler counters, inboxes) lives in this
  /// process — drain loops and the watchdog only inspect local places.
  [[nodiscard]] bool place_is_local(int p) const {
    return local_place_ < 0 || local_place_ == p;
  }
  [[nodiscard]] x10rt::Transport& transport() { return *transport_; }
  [[nodiscard]] PlaceState& pstate(int place) {
    return *pstates_[static_cast<std::size_t>(place)];
  }
  [[nodiscard]] Scheduler& sched(int place) {
    return *pstates_[static_cast<std::size_t>(place)]->sched;
  }
  [[nodiscard]] CongruentSpace& congruent() { return *congruent_; }
  [[nodiscard]] MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] const FinishCounters& fin_counters() const { return finc_; }

  /// Node master of `p` under the places-per-node mapping (FINISH_DENSE
  /// software routing: p - p % b).
  [[nodiscard]] int master_of(int p) const {
    return p - p % cfg_.places_per_node;
  }

  /// Mints a causal span id at `place`: place bits (high 16) | a per-place
  /// counter. Called only when tracing is enabled; 0 stays "untraced".
  [[nodiscard]] std::uint64_t new_span(int place) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(place))
            << 48) |
           pstate(place).next_span.fetch_add(1, std::memory_order_relaxed);
  }

  /// Finish open->close latency histogram for the declared protocol.
  [[nodiscard]] Histogram& fin_close_hist(Pragma p) {
    return *fin_close_hist_[static_cast<std::size_t>(p)];
  }

  /// Ships a task — a registered task-function id (task_registry.h) plus
  /// serialized args — to place `dst` under the given finish context: the
  /// one remote-spawn path (closures use local_closure_fn()). `credit` is
  /// the FINISH_HERE weight (0 for other protocols), `span`/`parent_span`
  /// the causal ids (0 = untraced). The frame carries its ship-time, which
  /// the receiver turns into one record_ship_latency sample.
  void send_task_frame(int dst, int fn_id, x10rt::ByteBuffer args,
                       const FinCtx& ctx, std::uint64_t credit,
                       std::uint64_t span = 0, std::uint64_t parent_span = 0);

  /// Ships a fire-and-forget *frame* immediate — a registered task-function
  /// id plus serialized args, run inline by the receiver's poller outside
  /// any finish scope: no tasks_shipped bump, no ship-latency sample.
  /// Always routes through the transport, even to self.
  void send_immediate_frame(int dst, int fn_id, x10rt::ByteBuffer args,
                            x10rt::MsgType type = x10rt::MsgType::kOther);

  /// Aborts with the cannot-cross-processes diagnostic when `dst` lives in
  /// another process; `what` names the operation whose message would carry
  /// process-local pointers. Spawn sites call this *before* any finish
  /// bookkeeping mutates, so the failure is diagnosable pre-side-effect.
  void check_closure_can_reach(
      int dst, const char* what = "closure spawn (asyncAt/at)") const;

  /// Records a frame task's ship->execute latency: in-process samples join
  /// task.ship_ns, cross-process ones task.ship_xproc_aligned_ns. Place
  /// processes share the host's monotonic clock, so both are plain
  /// differences of hist::now_ns() stamps.
  void record_ship_latency(std::uint64_t t_send_ns);

  /// Runs a closure at the home registry entry for `key`, if still present.
  /// Used by control handlers; late messages for released finishes drop.
  /// Returns false on such a drop so callers can keep their books exact
  /// (e.g. a post-release snapshot is by definition stale).
  bool with_home_finish(FinishKey key,
                        const std::function<void(FinishHome&)>& fn);

  // Registered active-message handler ids for the finish wire protocol
  // (handlers are installed at startup; see finish.cc for the frame codecs).
  [[nodiscard]] int am_snapshot() const { return am_snapshot_; }
  [[nodiscard]] int am_dense_relay() const { return am_dense_relay_; }
  [[nodiscard]] int am_release() const { return am_release_; }
  [[nodiscard]] int am_completions() const { return am_completions_; }
  [[nodiscard]] int am_credit() const { return am_credit_; }
  [[nodiscard]] int am_spawn() const { return am_spawn_; }
  [[nodiscard]] int am_exception() const { return am_exception_; }
  [[nodiscard]] int am_immediate() const { return am_immediate_; }

 private:
  explicit Runtime(const Config& cfg,
                   const launcher::SocketWiring* wiring = nullptr);
  ~Runtime();
  void worker_loop(int place, int wid);
  void register_transport_gauges();
  /// Drains the local place (steps its scheduler until it makes no
  /// progress, pushes the backend's tx backlog) and returns the teardown
  /// barrier's idle reading (docs/transport.md "Teardown: channel
  /// counting"): the per-peer frame counts, encoded for a 'Q' report, when
  /// the drain after reading them made no progress and left the inbox, the
  /// chaos pool and the tx backlog empty; nullopt otherwise.
  std::optional<std::string> idle_frame_counts();
  /// After workers join: snapshot metrics for last_run_metrics(), write the
  /// configured trace/metrics files, tear down the flight recorder.
  void finalize_observability();

  static Runtime* current_;

  Config cfg_;
  // The registry is declared (and constructed) before everything that
  // resolves counters out of it — schedulers, transport gauges, finc_.
  std::unique_ptr<MetricsRegistry> metrics_;
  FinishCounters finc_;
  std::unique_ptr<x10rt::Transport> transport_;
  int am_snapshot_ = -1;
  int am_dense_relay_ = -1;
  int am_release_ = -1;
  int am_completions_ = -1;
  int am_credit_ = -1;
  int am_spawn_ = -1;
  int am_exception_ = -1;
  int am_shutdown_ = -1;
  int am_immediate_ = -1;
  int local_place_ = -1;  // >= 0 iff this process hosts exactly one place
  // Ship-latency histograms (record_ship_latency), resolved once.
  Histogram* hist_ship_frame_ = nullptr;
  Histogram* hist_ship_xproc_aligned_ = nullptr;
  std::vector<std::unique_ptr<PlaceState>> pstates_;
  std::unique_ptr<CongruentSpace> congruent_;
  // Per-protocol finish open->close latency histograms, resolved once.
  std::array<Histogram*, kNumPragmas> fin_close_hist_{};
  std::atomic<bool> shutdown_{false};
};

// --- thread-local execution context -----------------------------------------

namespace detail {
extern thread_local int tl_place;
extern thread_local Activity* tl_activity;
/// Innermost finish opened by the current activity at this place (if any);
/// spawns register here, falling back to the activity's inherited context.
extern thread_local FinishHome* tl_open_finish;
}  // namespace detail

/// Index of the current place (valid on runtime worker threads only).
inline int here() {
  assert(detail::tl_place >= 0 && "not on an APGAS worker thread");
  return detail::tl_place;
}

inline int num_places() { return Runtime::get().places(); }

/// Span id of the activity executing on this thread (0 when untraced or off
/// a worker thread). Spawn sites record it as the parent of the new span.
inline std::uint64_t current_span() {
  return detail::tl_activity != nullptr ? detail::tl_activity->span : 0;
}

/// The finish context new spawns should register under.
FinCtx current_spawn_ctx();

// --- exception wire codec ----------------------------------------------------
//
// Cross-process exception rides cannot ship an exception_ptr, so the wire
// form is [kind u8][what string]: the encoder classifies the thrown type into
// a small table of standard exceptions (most-derived first) and the decoder
// rebuilds the matching std type, preserving type identity for every standard
// exception. Anything unrecognized degrades to std::runtime_error with the
// original what() — the documented fidelity limit (docs/transport.md).

/// Appends [kind u8][what string] for the given in-flight exception.
void wire_encode_exception(x10rt::ByteBuffer& b, const std::exception_ptr& ep);

/// Reads [kind u8][what string]; returns a rebuilt exception_ptr.
std::exception_ptr wire_decode_exception(x10rt::ByteBuffer& b);

/// The in-process form, [0xff u8][exception_ptr* u64]: the original
/// exception_ptr rides boxed, keeping the exact thrown type. The one
/// dispatch of its message frees the box.
void box_encode_exception(x10rt::ByteBuffer& b, std::exception_ptr ep);

/// Aborts, naming the peer, when the message being dispatched came from
/// another process: its payload claims to hold `what`, a process-local
/// pointer. Handlers of in-process forms call this before the pointer.
void require_local_origin(const char* what);

}  // namespace apgas

// Per-place work-stealing scheduler (paper §3.1; docs/scheduler.md).
//
// Each place runs `workers_per_place` OS threads (the paper uses one). Every
// worker owns a lock-free Chase–Lev deque: spawns from a worker go to its own
// deque (owner push/pop at the bottom), idle siblings steal from the top in
// random victim order. Pushes from threads that are not workers of this place
// (the bootstrap, transport handlers running elsewhere, cross-place flushers)
// land in a small mutex-guarded overflow inbox that workers drain before
// stealing. Incoming transport messages are drained in batches (one lock
// acquisition per batch, zero per message) and are preferred over local
// tasks; this is what lets FINISH_DENSE masters batch control traffic
// naturally (the relay flusher is a local task and therefore only runs once
// the inbox has drained).
//
// Blocking constructs (finish wait, blocking `at`, team collectives, clock
// advance) never park the thread: they re-enter the scheduler loop and keep
// executing incoming work — including stealing from sibling workers — exactly
// like the X10 runtime's worker "help" protocol. Idle workers spin briefly,
// then park on the transport inbox with exponential backoff; producers skip
// the wakeup syscall entirely while no worker is parked (the sleeper-elision
// handshake in x10rt::Transport).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/activity.h"
#include "runtime/metrics.h"
#include "runtime/worker_deque.h"
#include "x10rt/message.h"

namespace apgas {

class Runtime;

/// Ship->execute latency from a sender-side timestamp, clamped to >= 1 ns.
/// Cross-process stamps come from another process's clock read; even on one
/// host the two reads can land within clock granularity of each other, and
/// the former unsigned subtraction turned that into a ~2^64 ns sample that
/// poisoned the histogram's max (and every percentile above it).
[[nodiscard]] constexpr std::uint64_t ship_latency_ns(std::uint64_t now_ns,
                                                      std::uint64_t send_ns) {
  return now_ns > send_ns ? now_ns - send_ns : 1;
}

class Scheduler {
 public:
  Scheduler(Runtime& rt, int place);
  ~Scheduler();

  /// Enqueues a local activity. Calls from a bound worker of this place go
  /// to that worker's own deque (lock-free); any other thread lands in the
  /// overflow inbox. Sleeping sibling workers are woken, the wakeup is
  /// elided when nobody sleeps.
  void push(Activity a);

  /// Processes one inbox message or one local activity (own deque, then
  /// overflow, then stealing). Returns false when there was nothing to do.
  bool step();

  /// Pumps until `done()` holds; spins then parks on the transport inbox
  /// with exponential backoff when idle. Re-entrant: blocked activities call
  /// this recursively and keep helping (and stealing). Returns on the call
  /// that saw `done()` true and never calls it again, so `done()` may
  /// consume what it waits for (Team::recv_bytes takes its mail).
  void run_until(const std::function<bool()>& done);

  /// Runs `act` to completion on the calling thread with correct
  /// thread-local context and completion accounting.
  void run_activity(Activity& act);

  /// Binds the calling thread as worker `wid` (0 <= wid < workers()) of this
  /// place. Runtime::worker_loop calls this once per worker thread before
  /// entering run_until.
  void bind_worker(int wid);

  /// Unbinds the calling thread, first processing any messages still parked
  /// in its private poll batch (chaos stragglers past the root finish) and
  /// running any task left on its deque, so no delivered message and no task
  /// it spawned is ever lost to teardown.
  void unbind_worker();

  /// Registers a hook invoked when the place transitions to idle (e.g. the
  /// dirty-finish-block flusher). Hooks are append-only and must be
  /// registered before the first worker runs; the hot path reads the list
  /// through one atomic pointer load, no lock.
  void add_idle_hook(std::function<void()> hook);

  [[nodiscard]] int place() const { return place_; }
  [[nodiscard]] int workers() const { return static_cast<int>(workers_.size()); }

  // The counters live in the runtime's MetricsRegistry (under
  // "sched.pN.*"); these getters are thin views kept for existing callers.

  /// Activities run to completion on this place (user tasks + system).
  [[nodiscard]] std::uint64_t activities_executed() const {
    return activities_executed_.load(std::memory_order_relaxed);
  }
  /// Transport messages processed by this place's workers.
  [[nodiscard]] std::uint64_t messages_processed() const {
    return messages_processed_.load(std::memory_order_relaxed);
  }
  /// Busy->idle transitions (how often this place ran dry).
  [[nodiscard]] std::uint64_t idle_transitions() const {
    return idle_transitions_.load(std::memory_order_relaxed);
  }
  /// Successful intra-place steals between sibling workers.
  [[nodiscard]] std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Activities drained from the overflow inbox (external pushes).
  [[nodiscard]] std::uint64_t overflow_drained() const {
    return overflow_drained_.load(std::memory_order_relaxed);
  }
  /// Activities currently parked in the overflow inbox (watchdog diagnosis).
  [[nodiscard]] std::size_t overflow_pending() const {
    return overflow_size_.load(std::memory_order_relaxed);
  }

 private:
  /// Everything one worker thread owns. Only the bound thread touches
  /// `batch` and the bottom end of `deque`; thieves use `deque.steal()`.
  struct Worker {
    Scheduler* sched = nullptr;
    int id = 0;
    WorkerDeque deque;
    std::deque<x10rt::Message> batch;  // private slice of the place inbox
    std::uint64_t rng = 0;             // steal victim order
  };

  /// The calling thread's Worker if it is bound to *this* scheduler.
  Worker* local_worker() const;

  bool pop_local(Activity& out, Worker* w);
  bool try_steal(Activity& out, Worker* thief);
  void consume_message(x10rt::Message& m);
  void run_idle_hooks();

  Runtime& rt_;
  int place_;

  std::vector<std::unique_ptr<Worker>> workers_;

  // External pushes (non-worker threads / other places' workers).
  std::mutex overflow_mu_;
  std::deque<Activity> overflow_;
  std::atomic<std::size_t> overflow_size_{0};

  // Idle hooks: registration is rare and locked; readers follow one acquire
  // pointer load. Superseded snapshots are retained until destruction.
  std::mutex hooks_mu_;
  std::atomic<const std::vector<std::function<void()>>*> hooks_{nullptr};
  std::vector<std::unique_ptr<const std::vector<std::function<void()>>>>
      hook_snapshots_;

  // Registry-owned counters, resolved once at construction.
  MetricsRegistry::Counter& activities_executed_;
  MetricsRegistry::Counter& messages_processed_;
  MetricsRegistry::Counter& idle_transitions_;
  MetricsRegistry::Counter& steals_;
  MetricsRegistry::Counter& overflow_drained_;
  // Messages processed by class, shared across places ("sched.msgs.CLASS").
  std::array<MetricsRegistry::Counter*, x10rt::kNumMsgTypes> msgs_by_type_{};
  // Activity body duration histogram (shared across places), resolved once.
  // Task ship->execute latency is recorded by Runtime::record_ship_latency.
  Histogram& hist_exec_;
};

}  // namespace apgas

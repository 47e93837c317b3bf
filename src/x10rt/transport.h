// X10RT: the transport layer of the X10 runtime stack (paper §3.3).
//
// The real X10RT is a thin API over PAMI / MPI / TCP sockets. This
// implementation realizes the same API surface over shared memory: every
// place owns a FIFO inbox of messages, and the only sanctioned way for places
// to interact is
//   * send_am()         — active messages (tasks, control, collectives, data):
//                         a registered handler id plus payload bytes
//   * put()/get()       — one-sided RDMA on *registered* memory, executed by a
//                         DMA engine thread, completion delivered to the
//                         initiator's inbox (models Torrent RDMA)
//   * remote_*64()      — remote atomic update ops (models the Torrent "GUPS"
//                         feature used by RandomAccess)
//
// A chaos mode delays and reorders queued messages. The paper's finish
// protocols must tolerate network reordering of control messages; the chaos
// decorator provides exactly that adversity under test.
//
// The transport counts every message by class and, optionally, by
// (source, destination) pair so benches can report control-message volume and
// communication-graph out-degree — the metrics §3.1 argues about.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "x10rt/backend.h"
#include "x10rt/buffer_pool.h"
#include "x10rt/message.h"
#include "x10rt/serialization.h"

namespace x10rt {

/// Chaos injection: with probability `delay_prob` a message is parked in a
/// side pool and released later in randomized order (delivery remains
/// guaranteed: pollers drain the pool once the main queue is empty). Chaos
/// reorders and never loses or duplicates: both wires are lossless, and
/// what the finish protocols must survive is control messages arriving out
/// of order. Every decision comes from a deterministic per-destination-place
/// RNG stream (seed + place * constant), so a (seed, delay_prob) pair names
/// one adversary.
struct ChaosConfig {
  double delay_prob = 0.0;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  std::size_t max_delayed = 64;

  [[nodiscard]] bool enabled() const { return delay_prob > 0.0; }
};

struct TransportConfig {
  int places = 1;
  ChaosConfig chaos;
  bool count_pairs = false;  ///< track per-(src,dst) message counts (O(P^2))
  int dma_threads = 1;       ///< RDMA engine threads (0 = synchronous RDMA)
};

/// An RDMA completion (Transport::put/get): a registered handler plus its
/// payload, posted to the initiator's inbox as one kRdma message; handler
/// < 0 = none.
struct Completion {
  int handler = -1;
  ByteBuffer payload;
};

/// Shared-memory X10RT transport. Thread-safe; one instance per "job".
class Transport {
 public:
  explicit Transport(TransportConfig cfg);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] int places() const { return cfg_.places; }

  // --- wire backend (docs/transport.md "Backends") -------------------------

  /// Replaces the default InProcBackend with a multi-process wire (the
  /// socket backend). Must happen before any traffic, from the thread that
  /// constructed the transport. `local_place` is the one place this process
  /// hosts: sends to it keep the in-process fast path, sends to every other
  /// place are encoded into frames and shipped through the backend, and
  /// inbound frames are delivered into the local inbox (so chaos injection
  /// and sleeper wakeups behave identically on both backends).
  void attach_backend(std::unique_ptr<Backend> backend, int local_place);

  /// True when places live in separate processes.
  [[nodiscard]] bool multi_process() const { return multi_proc_; }
  /// The place this process hosts; -1 when every place is in-process.
  [[nodiscard]] int local_place() const { return local_place_; }

  [[nodiscard]] BackendStats backend_stats() const { return backend_->stats(); }
  [[nodiscard]] std::vector<BackendPeerDiag> backend_diag() const {
    return backend_->diag();
  }
  /// Opportunistic push of backend tx backlogs (teardown drain loops).
  void backend_flush() { backend_->flush(); }
  /// True when the backend holds no undelivered outbound bytes for any peer.
  [[nodiscard]] bool backend_tx_drained() const {
    for (const auto& d : backend_->diag()) {
      if (d.tx_pending_bytes != 0) return false;
    }
    return true;
  }

  /// Enqueues a ready-made message for place `dst`: counts it by class
  /// (and by pair) and puts it on the wire. `m.src` must be the sending
  /// place (used for stats and chaos determinism).
  void send(int dst, Message m);

  // --- registered active-message handlers ----------------------------------
  // The real X10RT model: a handler id plus a serialized payload. Every
  // message is in this form (message.h) — task spawns, finish control,
  // collectives, RDMA completions — so all traffic is genuinely in wire
  // form and the backends differ only in how the bytes move.

  using AmHandler = std::function<void(ByteBuffer&)>;

  /// Registers a handler; returns its id. Registration happens during
  /// runtime startup, before any traffic. Not thread-safe against send_am.
  int register_am(AmHandler handler);

  /// Sends (handler id, payload) to `dst`; the destination scheduler invokes
  /// the handler with the payload's read cursor at 0.
  void send_am(int src, int dst, int handler, ByteBuffer payload,
               MsgType type = MsgType::kControl);

  /// Runs a message polled from an inbox: its handler with the payload
  /// (cursor at 0).
  void dispatch(Message& m);

  /// Inside dispatch(): the *other process's* place the running handler's
  /// message came from, or -1 if it was sent in this process. Handlers of
  /// payloads holding process-local pointers reject wire input with it.
  [[nodiscard]] static int dispatch_peer();

  /// A ByteBuffer backed by pooled storage — frame encoders use this instead
  /// of a fresh vector so the control plane recycles wire buffers.
  [[nodiscard]] ByteBuffer acquire_buffer() {
    return ByteBuffer{pool_.acquire()};
  }
  /// Returns a buffer's storage to the pool.
  void recycle_buffer(ByteBuffer&& buf) { pool_.release(buf.take_data()); }

  [[nodiscard]] const BufferPool& pool() const { return pool_; }

  /// Non-blocking pop of the next deliverable message for `place`.
  std::optional<Message> poll(int place);

  /// Drains up to `max` deliverable messages for `place` into `out` under a
  /// single lock acquisition; returns the number appended. The chaos release
  /// check (delayed pool feeds the queue once it runs dry) happens *before*
  /// the batch is taken, exactly as in poll(), so reorder coverage under
  /// chaos is unchanged — batching only amortizes the lock.
  std::size_t poll_batch(int place, std::deque<Message>& out, std::size_t max);

  /// Blocks until the inbox for `place` is (probably) non-empty, it is woken
  /// via notify()/notify_if_sleeping(), or the timeout expires. Returns true
  /// if non-empty. Callers must bracket the call with enter_idle()/
  /// exit_idle() for the sleeper-elision handshake to be sound.
  bool wait_nonempty(int place, std::chrono::microseconds timeout);

  /// Marks the calling worker as (about to be) parked on `place`'s inbox.
  /// seq_cst so it forms a Dekker handshake with notify_if_sleeping(): the
  /// caller must re-check for work *after* enter_idle and only then call
  /// wait_nonempty (see docs/scheduler.md).
  void enter_idle(int place);
  void exit_idle(int place);

  /// Workers currently inside an enter_idle/exit_idle bracket.
  [[nodiscard]] int sleepers(int place) const;

  /// Wakes a scheduler blocked in wait_nonempty (used at shutdown). Always
  /// signals, regardless of the sleeper count.
  void notify(int place);

  /// Fast-path wakeup: signals only when a worker is actually parked (one
  /// seq_cst fence + one relaxed load when nobody is — no mutex, no CV).
  /// Producers of scheduler-local work (deque pushes, overflow pushes) call
  /// this; the common self-push case costs no syscall at all.
  void notify_if_sleeping(int place);

  // --- Registered memory + one-sided operations (paper §3.3) --------------

  /// Ranges one place can register; register_range aborts, naming the
  /// place, past this. The congruent allocator registers one per place.
  static constexpr std::size_t kMaxRangesPerPlace = 16;

  /// Registers [base, base+len) at `place` as RDMA-eligible. Congruent
  /// allocator arenas are registered wholesale at startup. Ranges are never
  /// unregistered.
  void register_range(int place, const void* base, std::size_t len);

  /// Whether [addr, addr+len) lies inside one range registered at `place`.
  /// Takes no lock and writes nothing: every one-sided op runs it.
  [[nodiscard]] bool is_registered(int place, const void* addr,
                                   std::size_t len) const;

  /// One-sided put: copies local memory into `dst_addr` at place `dst`
  /// without involving the destination scheduler, then posts `on_complete`
  /// to the *initiator's* inbox. Both ends must be registered (asserted),
  /// mirroring real RDMA constraints.
  void put(int src, int dst, void* dst_addr, const void* src_addr,
           std::size_t n, Completion on_complete = {});

  /// One-sided get: copies remote memory into a local buffer.
  void get(int src, int dst, void* local_addr, const void* remote_addr,
           std::size_t n, Completion on_complete = {});

  /// Remote atomic XOR of a 64-bit word at place `dst` (the Torrent "GUPS"
  /// feature). Fire-and-forget, executed immediately on the caller thread —
  /// no destination CPU involvement, no completion event.
  void remote_xor64(int src, int dst, std::uint64_t* dst_addr,
                    std::uint64_t val);

  /// Remote atomic add, same contract as remote_xor64.
  void remote_add64(int src, int dst, std::uint64_t* dst_addr,
                    std::uint64_t val);

  // --- Statistics ----------------------------------------------------------

  [[nodiscard]] std::uint64_t count(MsgType t) const;
  [[nodiscard]] std::uint64_t bytes(MsgType t) const;
  [[nodiscard]] std::uint64_t total_messages() const;
  /// One-sided ops and bytes, summed over every initiator.
  [[nodiscard]] std::uint64_t rdma_ops() const;
  [[nodiscard]] std::uint64_t rdma_bytes() const;

  /// Per-pair message count; requires cfg.count_pairs.
  [[nodiscard]] std::uint64_t pair_count(int src, int dst) const;

  /// Largest number of distinct destinations any single place sent to;
  /// requires cfg.count_pairs. This is the out-degree metric FINISH_DENSE
  /// exists to bound.
  [[nodiscard]] int max_out_degree() const;

  /// Same, restricted to kControl messages (finish protocol traffic) —
  /// the graph FINISH_DENSE software routing reshapes.
  [[nodiscard]] std::uint64_t ctrl_pair_count(int src, int dst) const;
  [[nodiscard]] int max_ctrl_out_degree() const;

  // --- Chaos statistics ----------------------------------------------------

  /// Messages that bypassed delay shaping because the delayed pool was
  /// saturated at max_delayed — "passed under chaos" with this nonzero may
  /// mean "chaos was saturated off" (ISSUE 5 satellite).
  [[nodiscard]] std::uint64_t chaos_bypass() const {
    return chaos_bypass_.load(std::memory_order_relaxed);
  }

  // --- Introspection (stall watchdog diagnosis) ----------------------------

  /// Messages currently parked in `place`'s inbox (queued + chaos-delayed).
  /// Takes the inbox lock; diagnosis-path only, not for hot paths.
  [[nodiscard]] std::size_t inbox_depth(int place) const;

  void reset_stats();

 private:
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;
    std::deque<Message> delayed;  // chaos pool
    std::mt19937_64 rng;
    bool notified = false;
    // Workers parked (or about to park) in wait_nonempty. Written with
    // seq_cst RMWs, read behind a seq_cst fence — the Dekker handshake that
    // lets producers skip the mutex+CV signal when nobody is sleeping.
    std::atomic<int> sleepers{0};
  };

  struct DmaOp {
    void* dst;
    const void* src;
    std::size_t n;
    int initiator;
    Completion on_complete;
  };

  /// Chaos delay roll + inbox enqueue.
  void enqueue_locked(Inbox& box, Message&& m);
  void maybe_release_delayed_locked(Inbox& box);
  /// Moves one randomly chosen chaos-delayed message to an empty queue.
  void release_one_delayed_locked(Inbox& box);
  /// The wire itself: chaos injection + inbox enqueue + sleeper-elided
  /// notify.
  void wire_deliver(int dst, Message m);
  /// Encodes `m` into a frame and hands it to the backend.
  void ship_remote(int dst, Message&& m);
  /// Backend sink: validates an inbound frame (abort on malformed input —
  /// the wire is untrusted), decodes the Message, and enqueues it into the
  /// local inbox. Runs on the backend's I/O thread.
  void deliver_frame(int peer, const std::uint8_t* data, std::size_t len);
  /// Posts a finished DMA op's completion to its initiator's inbox.
  void complete_dma(DmaOp& op);
  void submit_dma(DmaOp op);
  /// Counts one one-sided op of `n` bytes in initiator `src`'s slot.
  void count_rdma(int src, std::size_t n);
  void dma_loop();

  TransportConfig cfg_;
  std::unique_ptr<Backend> backend_;
  bool multi_proc_ = false;  // cached backend_->multi_process()
  int local_place_ = -1;     // cached backend_->local_place()
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::vector<AmHandler> am_handlers_;
  BufferPool pool_;

  // Registered memory ranges per place. Every one-sided op validates
  // against them, so readers take no lock: a table is append-only, and
  // register_range fills slot `count` before publishing it with a release
  // store of count + 1. reg_mu_ serializes writers only.
  struct RangeTable {
    struct Range {
      std::uintptr_t base = 0;
      std::size_t len = 0;
    };
    std::array<Range, kMaxRangesPerPlace> slots{};
    std::atomic<std::size_t> count{0};
  };
  std::mutex reg_mu_;
  std::vector<RangeTable> ranges_;

  // One-sided op counters, one cache line per initiator place, so an update
  // writes no line that other places' updates also write.
  struct alignas(64) RdmaSlot {
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  std::vector<RdmaSlot> rdma_;

  // Stats.
  std::atomic<std::uint64_t> counts_[kNumMsgTypes] = {};
  std::atomic<std::uint64_t> bytes_[kNumMsgTypes] = {};
  std::atomic<std::uint64_t> chaos_bypass_{0};
  std::vector<std::atomic<std::uint64_t>> pair_counts_;  // P*P when enabled
  std::vector<std::atomic<std::uint64_t>> ctrl_pair_counts_;

  // DMA engine.
  std::mutex dma_mu_;
  std::condition_variable dma_cv_;
  std::deque<DmaOp> dma_queue_;
  bool dma_stop_ = false;
  std::vector<std::thread> dma_workers_;
};

}  // namespace x10rt

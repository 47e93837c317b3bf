#include "x10rt/transport.h"

#include <algorithm>

#include "x10rt/frame.h"
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace x10rt {

namespace {
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Transport::dispatch_peer() for the handler running on this thread.
thread_local int tl_dispatch_peer = -1;

/// Wraps a payload so every copy of its Message shares one buffer.
std::shared_ptr<std::vector<std::byte>> share(std::vector<std::byte> bytes) {
  return std::make_shared<std::vector<std::byte>>(std::move(bytes));
}
}  // namespace

Transport::Transport(TransportConfig cfg)
    : cfg_(cfg),
      backend_(std::make_unique<InProcBackend>()),
      ranges_(static_cast<std::size_t>(cfg.places)),
      rdma_(static_cast<std::size_t>(cfg.places)) {
  assert(cfg_.places >= 1);
  if (cfg_.chaos.lossy() && !reliability_enabled()) {
    // A lost message with no retransmit layer wedges every finish protocol
    // forever; refuse the configuration loudly instead of hanging silently.
    std::fprintf(stderr,
                 "[x10rt] fatal: chaos drop/dup injection requires the "
                 "reliability sublayer (set retx_timeout_us > 0 / "
                 "APGAS_RETX_TIMEOUT_US)\n");
    std::abort();
  }
  inboxes_.reserve(static_cast<std::size_t>(cfg_.places));
  for (int p = 0; p < cfg_.places; ++p) {
    auto box = std::make_unique<Inbox>();
    box->rng.seed(cfg_.chaos.seed + static_cast<std::uint64_t>(p) * 0x2545F4914F6CDD1DULL);
    inboxes_.push_back(std::move(box));
  }
  if (reliability_enabled()) {
    retx_.reserve(static_cast<std::size_t>(cfg_.places));
    recv_.reserve(static_cast<std::size_t>(cfg_.places));
    retx_next_pump_.reserve(static_cast<std::size_t>(cfg_.places));
    for (int p = 0; p < cfg_.places; ++p) {
      auto rs = std::make_unique<RetxShard>();
      rs->per_dst.resize(static_cast<std::size_t>(cfg_.places));
      retx_.push_back(std::move(rs));
      auto rv = std::make_unique<RecvShard>();
      rv->per_src.resize(static_cast<std::size_t>(cfg_.places));
      recv_.push_back(std::move(rv));
      retx_next_pump_.push_back(
          std::make_unique<std::atomic<std::uint64_t>>(0));
    }
    // Pump from the poll hot path often enough that neither a retransmit
    // timer nor an ack-idle deadline slips by a whole interval.
    const std::uint64_t tick_us =
        std::min(cfg_.retx_timeout_us, std::max<std::uint64_t>(
                                           cfg_.retx_ack_idle_us, 1)) /
        2;
    retx_pump_interval_ns_ = std::max<std::uint64_t>(tick_us, 1) * 1000;
  }
  if (cfg_.count_pairs) {
    pair_counts_ = std::vector<std::atomic<std::uint64_t>>(
        static_cast<std::size_t>(cfg_.places) * cfg_.places);
    ctrl_pair_counts_ = std::vector<std::atomic<std::uint64_t>>(
        static_cast<std::size_t>(cfg_.places) * cfg_.places);
  }
  for (int i = 0; i < cfg_.dma_threads; ++i) {
    dma_workers_.emplace_back([this] { dma_loop(); });
  }
}

Transport::~Transport() {
  // Stop the backend's I/O thread first: no deliver_frame may run while the
  // inboxes and shards below it are being torn down.
  backend_->stop();
  {
    std::scoped_lock lock(dma_mu_);
    dma_stop_ = true;
  }
  dma_cv_.notify_all();
  for (auto& t : dma_workers_) t.join();
}

void Transport::enqueue_locked(Inbox& box, Message&& m) {
  // Chaos dup injection: only sequenced messages (the reliability layer is
  // armed, so the receiver dedups one of the copies). The injected copy goes
  // through the same drop/delay gauntlet as the original, independently.
  if (m.seq != 0 && cfg_.chaos.dup_prob > 0.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(box.rng) < cfg_.chaos.dup_prob) {
      chaos_duped_.fetch_add(1, std::memory_order_relaxed);
      Message copy = m;
      enqueue_copy_locked(box, std::move(copy));
    }
  }
  enqueue_copy_locked(box, std::move(m));
}

void Transport::enqueue_copy_locked(Inbox& box, Message&& m) {
  // Chaos drop injection: discard sequenced messages at the wire; the
  // sender's retransmit queue still holds a copy, so delivery is delayed,
  // not lost. Unsequenced messages (layer off, standalone acks) never drop.
  if (m.seq != 0 && cfg_.chaos.drop_prob > 0.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(box.rng) < cfg_.chaos.drop_prob) {
      chaos_dropped_.fetch_add(1, std::memory_order_relaxed);
      maybe_release_delayed_locked(box);
      return;
    }
  }
  if (cfg_.chaos.delay_prob > 0.0) {
    if (box.delayed.size() < cfg_.chaos.max_delayed) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      if (u(box.rng) < cfg_.chaos.delay_prob) {
        // Park the message; it will be released later in randomized order.
        box.delayed.push_back(std::move(m));
        maybe_release_delayed_locked(box);
        return;
      }
    } else {
      // Delay shaping is saturated off: the message skips the roll entirely.
      // Counted so "passed under chaos" can't silently mean this.
      chaos_bypass_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  box.queue.push_back(std::move(m));
  maybe_release_delayed_locked(box);
}

void Transport::maybe_release_delayed_locked(Inbox& box) {
  if (box.delayed.empty()) return;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  // Each enqueue/poll event gives every parked message an independent chance
  // to be delivered, from a random position — this is what reorders traffic.
  std::size_t i = 0;
  while (i < box.delayed.size()) {
    if (u(box.rng) < 0.5) {
      std::uniform_int_distribution<std::size_t> pick(0, box.delayed.size() - 1);
      const std::size_t j = pick(box.rng);
      box.queue.push_back(std::move(box.delayed[j]));
      box.delayed.erase(box.delayed.begin() + static_cast<std::ptrdiff_t>(j));
    } else {
      ++i;
    }
  }
}

void Transport::send(int dst, Message m) {
  assert(dst >= 0 && dst < cfg_.places);
  const auto idx = static_cast<std::size_t>(m.type);
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  bytes_[idx].fetch_add(m.bytes, std::memory_order_relaxed);
  if (cfg_.count_pairs && m.src >= 0) {
    pair_counts_[static_cast<std::size_t>(m.src) * cfg_.places + dst]
        .fetch_add(1, std::memory_order_relaxed);
    if (m.type == MsgType::kControl) {
      ctrl_pair_counts_[static_cast<std::size_t>(m.src) * cfg_.places + dst]
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Reliability stamping: one branch when the layer is off (zero-cost
  // passthrough). Anonymous sources (src < 0) cannot own a retransmit queue
  // and ship unsequenced, exactly as before.
  if (reliability_enabled() && m.src >= 0 && m.src < cfg_.places &&
      !(m.rflags & kMsgAckOnly)) {
    retx_stamp(dst, m);
  }
  wire_or_remote(dst, std::move(m));
}

void Transport::wire_or_remote(int dst, Message&& m) {
  if (multi_proc_ && dst != local_place_) {
    ship_remote(dst, std::move(m));
    return;
  }
  wire_deliver(dst, std::move(m));
}

void Transport::attach_backend(std::unique_ptr<Backend> backend,
                               int local_place) {
  assert(backend && local_place >= 0 && local_place < cfg_.places);
  if (backend->multi_process() && !reliability_enabled()) {
    std::fprintf(stderr,
                 "[x10rt] fatal: a multi-process backend requires the "
                 "reliability sublayer (set retx_timeout_us > 0 / "
                 "APGAS_RETX_TIMEOUT_US): cross-process teardown drives "
                 "the retransmit queues to the all-acked fixpoint\n");
    std::abort();
  }
  backend_ = std::move(backend);
  multi_proc_ = backend_->multi_process();
  local_place_ = backend_->local_place();
  assert(!multi_proc_ || local_place_ == local_place);
  backend_->start([this](int peer, const std::uint8_t* data, std::size_t len) {
    deliver_frame(peer, data, len);
  });
}

void Transport::ship_remote(int dst, Message&& m) {
  frame::Header h;
  if ((m.rflags & kMsgAckOnly) != 0) {
    h.kind = frame::Kind::kAckOnly;
  } else {
    assert(m.handler >= 0 && "message without a handler");
    h.kind = frame::Kind::kAm;
  }
  h.rflags = m.rflags;
  h.type = m.type;
  h.src = m.src;
  h.handler = m.handler;
  h.seq = m.seq;
  h.ack = m.ack;
  const std::byte* payload = nullptr;
  std::size_t n = 0;
  if (m.payload) {
    payload = m.payload->data();
    n = m.payload->size();
  }
  backend_->send_frame(dst, frame::encode(h, payload, n));
}

void Transport::deliver_frame(int peer, const std::uint8_t* data,
                              std::size_t len) {
  const char* err = frame::validate(data, len, cfg_.places,
                                    static_cast<int>(am_handlers_.size()));
  frame::Header h;
  if (err == nullptr) {
    h = frame::decode_header(data);
    if (h.src != peer) err = "src place does not match the arrival socket";
  }
  if (err != nullptr) {
    std::fprintf(stderr, "[x10rt] fatal: malformed frame from place %d: %s\n",
                 peer, err);
    std::abort();
  }
  Message m;
  m.type = h.type;
  m.src = h.src;
  m.seq = h.seq;
  m.ack = h.ack;
  m.bytes = h.payload_len;
  m.rflags = static_cast<std::uint8_t>(h.rflags | kMsgXProc);
  if (h.kind == frame::Kind::kAm) m.handler = h.handler;
  if (h.kind != frame::Kind::kAckOnly) {
    const auto* body = reinterpret_cast<const std::byte*>(data) +
                       frame::kHeaderBytes;
    m.payload = share(std::vector<std::byte>(body, body + h.payload_len));
  }
  // Into the *local* inbox: chaos injection, dedup at poll, and sleeper
  // wakeup all apply exactly as for an in-process arrival.
  wire_deliver(local_place_, std::move(m));
}

bool Transport::recv_all_acked(int place) const {
  if (!reliability_enabled() || place < 0 || place >= cfg_.places) return true;
  auto& shard = *recv_[static_cast<std::size_t>(place)];
  std::scoped_lock lock(shard.mu);
  for (const auto& rp : shard.per_src) {
    if (rp.cum > rp.acked_sent) return false;
  }
  return true;
}

void Transport::wire_deliver(int dst, Message m) {
  auto& box = *inboxes_[static_cast<std::size_t>(dst)];
  {
    std::scoped_lock lock(box.mu);
    enqueue_locked(box, std::move(m));
  }
  // Sleeper-elided signal: the mutex release above is not a full barrier, so
  // the fence orders the enqueue before the sleeper read (Dekker with the
  // enter_idle RMW on the consumer side — docs/scheduler.md).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (box.sleepers.load(std::memory_order_relaxed) > 0) box.cv.notify_one();
}

void Transport::retx_stamp(int dst, Message& m) {
  const int src = m.src;
  const std::uint64_t now = mono_ns();
  {
    auto& shard = *retx_[static_cast<std::size_t>(src)];
    std::scoped_lock lock(shard.mu);
    auto& pair = shard.per_dst[static_cast<std::size_t>(dst)];
    m.seq = ++pair.next_seq;
    RetxEntry e;
    e.first_send_ns = now;
    e.backoff_us = cfg_.retx_timeout_us;
    e.next_retx_ns = now + e.backoff_us * 1000;
    e.attempts = 1;
    // Retained after the seq is stamped; the piggybacked ack below is *not*
    // part of the retained copy — retransmits refresh it at pump time.
    e.copy = m;
    pair.unacked.emplace(m.seq, std::move(e));
  }
  retx_sent_.fetch_add(1, std::memory_order_relaxed);
  // Piggyback the cumulative ack for the reverse direction (dst -> src
  // traffic delivered at src). Separate critical section: sender-shard and
  // receiver-shard locks are never nested.
  {
    auto& shard = *recv_[static_cast<std::size_t>(src)];
    std::scoped_lock lock(shard.mu);
    auto& rp = shard.per_src[static_cast<std::size_t>(dst)];
    m.ack = rp.cum;
    m.rflags |= kMsgHasAck;
    rp.acked_sent = rp.cum;
    rp.owed_since_ns = 0;
  }
}

bool Transport::retx_admit(int place, Message& m) {
  const int peer = m.src;
  if ((m.rflags & kMsgHasAck) != 0 && peer >= 0 && peer < cfg_.places) {
    retx_process_ack(place, peer, m.ack);
  }
  if ((m.rflags & kMsgAckOnly) != 0) return false;  // consumed at admission
  if (m.seq == 0) return true;                      // unsequenced passthrough
  bool fresh = false;
  {
    auto& shard = *recv_[static_cast<std::size_t>(place)];
    std::scoped_lock lock(shard.mu);
    auto& rp = shard.per_src[static_cast<std::size_t>(peer)];
    if (m.seq <= rp.cum || rp.above.count(m.seq) != 0) {
      // Duplicate. Its arrival proves the sender has not seen our
      // cumulative ack (a piggybacked ack can ride a dropped message), so
      // roll the communicated mark back to force a re-ack — standalone acks
      // are unsequenced and can never be dropped, so this guarantees the
      // sender's retransmit queue eventually drains.
      if (m.seq <= rp.cum && rp.acked_sent >= m.seq) {
        rp.acked_sent = m.seq - 1;
      }
      if (rp.owed_since_ns == 0) rp.owed_since_ns = mono_ns();
    } else {
      fresh = true;
      if (m.seq == rp.cum + 1) {
        rp.cum = m.seq;
        while (!rp.above.empty() && *rp.above.begin() == rp.cum + 1) {
          rp.above.erase(rp.above.begin());
          ++rp.cum;
        }
      } else {
        rp.above.insert(m.seq);
      }
      if (rp.cum > rp.acked_sent && rp.owed_since_ns == 0) {
        rp.owed_since_ns = mono_ns();
      }
    }
  }
  if (!fresh) {
    retx_dups_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void Transport::retx_process_ack(int place, int peer, std::uint64_t ack) {
  struct AckedHook {
    std::uint64_t latency_ns;
    std::uint32_t attempts;
  };
  std::vector<AckedHook> hooked;
  std::uint64_t n = 0;
  {
    auto& shard = *retx_[static_cast<std::size_t>(place)];
    std::scoped_lock lock(shard.mu);
    auto& pair = shard.per_dst[static_cast<std::size_t>(peer)];
    if (ack <= pair.cum_acked) return;
    pair.cum_acked = ack;
    const std::uint64_t now =
        (cfg_.retx_acked_hook && !pair.unacked.empty()) ? mono_ns() : 0;
    auto it = pair.unacked.begin();
    while (it != pair.unacked.end() && it->first <= ack) {
      ++n;
      if (it->second.attempts > 1 && cfg_.retx_acked_hook) {
        const std::uint64_t lat =
            now > it->second.first_send_ns ? now - it->second.first_send_ns : 1;
        hooked.push_back({lat, it->second.attempts});
      }
      it = pair.unacked.erase(it);
    }
  }
  if (n > 0) retx_acked_.fetch_add(n, std::memory_order_relaxed);
  for (const auto& h : hooked) {
    cfg_.retx_acked_hook(place, peer, h.latency_ns, h.attempts);
  }
}

void Transport::retx_maybe_pump(int place) {
  auto& next = *retx_next_pump_[static_cast<std::size_t>(place)];
  const std::uint64_t now = mono_ns();
  std::uint64_t prev = next.load(std::memory_order_relaxed);
  if (now < prev) return;
  // One poller wins the tick; everyone else skips — the pump itself takes
  // the shard locks, so admission control here keeps the hot path cheap.
  if (!next.compare_exchange_strong(prev, now + retx_pump_interval_ns_,
                                    std::memory_order_relaxed)) {
    return;
  }
  retx_pump(place, /*force=*/false);
}

std::size_t Transport::retx_pump(int place, bool force) {
  if (!reliability_enabled() || place < 0 || place >= cfg_.places) return 0;
  const std::uint64_t now = mono_ns();
  // Phase 1: timed-out retransmits. Collect copies under the sender shard
  // lock, refresh their piggybacked acks under the receiver shard lock, then
  // put them on the wire with no shard lock held.
  std::vector<std::pair<int, Message>> resend;
  struct TimeoutHook {
    int dst;
    std::uint64_t seq;
    std::uint32_t attempt;
  };
  std::vector<TimeoutHook> hooks;
  {
    auto& shard = *retx_[static_cast<std::size_t>(place)];
    std::scoped_lock lock(shard.mu);
    for (int d = 0; d < cfg_.places; ++d) {
      auto& pair = shard.per_dst[static_cast<std::size_t>(d)];
      for (auto& [seq, e] : pair.unacked) {
        if (!force && e.next_retx_ns > now) continue;
        if (cfg_.retx_timeout_hook) hooks.push_back({d, seq, e.attempts});
        ++e.attempts;
        e.backoff_us = std::min(e.backoff_us * 2, cfg_.retx_backoff_max_us);
        e.next_retx_ns = now + e.backoff_us * 1000;
        resend.emplace_back(d, e.copy);
      }
    }
  }
  // Phase 2: standalone acks for aged (or force-drained) ack debt. Only owed
  // when cum > acked_sent, so the teardown force loop cannot ping-pong acks
  // forever — an ack-only message never creates new debt at its receiver.
  std::vector<std::pair<int, Message>> acks;
  {
    auto& shard = *recv_[static_cast<std::size_t>(place)];
    std::scoped_lock lock(shard.mu);
    for (int s = 0; s < cfg_.places; ++s) {
      auto& rp = shard.per_src[static_cast<std::size_t>(s)];
      if (rp.cum <= rp.acked_sent) continue;
      const bool aged = rp.owed_since_ns != 0 &&
                        now - rp.owed_since_ns >=
                            cfg_.retx_ack_idle_us * 1000;
      if (!force && !aged) continue;
      Message a;
      a.type = MsgType::kControl;
      a.src = place;
      a.ack = rp.cum;
      a.rflags = kMsgHasAck | kMsgAckOnly;
      acks.emplace_back(s, std::move(a));
      rp.acked_sent = rp.cum;
      rp.owed_since_ns = 0;
    }
    // Refresh the retransmits' piggybacked acks while the lock is held.
    for (auto& [d, m] : resend) {
      auto& rp = shard.per_src[static_cast<std::size_t>(d)];
      m.ack = rp.cum;
      m.rflags |= kMsgHasAck;
      rp.acked_sent = std::max(rp.acked_sent, rp.cum);
      if (rp.acked_sent == rp.cum) rp.owed_since_ns = 0;
    }
  }
  for (const auto& h : hooks) {
    cfg_.retx_timeout_hook(place, h.dst, h.seq, h.attempt);
  }
  if (!resend.empty()) {
    retx_retransmits_.fetch_add(resend.size(), std::memory_order_relaxed);
  }
  if (!acks.empty()) {
    retx_standalone_acks_.fetch_add(acks.size(), std::memory_order_relaxed);
  }
  const std::size_t produced = resend.size() + acks.size();
  for (auto& [d, m] : resend) wire_or_remote(d, std::move(m));
  for (auto& [s, a] : acks) wire_or_remote(s, std::move(a));
  return produced;
}

bool Transport::retx_quiescent() const {
  if (!reliability_enabled()) return true;
  for (int p = 0; p < cfg_.places; ++p) {
    auto& shard = *retx_[static_cast<std::size_t>(p)];
    std::scoped_lock lock(shard.mu);
    for (const auto& pair : shard.per_dst) {
      if (!pair.unacked.empty()) return false;
    }
  }
  return true;
}

std::vector<Transport::RetxDiag> Transport::retx_unacked(int src) const {
  std::vector<RetxDiag> out;
  if (!reliability_enabled() || src < 0 || src >= cfg_.places) return out;
  const std::uint64_t now = mono_ns();
  auto& shard = *retx_[static_cast<std::size_t>(src)];
  std::scoped_lock lock(shard.mu);
  for (int d = 0; d < cfg_.places; ++d) {
    const auto& pair = shard.per_dst[static_cast<std::size_t>(d)];
    if (pair.unacked.empty()) continue;
    const auto& oldest = *pair.unacked.begin();
    RetxDiag diag;
    diag.dst = d;
    diag.oldest_seq = oldest.first;
    diag.age_ns = now > oldest.second.first_send_ns
                      ? now - oldest.second.first_send_ns
                      : 0;
    diag.depth = pair.unacked.size();
    out.push_back(diag);
  }
  return out;
}

void Transport::release_one_delayed_locked(Inbox& box) {
  // Chaos must not withhold the last messages forever: once the queue runs
  // dry, one parked message is released before anything is taken.
  if (!box.queue.empty() || box.delayed.empty()) return;
  std::uniform_int_distribution<std::size_t> pick(0, box.delayed.size() - 1);
  const std::size_t j = pick(box.rng);
  box.queue.push_back(std::move(box.delayed[j]));
  box.delayed.erase(box.delayed.begin() + static_cast<std::ptrdiff_t>(j));
}

// With the reliability layer armed, admission (ack processing / dedup /
// ack-only consumption) runs *outside* the inbox lock: it takes the
// retx/recv shard locks, and a self-send from retx_pump otherwise forms an
// inbox <-> shard ordering cycle. The time-gated pump is also lock-free to
// enter.

std::optional<Message> Transport::poll(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  if (reliability_enabled()) retx_maybe_pump(place);
  for (;;) {
    std::optional<Message> m;
    {
      std::scoped_lock lock(box.mu);
      release_one_delayed_locked(box);
      if (!box.queue.empty()) {
        m = std::move(box.queue.front());
        box.queue.pop_front();
      }
    }
    if (!m || !reliability_enabled() || retx_admit(place, *m)) return m;
    // Duplicate or standalone ack: consumed here, try the next message.
  }
}

std::size_t Transport::poll_batch(int place, std::deque<Message>& out,
                                  std::size_t max) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  if (reliability_enabled()) retx_maybe_pump(place);
  // Callers treat a zero return as "inbox empty", so a batch that admits
  // nothing — a retransmit storm of duplicates, or standalone acks — must
  // not end the call while raw messages remain queued: keep taking batches
  // until something is admitted or the queue is actually drained.
  const std::size_t base = out.size();
  for (;;) {
    {
      std::scoped_lock lock(box.mu);
      release_one_delayed_locked(box);
      while (out.size() - base < max && !box.queue.empty()) {
        out.push_back(std::move(box.queue.front()));
        box.queue.pop_front();
      }
    }
    if (out.size() == base || !reliability_enabled()) return out.size() - base;
    auto kept = out.begin() + static_cast<std::ptrdiff_t>(base);
    for (auto it = kept; it != out.end(); ++it) {
      if (!retx_admit(place, *it)) continue;
      if (it != kept) *kept = std::move(*it);
      ++kept;
    }
    out.erase(kept, out.end());
    if (out.size() > base) return out.size() - base;
  }
}

bool Transport::wait_nonempty(int place, std::chrono::microseconds timeout) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  std::unique_lock lock(box.mu);
  box.cv.wait_for(lock, timeout, [&box] {
    return !box.queue.empty() || !box.delayed.empty() || box.notified;
  });
  box.notified = false;
  return !box.queue.empty() || !box.delayed.empty();
}

void Transport::enter_idle(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  box.sleepers.fetch_add(1, std::memory_order_seq_cst);
  // Order the sleeper announcement before the caller's subsequent work
  // re-check (the other half of the Dekker handshake with producers).
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void Transport::exit_idle(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  box.sleepers.fetch_sub(1, std::memory_order_relaxed);
}

int Transport::sleepers(int place) const {
  return inboxes_[static_cast<std::size_t>(place)]->sleepers.load(
      std::memory_order_relaxed);
}

void Transport::notify(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  {
    std::scoped_lock lock(box.mu);
    box.notified = true;
  }
  box.cv.notify_all();
}

void Transport::notify_if_sleeping(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  // The producer published its work (deque bottom_ release-store or overflow
  // push) before calling; the fence orders that store before the sleeper
  // read so producer and sleeper cannot both take their fast paths.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (box.sleepers.load(std::memory_order_relaxed) == 0) return;
  {
    std::scoped_lock lock(box.mu);
    box.notified = true;
  }
  box.cv.notify_one();
}

void Transport::register_range(int place, const void* base, std::size_t len) {
  std::scoped_lock lock(reg_mu_);
  RangeTable& table = ranges_[static_cast<std::size_t>(place)];
  const std::size_t n = table.count.load(std::memory_order_relaxed);
  if (n == kMaxRangesPerPlace) {
    std::fprintf(stderr,
                 "[x10rt] fatal: place %d cannot register another memory "
                 "range (table full at %zu ranges)\n",
                 place, kMaxRangesPerPlace);
    std::abort();
  }
  table.slots[n] = {reinterpret_cast<std::uintptr_t>(base), len};
  table.count.store(n + 1, std::memory_order_release);
}

bool Transport::is_registered(int place, const void* addr,
                              std::size_t len) const {
  const RangeTable& table = ranges_[static_cast<std::size_t>(place)];
  const std::size_t n = table.count.load(std::memory_order_acquire);
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = table.slots[i];
    if (a >= r.base && a - r.base <= r.len && len <= r.len - (a - r.base)) {
      return true;
    }
  }
  return false;
}

void Transport::count_rdma(int src, std::size_t n) {
  assert(src >= 0 && src < cfg_.places && "RDMA initiator out of range");
  RdmaSlot& slot = rdma_[static_cast<std::size_t>(src)];
  slot.ops.fetch_add(1, std::memory_order_relaxed);
  slot.bytes.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Transport::rdma_ops() const {
  std::uint64_t sum = 0;
  for (const auto& slot : rdma_) {
    sum += slot.ops.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t Transport::rdma_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& slot : rdma_) {
    sum += slot.bytes.load(std::memory_order_relaxed);
  }
  return sum;
}

void Transport::complete_dma(DmaOp& op) {
  std::memcpy(op.dst, op.src, op.n);
  if (op.on_complete.handler < 0) return;
  // A completion is a local event, not wire traffic: one kRdma message of
  // 0 accounted bytes.
  Message m;
  m.handler = op.on_complete.handler;
  m.payload = share(op.on_complete.payload.take_data());
  m.type = MsgType::kRdma;
  m.src = op.initiator;
  send(op.initiator, std::move(m));
}

void Transport::submit_dma(DmaOp op) {
  count_rdma(op.initiator, op.n);
  if (dma_workers_.empty()) {
    complete_dma(op);  // synchronous fallback (dma_threads = 0)
    return;
  }
  {
    std::scoped_lock lock(dma_mu_);
    dma_queue_.push_back(std::move(op));
  }
  dma_cv_.notify_one();
}

void Transport::dma_loop() {
  for (;;) {
    DmaOp op;
    {
      std::unique_lock lock(dma_mu_);
      dma_cv_.wait(lock, [this] { return dma_stop_ || !dma_queue_.empty(); });
      if (dma_queue_.empty()) return;  // stop requested and drained
      op = std::move(dma_queue_.front());
      dma_queue_.pop_front();
    }
    complete_dma(op);
  }
}

namespace {
/// Shared-memory one-sided ops dereference the target address directly, so
/// under a multi-process backend a remote put/get/atomic would silently hit
/// this process's copy of the page — abort instead of corrupting.
void require_local(bool multi_proc, int local_place, int dst,
                   const char* what) {
  if (multi_proc && dst != local_place) {
    std::fprintf(stderr,
                 "[x10rt] fatal: %s to remote place %d is not supported by "
                 "the socket backend (one-sided ops are shared-memory only)\n",
                 what, dst);
    std::abort();
  }
}
}  // namespace

void Transport::put(int src, int dst, void* dst_addr, const void* src_addr,
                    std::size_t n, Completion on_complete) {
  require_local(multi_proc_, local_place_, dst, "RDMA put");
  assert(is_registered(dst, dst_addr, n) &&
         "RDMA put target must be registered memory");
  submit_dma(DmaOp{dst_addr, src_addr, n, src, std::move(on_complete)});
}

void Transport::get(int src, int dst, void* local_addr,
                    const void* remote_addr, std::size_t n,
                    Completion on_complete) {
  require_local(multi_proc_, local_place_, dst, "RDMA get");
  assert(is_registered(dst, remote_addr, n) &&
         "RDMA get source must be registered memory");
  submit_dma(DmaOp{local_addr, remote_addr, n, src, std::move(on_complete)});
}

void Transport::remote_xor64(int src, int dst, std::uint64_t* dst_addr,
                             std::uint64_t val) {
  require_local(multi_proc_, local_place_, dst, "remote_xor64");
  assert(is_registered(dst, dst_addr, sizeof(std::uint64_t)));
  count_rdma(src, sizeof(std::uint64_t));
  std::atomic_ref<std::uint64_t>(*dst_addr)
      .fetch_xor(val, std::memory_order_relaxed);
}

void Transport::remote_add64(int src, int dst, std::uint64_t* dst_addr,
                             std::uint64_t val) {
  require_local(multi_proc_, local_place_, dst, "remote_add64");
  assert(is_registered(dst, dst_addr, sizeof(std::uint64_t)));
  count_rdma(src, sizeof(std::uint64_t));
  std::atomic_ref<std::uint64_t>(*dst_addr)
      .fetch_add(val, std::memory_order_relaxed);
}

int Transport::register_am(AmHandler handler) {
  am_handlers_.push_back(std::move(handler));
  return static_cast<int>(am_handlers_.size()) - 1;
}

void Transport::send_am(int src, int dst, int handler, ByteBuffer payload,
                        MsgType type) {
  assert(handler >= 0 &&
         handler < static_cast<int>(am_handlers_.size()) &&
         "send_am with unregistered handler");
  const std::size_t wire = payload.size() + sizeof(int);
  Message m;
  m.handler = handler;
  m.payload = share(payload.take_data());
  m.src = src;
  m.type = type;
  m.bytes = wire;
  send(dst, std::move(m));
}

int Transport::dispatch_peer() { return tl_dispatch_peer; }

void Transport::dispatch(Message& m) {
  // The payload moves into the handler's buffer when this message is its
  // only holder; a retained retransmit copy or a chaos duplicate may still
  // share it, and then the handler gets a copy (shared bytes are immutable).
  ByteBuffer buf;
  if (m.payload) {
    if (m.payload.use_count() == 1) {
      buf = ByteBuffer{std::move(*m.payload)};
    } else {
      std::vector<std::byte> copy = pool_.acquire();
      copy.assign(m.payload->begin(), m.payload->end());
      buf = ByteBuffer{std::move(copy)};
    }
    m.payload.reset();
  }
  assert(m.handler >= 0 && m.handler < static_cast<int>(am_handlers_.size()) &&
         "dispatch of a message without a registered handler");
  struct PeerScope {
    int saved;
    explicit PeerScope(int peer) : saved(tl_dispatch_peer) {
      tl_dispatch_peer = peer;
    }
    ~PeerScope() { tl_dispatch_peer = saved; }
  } scope((m.rflags & kMsgXProc) != 0 ? m.src : -1);
  am_handlers_[static_cast<std::size_t>(m.handler)](buf);
  pool_.release(buf.take_data());
}

std::uint64_t Transport::count(MsgType t) const {
  return counts_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
}

std::uint64_t Transport::bytes(MsgType t) const {
  return bytes_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
}

std::uint64_t Transport::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Transport::pair_count(int src, int dst) const {
  assert(cfg_.count_pairs);
  return pair_counts_[static_cast<std::size_t>(src) * cfg_.places + dst].load(
      std::memory_order_relaxed);
}

int Transport::max_out_degree() const {
  assert(cfg_.count_pairs);
  int max_deg = 0;
  for (int s = 0; s < cfg_.places; ++s) {
    int deg = 0;
    for (int d = 0; d < cfg_.places; ++d) {
      if (pair_count(s, d) > 0) ++deg;
    }
    max_deg = std::max(max_deg, deg);
  }
  return max_deg;
}

std::uint64_t Transport::ctrl_pair_count(int src, int dst) const {
  assert(cfg_.count_pairs);
  return ctrl_pair_counts_[static_cast<std::size_t>(src) * cfg_.places + dst]
      .load(std::memory_order_relaxed);
}

int Transport::max_ctrl_out_degree() const {
  assert(cfg_.count_pairs);
  int max_deg = 0;
  for (int s = 0; s < cfg_.places; ++s) {
    int deg = 0;
    for (int d = 0; d < cfg_.places; ++d) {
      if (ctrl_pair_count(s, d) > 0) ++deg;
    }
    max_deg = std::max(max_deg, deg);
  }
  return max_deg;
}

std::size_t Transport::inbox_depth(int place) const {
  if (place < 0 || place >= cfg_.places) return 0;
  Inbox& box = *inboxes_[static_cast<std::size_t>(place)];
  std::scoped_lock lock(box.mu);
  return box.queue.size() + box.delayed.size();
}

void Transport::reset_stats() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  for (auto& b : bytes_) b.store(0, std::memory_order_relaxed);
  for (auto& slot : rdma_) {
    slot.ops.store(0, std::memory_order_relaxed);
    slot.bytes.store(0, std::memory_order_relaxed);
  }
  retx_sent_.store(0, std::memory_order_relaxed);
  retx_acked_.store(0, std::memory_order_relaxed);
  retx_retransmits_.store(0, std::memory_order_relaxed);
  retx_dups_dropped_.store(0, std::memory_order_relaxed);
  retx_standalone_acks_.store(0, std::memory_order_relaxed);
  chaos_dropped_.store(0, std::memory_order_relaxed);
  chaos_duped_.store(0, std::memory_order_relaxed);
  chaos_bypass_.store(0, std::memory_order_relaxed);
  for (auto& pc : pair_counts_) pc.store(0, std::memory_order_relaxed);
  for (auto& pc : ctrl_pair_counts_) pc.store(0, std::memory_order_relaxed);
}

}  // namespace x10rt

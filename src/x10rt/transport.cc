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
/// Transport::dispatch_peer() for the handler running on this thread.
thread_local int tl_dispatch_peer = -1;
}  // namespace

Transport::Transport(TransportConfig cfg)
    : cfg_(cfg),
      backend_(std::make_unique<InProcBackend>()),
      ranges_(static_cast<std::size_t>(cfg.places)),
      rdma_(static_cast<std::size_t>(cfg.places)) {
  assert(cfg_.places >= 1);
  inboxes_.reserve(static_cast<std::size_t>(cfg_.places));
  for (int p = 0; p < cfg_.places; ++p) {
    auto box = std::make_unique<Inbox>();
    box->rng.seed(cfg_.chaos.seed + static_cast<std::uint64_t>(p) * 0x2545F4914F6CDD1DULL);
    inboxes_.push_back(std::move(box));
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
  // inboxes below it are being torn down.
  backend_->stop();
  {
    std::scoped_lock lock(dma_mu_);
    dma_stop_ = true;
  }
  dma_cv_.notify_all();
  for (auto& t : dma_workers_) t.join();
}

void Transport::enqueue_locked(Inbox& box, Message&& m) {
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
  if (multi_proc_ && dst != local_place_) {
    ship_remote(dst, std::move(m));
    return;
  }
  wire_deliver(dst, std::move(m));
}

void Transport::attach_backend(std::unique_ptr<Backend> backend,
                               int local_place) {
  assert(backend && local_place >= 0 && local_place < cfg_.places);
  backend_ = std::move(backend);
  multi_proc_ = backend_->multi_process();
  local_place_ = backend_->local_place();
  assert(!multi_proc_ || local_place_ == local_place);
  backend_->start([this](int peer, const std::uint8_t* data, std::size_t len) {
    deliver_frame(peer, data, len);
  });
}

void Transport::ship_remote(int dst, Message&& m) {
  assert(m.handler >= 0 && "message without a handler");
  frame::Header h;
  h.type = m.type;
  h.src = m.src;
  h.handler = m.handler;
  backend_->send_frame(dst,
                       frame::encode(h, m.payload.data(), m.payload.size()));
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
  m.handler = h.handler;
  m.type = h.type;
  m.src = h.src;
  m.bytes = h.payload_len;
  m.xproc = true;
  const auto* body =
      reinterpret_cast<const std::byte*>(data) + frame::kHeaderBytes;
  m.payload.assign(body, body + h.payload_len);
  // Into the *local* inbox: chaos injection and sleeper wakeup apply
  // exactly as for an in-process arrival.
  wire_deliver(local_place_, std::move(m));
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

void Transport::release_one_delayed_locked(Inbox& box) {
  // Chaos must not withhold the last messages forever: once the queue runs
  // dry, one parked message is released before anything is taken.
  if (!box.queue.empty() || box.delayed.empty()) return;
  std::uniform_int_distribution<std::size_t> pick(0, box.delayed.size() - 1);
  const std::size_t j = pick(box.rng);
  box.queue.push_back(std::move(box.delayed[j]));
  box.delayed.erase(box.delayed.begin() + static_cast<std::ptrdiff_t>(j));
}

std::optional<Message> Transport::poll(int place) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  std::scoped_lock lock(box.mu);
  release_one_delayed_locked(box);
  if (box.queue.empty()) return std::nullopt;
  std::optional<Message> m = std::move(box.queue.front());
  box.queue.pop_front();
  return m;
}

std::size_t Transport::poll_batch(int place, std::deque<Message>& out,
                                  std::size_t max) {
  auto& box = *inboxes_[static_cast<std::size_t>(place)];
  std::scoped_lock lock(box.mu);
  release_one_delayed_locked(box);
  std::size_t n = 0;
  while (n < max && !box.queue.empty()) {
    out.push_back(std::move(box.queue.front()));
    box.queue.pop_front();
    ++n;
  }
  return n;
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
  m.payload = op.on_complete.payload.take_data();
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
  m.payload = payload.take_data();
  m.src = src;
  m.type = type;
  m.bytes = wire;
  send(dst, std::move(m));
}

int Transport::dispatch_peer() { return tl_dispatch_peer; }

void Transport::dispatch(Message& m) {
  // The payload moves into the handler's buffer: a message is dispatched
  // once and nothing else holds its bytes.
  ByteBuffer buf{std::move(m.payload)};
  assert(m.handler >= 0 && m.handler < static_cast<int>(am_handlers_.size()) &&
         "dispatch of a message without a registered handler");
  struct PeerScope {
    int saved;
    explicit PeerScope(int peer) : saved(tl_dispatch_peer) {
      tl_dispatch_peer = peer;
    }
    ~PeerScope() { tl_dispatch_peer = saved; }
  } scope(m.xproc ? m.src : -1);
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
  chaos_bypass_.store(0, std::memory_order_relaxed);
  for (auto& pc : pair_counts_) pc.store(0, std::memory_order_relaxed);
  for (auto& pc : ctrl_pair_counts_) pc.store(0, std::memory_order_relaxed);
}

}  // namespace x10rt

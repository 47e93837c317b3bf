#include "runtime/finish.h"

#include <cassert>
#include <utility>

#include "runtime/runtime.h"
#include "runtime/task_registry.h"
#include "runtime/trace.h"

namespace apgas {

namespace {

/// Every finish control frame leaves through here: one place to keep the
/// MetricsRegistry tallies, the trace's kMsgSend events, and the actual
/// transport send_am in sync.
void send_ctrl_am(Runtime& rt, int src, int dst, int handler,
                  x10rt::ByteBuffer buf, MetricsRegistry::Counter* counter,
                  x10rt::MsgType type = x10rt::MsgType::kControl) {
  counter->fetch_add(1, std::memory_order_relaxed);
  trace::emit_at(src, trace::Ev::kMsgSend, static_cast<std::uint64_t>(type),
                 static_cast<std::uint64_t>(dst));
  rt.transport().send_am(src, dst, handler, std::move(buf), type);
}

}  // namespace

// --- snapshot codec ----------------------------------------------------------

void encode_snapshot(x10rt::ByteBuffer& buf, const Snapshot& s) {
  buf.put(s.key.home);
  buf.put(s.key.seq);
  buf.put(s.place);
  buf.put(s.seq);
  buf.put(s.received);
  buf.put(s.completed);
  buf.put(static_cast<std::uint32_t>(s.sent.size()));
  for (const auto& [dst, count] : s.sent) {
    buf.put(dst);
    buf.put(count);
  }
}

Snapshot decode_snapshot(x10rt::ByteBuffer& buf) {
  Snapshot s;
  s.key.home = buf.get<int>();
  s.key.seq = buf.get<std::uint64_t>();
  s.place = buf.get<int>();
  s.seq = buf.get<std::uint64_t>();
  s.received = buf.get<std::uint64_t>();
  s.completed = buf.get<std::uint64_t>();
  const auto n = buf.get<std::uint32_t>();
  s.sent.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const int dst = buf.get<int>();
    const auto count = buf.get<std::uint64_t>();
    s.sent.emplace_back(dst, count);
  }
  return s;
}

// --- FinishHome --------------------------------------------------------------

FinishHome::FinishHome(Runtime& rt, Pragma pragma) : rt_(rt), pragma_(pragma) {
  const int h = here();
  auto& ps = rt_.pstate(h);
  key_ = FinishKey{h, ps.next_finish_seq.fetch_add(1, std::memory_order_relaxed)};
  {
    std::scoped_lock lock(ps.fin_mu);
    ps.home_finishes.emplace(key_.seq, this);
  }
  rt_.fin_counters().opened->fetch_add(1, std::memory_order_relaxed);
  if (hist::enabled()) open_ns_ = hist::now_ns();
  trace::emit(trace::Ev::kFinishOpen, key_.seq,
              static_cast<std::uint64_t>(pragma_));
  if (pragma_ == Pragma::kDefault || pragma_ == Pragma::kDense) {
    std::scoped_lock lock(mu_);
    upgrade();
  }
}

FinishHome::~FinishHome() {
  auto& ps = rt_.pstate(key_.home);
  std::scoped_lock lock(ps.fin_mu);
  ps.home_finishes.erase(key_.seq);
}

Pragma FinishHome::mode() const {
  if (pragma_ == Pragma::kAuto) {
    return upgraded_ ? Pragma::kDefault : Pragma::kLocal;
  }
  return pragma_;
}

void FinishHome::upgrade() {
  if (matrix_active_) return;
  if (pragma_ == Pragma::kAuto) {
    // Count (and trace) only dynamic upgrades — the paper's "optimistic
    // local counter turned distributed" moment, not explicit matrix modes.
    rt_.fin_counters().upgrades->fetch_add(1, std::memory_order_relaxed);
    trace::emit(trace::Ev::kFinishUpgrade, key_.seq);
  }
  const int p = rt_.places();
  rows_.resize(static_cast<std::size_t>(p));
  col_sent_.assign(static_cast<std::size_t>(p), 0);
  balanced_.assign(static_cast<std::size_t>(p), 1);
  imbalance_ = 0;
  matrix_active_ = true;
  upgraded_ = true;
}

void FinishHome::local_spawn() {
  std::scoped_lock lock(mu_);
  ++local_live_;
}

void FinishHome::local_complete() {
  std::scoped_lock lock(mu_);
  --local_live_;
  assert(local_live_ >= 0);
}

void FinishHome::remote_spawn(int dst) {
  std::scoped_lock lock(mu_);
  switch (mode()) {
    case Pragma::kLocal:
      // The paper's dynamic optimization: a plain finish optimistically
      // assumes locality and switches protocols on the first remote spawn.
      // An explicit FINISH_LOCAL pragma promised no remote spawns.
      assert(pragma_ == Pragma::kAuto && "FINISH_LOCAL governs a remote spawn");
      upgrade();
      [[fallthrough]];
    case Pragma::kDefault:
    case Pragma::kDense: {
      auto& row = rows_[static_cast<std::size_t>(key_.home)];
      ++row.sent[dst];
      ++col_sent_[static_cast<std::size_t>(dst)];
      update_balance(dst);
      break;
    }
    case Pragma::kAsync:
    case Pragma::kSpmd:
      ++credits_;
      break;
    case Pragma::kHere:
      // Weight accounting happens at mint_credit()/credit_return(); the
      // spawner (api.h) mints or splits the weight before shipping the task.
      break;
    case Pragma::kAuto:
      assert(false);  // mode() never returns kAuto
  }
}

void FinishHome::home_task_received() {
  std::scoped_lock lock(mu_);
  if (!matrix_active_) return;  // kHere tasks at home: credit accounting only
  auto& row = rows_[static_cast<std::size_t>(key_.home)];
  ++row.received;
  update_balance(key_.home);
}

void FinishHome::home_task_completed() {
  std::scoped_lock lock(mu_);
  if (!matrix_active_) return;
  auto& row = rows_[static_cast<std::size_t>(key_.home)];
  ++row.completed;
  update_balance(key_.home);
}

std::uint64_t FinishHome::mint_credit() {
  std::scoped_lock lock(mu_);
  credit_out_ += kCreditUnit;
  return kCreditUnit;
}

void FinishHome::credit_return(std::uint64_t weight) {
  std::scoped_lock lock(mu_);
  assert(credit_out_ >= weight && "credit return exceeds outstanding weight");
  credit_out_ -= weight;
}

void FinishHome::on_completions(std::uint64_t n) {
  std::scoped_lock lock(mu_);
  credits_ -= static_cast<std::int64_t>(n);
  assert(credits_ >= 0);
}

void FinishHome::update_balance(int q) {
  const auto qi = static_cast<std::size_t>(q);
  const auto& row = rows_[qi];
  const bool bal = col_sent_[qi] == row.received && row.received == row.completed;
  if (bal != static_cast<bool>(balanced_[qi])) {
    balanced_[qi] = bal ? 1 : 0;
    imbalance_ += bal ? -1 : 1;
  }
}

void FinishHome::apply_row_delta(int place, const Snapshot& s) {
  auto& row = rows_[static_cast<std::size_t>(place)];
  for (const auto& [dst, cum] : s.sent) {
    auto& cell = row.sent[dst];
    if (cum != cell) {
      // Counters are cumulative, so the delta is exact even if intermediate
      // snapshots were lost to reordering and superseded.
      col_sent_[static_cast<std::size_t>(dst)] += cum - cell;
      cell = cum;
      update_balance(dst);
    }
  }
  row.received = s.received;
  row.completed = s.completed;
  row.seq = s.seq;
  update_balance(place);
}

void FinishHome::apply_snapshot(const Snapshot& s) {
  std::scoped_lock lock(mu_);
  assert(matrix_active_);
  if (s.seq <= rows_[static_cast<std::size_t>(s.place)].seq) {
    // Stale snapshot overtaken by a newer one (network reordering). The
    // sweep tests assert sent == applied + stale as exact accounting.
    rt_.fin_counters().snapshots_stale->fetch_add(1,
                                                  std::memory_order_relaxed);
    return;
  }
  rt_.fin_counters().snapshots_applied->fetch_add(1,
                                                  std::memory_order_relaxed);
  apply_row_delta(s.place, s);
}

void FinishHome::on_exception(std::exception_ptr ep) {
  std::scoped_lock lock(mu_);
  exceptions_.push_back(std::move(ep));
}

bool FinishHome::terminated() {
  std::scoped_lock lock(mu_);
  if (local_live_ != 0) return false;
  switch (mode()) {
    case Pragma::kLocal:
      return true;
    case Pragma::kAsync:
    case Pragma::kSpmd:
      return credits_ == 0;
    case Pragma::kHere:
      return credit_out_ == 0;
    case Pragma::kDefault:
    case Pragma::kDense:
      return imbalance_ == 0;
    case Pragma::kAuto:
      break;
  }
  assert(false);
  return true;
}

void FinishHome::wait() {
  rt_.sched(key_.home).run_until([this] { return terminated(); });

  // Tell every place that participated to release its counter block; at
  // termination all blocks are clean (balance implies every counter was
  // reported), so no snapshot for this key can still be in flight.
  if (matrix_active_) {
    for (int q = 0; q < rt_.places(); ++q) {
      if (q == key_.home || rows_[static_cast<std::size_t>(q)].seq == 0)
        continue;
      // Block release is bookkeeping, not termination detection: classify
      // it as kOther so control-traffic metrics measure the protocol itself.
      x10rt::ByteBuffer frame = rt_.transport().acquire_buffer();
      frame.put(key_.home);
      frame.put(key_.seq);
      send_ctrl_am(rt_, key_.home, q, rt_.am_release(), std::move(frame),
                   rt_.fin_counters().releases, x10rt::MsgType::kOther);
    }
  }
  trace::emit(trace::Ev::kFinishClose, key_.seq,
              static_cast<std::uint64_t>(pragma_));
  rt_.fin_counters().closed->fetch_add(1, std::memory_order_relaxed);
  // Keyed by the declared pragma (matching kFinishOpen/Close and the async
  // trace track), not mode(): an upgraded kAuto still closes under "auto".
  if (open_ns_ != 0) {
    rt_.fin_close_hist(pragma_).record(hist::now_ns() - open_ns_);
  }

  std::exception_ptr first;
  {
    std::scoped_lock lock(mu_);
    if (!exceptions_.empty()) first = exceptions_.front();
  }
  if (first) std::rethrow_exception(first);
}

Pragma FinishHome::recommended_pragma() const {
  std::scoped_lock lock(mu_);
  if (!matrix_active_) {
    // Never left the optimistic local protocol.
    return Pragma::kLocal;
  }
  const auto home = static_cast<std::size_t>(key_.home);
  std::uint64_t home_spawns = 0;
  for (const auto& [dst, count] : rows_[home].sent) {
    (void)dst;
    home_spawns += count;
  }
  if (home_spawns == 0) return Pragma::kLocal;

  bool remote_spawned = false;
  bool remote_targets_only_home_or_self = true;
  bool remote_sends_home = false;
  std::size_t active_pairs = rows_[home].sent.size();
  int active_places = 1;
  for (std::size_t q = 0; q < rows_.size(); ++q) {
    if (q == home) continue;
    const Row& row = rows_[q];
    if (row.received > 0 || !row.sent.empty()) ++active_places;
    if (row.sent.empty()) continue;
    remote_spawned = true;
    active_pairs += row.sent.size();
    for (const auto& [dst, count] : row.sent) {
      (void)count;
      if (dst == key_.home) {
        remote_sends_home = true;
      } else if (dst != static_cast<int>(q)) {
        remote_targets_only_home_or_self = false;
      }
    }
  }
  if (!remote_spawned) {
    // Only the home activity spawned: a single activity is FINISH_ASYNC,
    // one per destination with nothing nested is FINISH_SPMD.
    return home_spawns == 1 ? Pragma::kAsync : Pragma::kSpmd;
  }
  if (remote_targets_only_home_or_self && remote_sends_home) {
    // Every cross-place remote spawn points back home: round-trip chains
    // (the "gets" of SPMD codes).
    return Pragma::kHere;
  }
  if (remote_targets_only_home_or_self) {
    // Remote activities only spawned locally under the governing finish —
    // legal for the general protocol only (SPMD would require nesting).
    return Pragma::kDefault;
  }
  // Irregular remote-to-remote spawning: dense graphs benefit from the
  // software-routed protocol once the pair count outgrows the place count.
  return active_pairs > 2 * static_cast<std::size_t>(active_places)
             ? Pragma::kDense
             : Pragma::kDefault;
}

// --- place-side dispatchers --------------------------------------------------

namespace {

/// Block for (key, place), creating it with the given mode on first touch.
/// Caller must hold ps.fin_mu? No: this takes the lock itself and returns a
/// stable pointer (blocks are unique_ptr-held and only erased by release
/// messages, which cannot race with live activity for the same finish).
RemoteBlock* get_block(Runtime& rt, int place, FinishKey key, Pragma mode) {
  auto& ps = rt.pstate(place);
  std::scoped_lock lock(ps.fin_mu);
  auto& slot = ps.blocks[key];
  if (!slot) {
    slot = std::make_unique<RemoteBlock>();
    slot->mode = mode;
  }
  return slot.get();
}

/// Next hop of the FINISH_DENSE software route p -> master(p) ->
/// master(home) -> home (paper §3.1).
int dense_next_hop(Runtime& rt, int at, int final_home) {
  const int mh = rt.master_of(final_home);
  if (at != rt.master_of(at)) return rt.master_of(at);
  return at == mh ? final_home : mh;
}

void send_snapshot_home(Runtime& rt, const Snapshot& snap, Pragma mode) {
  // Counted at the origin, whether it travels directly or via dense relays;
  // the home side counts applied + stale, so the two must balance.
  rt.fin_counters().snapshots_sent->fetch_add(1, std::memory_order_relaxed);
  x10rt::ByteBuffer buf = rt.transport().acquire_buffer();
  encode_snapshot(buf, snap);
  const FinishKey key = snap.key;
  if (mode == Pragma::kDense && rt.config().places_per_node > 1) {
    std::vector<std::byte> frame(buf.bytes().begin(), buf.bytes().end());
    dense_relay_enqueue(rt, here(), key.home, std::move(frame));
    return;
  }
  trace::emit(trace::Ev::kMsgSend,
              static_cast<std::uint64_t>(x10rt::MsgType::kControl),
              static_cast<std::uint64_t>(key.home));
  rt.transport().send_am(here(), key.home, rt.am_snapshot(), std::move(buf));
}

}  // namespace

bool fin_before_remote_spawn(Runtime& rt, const FinCtx& ctx, int dst,
                             bool spawner_has_credit) {
  assert(ctx.home == nullptr);  // home-side spawns go through FinishHome
  switch (ctx.mode) {
    case Pragma::kDefault:
    case Pragma::kDense: {
      auto& ps = rt.pstate(here());
      RemoteBlock* b = get_block(rt, here(), ctx.key, ctx.mode);
      std::scoped_lock lock(ps.fin_mu);
      ++b->sent[dst];
      b->dirty = true;
      return false;
    }
    case Pragma::kHere:
      assert(spawner_has_credit &&
             "every remote activity under FINISH_HERE carries a credit");
      return true;
    case Pragma::kAsync:
    case Pragma::kSpmd:
      assert(false &&
             "FINISH_ASYNC/FINISH_SPMD: remote activities must not spawn "
             "under the governing finish (open a nested finish)");
      return false;
    default:
      assert(false);
      return false;
  }
}

FinCtx fin_task_received(Runtime& rt, FinishKey key, Pragma mode) {
  FinCtx ctx;
  ctx.key = key;
  ctx.mode = mode;
  if (here() == key.home) {
    rt.with_home_finish(key, [&ctx](FinishHome& fh) {
      ctx.home = &fh;
      fh.home_task_received();
    });
    assert(ctx.home && "task arrived for an already-terminated finish");
    return ctx;
  }
  if (mode == Pragma::kDefault || mode == Pragma::kDense) {
    auto& ps = rt.pstate(here());
    RemoteBlock* b = get_block(rt, here(), key, mode);
    std::scoped_lock lock(ps.fin_mu);
    ++b->received;
    b->dirty = true;
  }
  return ctx;
}

void fin_remote_local_spawn(Runtime& rt, const FinCtx& ctx) {
  assert(ctx.home == nullptr);
  assert(ctx.mode == Pragma::kDefault || ctx.mode == Pragma::kDense);
  auto& ps = rt.pstate(here());
  RemoteBlock* b = get_block(rt, here(), ctx.key, ctx.mode);
  std::scoped_lock lock(ps.fin_mu);
  // A local spawn is a send to self that arrives instantly.
  ++b->sent[here()];
  ++b->received;
  b->dirty = true;
}

void fin_activity_completed(Runtime& rt, const Activity& act) {
  const FinCtx& ctx = act.fin;
  if (ctx.home == nullptr && !ctx.key.valid()) return;  // system activity
  if (ctx.home != nullptr) {
    if (act.credit != 0) {
      ctx.home->credit_return(act.credit);
    } else if (act.remote_origin) {
      ctx.home->home_task_completed();
    } else {
      ctx.home->local_complete();
    }
    return;
  }
  switch (ctx.mode) {
    case Pragma::kDefault:
    case Pragma::kDense: {
      {
        auto& ps = rt.pstate(here());
        RemoteBlock* b = get_block(rt, here(), ctx.key, ctx.mode);
        std::scoped_lock lock(ps.fin_mu);
        ++b->completed;
        b->dirty = true;
      }
      // Flush at activity granularity: the snapshot carries this activity's
      // completion together with every send it performed (coalescing), which
      // is what makes the matrix condition reorder-safe.
      fin_flush_block(rt, ctx.key, ctx.mode);
      break;
    }
    case Pragma::kAsync:
    case Pragma::kSpmd: {
      x10rt::ByteBuffer frame = rt.transport().acquire_buffer();
      frame.put(ctx.key.seq);
      frame.put<std::uint64_t>(1);
      send_ctrl_am(rt, here(), ctx.key.home, rt.am_completions(),
                   std::move(frame), rt.fin_counters().completion_msgs);
      break;
    }
    case Pragma::kHere: {
      assert(act.credit != 0);
      // Return the remaining weight (what the children did not take). The
      // message is a pure decrement of the home's outstanding weight, so no
      // reordering of these can make the finish release early.
      x10rt::ByteBuffer frame = rt.transport().acquire_buffer();
      frame.put(ctx.key.seq);
      frame.put(act.credit);
      send_ctrl_am(rt, here(), ctx.key.home, rt.am_credit(),
                   std::move(frame), rt.fin_counters().credit_msgs);
      break;
    }
    default:
      assert(false);
  }
}

void fin_report_exception(Runtime& rt, const FinCtx& ctx,
                          std::exception_ptr ep) {
  if (ctx.home != nullptr) {
    ctx.home->on_exception(std::move(ep));
    return;
  }
  if (!ctx.key.valid()) std::rethrow_exception(ep);  // system activity
  const FinishKey key = ctx.key;
  x10rt::ByteBuffer frame = rt.transport().acquire_buffer();
  frame.put<std::int32_t>(key.home);
  frame.put<std::uint64_t>(key.seq);
  if (rt.multi_process() && key.home != rt.local_place()) {
    // std::exception_ptr has no wire form: the typed codec
    // (wire_encode_exception, runtime.h) classifies standard exceptions so
    // the home place rebuilds the matching std type; unknown types degrade
    // to std::runtime_error with the original what().
    wire_encode_exception(frame, ep);
  } else {
    // In-process the original exception_ptr rides boxed, so the waiter
    // rethrows the exact thrown type.
    box_encode_exception(frame, std::move(ep));
  }
  rt.transport().send_am(here(), key.home, rt.am_exception(),
                         std::move(frame), x10rt::MsgType::kControl);
}

void fin_flush_block(Runtime& rt, FinishKey key, Pragma mode) {
  Snapshot snap;
  {
    auto& ps = rt.pstate(here());
    std::scoped_lock lock(ps.fin_mu);
    auto it = ps.blocks.find(key);
    if (it == ps.blocks.end() || !it->second->dirty) return;
    RemoteBlock& b = *it->second;
    snap.key = key;
    snap.place = here();
    snap.seq = ++b.flush_seq;
    snap.received = b.received;
    snap.completed = b.completed;
    snap.sent.assign(b.sent.begin(), b.sent.end());
    b.dirty = false;
  }
  send_snapshot_home(rt, snap, mode);
}

void fin_flush_all_dirty(Runtime& rt, int place) {
  std::vector<std::pair<FinishKey, Pragma>> to_flush;
  {
    auto& ps = rt.pstate(place);
    std::scoped_lock lock(ps.fin_mu);
    for (const auto& [key, block] : ps.blocks) {
      if (block->dirty) to_flush.emplace_back(key, block->mode);
    }
  }
  for (const auto& [key, mode] : to_flush) fin_flush_block(rt, key, mode);
}

void dense_relay_enqueue(Runtime& rt, int at_place, int final_home,
                         std::vector<std::byte> frame) {
  if (at_place == final_home) {
    x10rt::ByteBuffer buf{std::move(frame)};
    const Snapshot s = decode_snapshot(buf);
    if (!rt.with_home_finish(s.key,
                             [&s](FinishHome& fh) { fh.apply_snapshot(s); })) {
      // Arrived after release: termination was proven without it -> stale.
      rt.fin_counters().snapshots_stale->fetch_add(1,
                                                   std::memory_order_relaxed);
    }
    return;
  }
  const int next = dense_next_hop(rt, at_place, final_home);
  auto& relay = rt.pstate(at_place).relay;
  bool need_flusher = false;
  {
    std::scoped_lock lock(relay.mu);
    relay.pending[next].emplace_back(final_home, std::move(frame));
    if (!relay.flusher_scheduled) {
      relay.flusher_scheduled = true;
      need_flusher = true;
    }
  }
  if (need_flusher) {
    // The flusher is a local task, and inbox messages are preferred over
    // local tasks — so by the time it runs, every control frame currently
    // queued at this hop has been accumulated, and one message per next-hop
    // carries them all (the paper's coalescing at node masters).
    Runtime* rtp = &rt;
    Activity flusher;
    flusher.body = [rtp, at_place] {
      std::unordered_map<int,
                         std::vector<std::pair<int, std::vector<std::byte>>>>
          pending;
      auto& r = rtp->pstate(at_place).relay;
      {
        std::scoped_lock lock(r.mu);
        pending.swap(r.pending);
        r.flusher_scheduled = false;
      }
      for (auto& [next_hop, frames] : pending) {
        x10rt::ByteBuffer batch = rtp->transport().acquire_buffer();
        batch.put(static_cast<std::uint32_t>(frames.size()));
        for (const auto& [final_home2, frame2] : frames) {
          batch.put(final_home2);
          batch.put(static_cast<std::uint32_t>(frame2.size()));
          batch.put_raw(frame2.data(), frame2.size());
        }
        send_ctrl_am(*rtp, at_place, next_hop, rtp->am_dense_relay(),
                     std::move(batch), rtp->fin_counters().dense_batches);
      }
    };
    rt.sched(at_place).push(std::move(flusher));
  }
}

// --- wire-protocol handlers --------------------------------------------------

void fin_am_snapshot(Runtime& rt, x10rt::ByteBuffer& buf) {
  const Snapshot s = decode_snapshot(buf);
  if (!rt.with_home_finish(s.key,
                           [&s](FinishHome& fh) { fh.apply_snapshot(s); })) {
    // Arrived after release: termination was proven without it -> stale.
    rt.fin_counters().snapshots_stale->fetch_add(1, std::memory_order_relaxed);
  }
}

void fin_am_dense_relay(Runtime& rt, x10rt::ByteBuffer& buf) {
  const auto count = buf.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const int final_home = buf.get<int>();
    const auto len = buf.get<std::uint32_t>();
    std::vector<std::byte> frame(len);
    buf.get_raw(frame.data(), len);
    dense_relay_enqueue(rt, here(), final_home, std::move(frame));
  }
}

void fin_am_release(Runtime& rt, x10rt::ByteBuffer& buf) {
  FinishKey key;
  key.home = buf.get<int>();
  key.seq = buf.get<std::uint64_t>();
  auto& ps = rt.pstate(here());
  std::scoped_lock lock(ps.fin_mu);
  ps.blocks.erase(key);
}

void fin_am_completions(Runtime& rt, x10rt::ByteBuffer& buf) {
  FinishKey key;
  key.home = here();  // completions always target the home place
  key.seq = buf.get<std::uint64_t>();
  const auto n = buf.get<std::uint64_t>();
  rt.with_home_finish(key, [n](FinishHome& fh) { fh.on_completions(n); });
}

void fin_am_credit(Runtime& rt, x10rt::ByteBuffer& buf) {
  FinishKey key;
  key.home = here();
  key.seq = buf.get<std::uint64_t>();
  const auto weight = buf.get<std::uint64_t>();
  // A credit return can never outlive its finish: the finish cannot
  // terminate while any weight is outstanding.
  rt.with_home_finish(key,
                      [weight](FinishHome& fh) { fh.credit_return(weight); });
}

namespace detail_rail {

// An asyncCopy is modeled as one local async at the initiating place:
// registered here, completed when the transfer's completion event arrives
// back at the initiator (see dist_rail.h).

void copy_spawn(const FinCtx& ctx) {
  if (ctx.home != nullptr) {
    ctx.home->local_spawn();
    return;
  }
  assert((ctx.mode == Pragma::kDefault || ctx.mode == Pragma::kDense) &&
         "asyncCopy from a remote activity requires a matrix-mode finish "
         "(wrap it in a nested finish otherwise)");
  fin_remote_local_spawn(Runtime::get(), ctx);
}

void copy_complete(const FinCtx& ctx) {
  if (ctx.home != nullptr) {
    ctx.home->local_complete();
    return;
  }
  Runtime& rt = Runtime::get();
  {
    auto& ps = rt.pstate(here());
    RemoteBlock* b = get_block(rt, here(), ctx.key, ctx.mode);
    std::scoped_lock lock(ps.fin_mu);
    ++b->completed;
    b->dirty = true;
  }
  fin_flush_block(rt, ctx.key, ctx.mode);
}

namespace {

/// Header of every asyncCopy message. The messages run as immediate task
/// functions; pointers throughout, so each first rejects a message from
/// another process (require_local_origin).
struct CopyHeader {
  FinCtx ctx;                      // the initiator's finish context
  int initiator = -1;              // where copy_done goes
  std::byte* dst = nullptr;        // where the payload bytes land
  const std::byte* src = nullptr;  // FIFO get: where they come from
  std::size_t n = 0;               // FIFO get: how many
};

x10rt::ByteBuffer copy_frame(int fn, const CopyHeader& h) {
  x10rt::ByteBuffer b = Runtime::get().transport().acquire_buffer();
  b.put<std::int32_t>(fn);
  b.put(h);
  return b;
}

/// Sends `fn`(`h` + the `bytes` at `src`) to place `dst` as an immediate.
void send_copy(int dst, int fn, const CopyHeader& h, const void* src,
               std::size_t bytes, x10rt::MsgType type) {
  Runtime& rt = Runtime::get();
  x10rt::ByteBuffer b = copy_frame(fn, h);
  b.put_raw(src, bytes);
  rt.transport().send_am(here(), dst, rt.am_immediate(), std::move(b), type);
}

/// At the initiator: lands a FIFO get's bytes, then completes the copy.
void copy_done(x10rt::ByteBuffer& buf) {
  require_local_origin("an asyncCopy finish context");
  const auto h = buf.get<CopyHeader>();
  buf.get_raw(h.dst, buf.remaining());  // none unless a FIFO get's reply
  copy_complete(h.ctx);
}
const int kCopyDone = register_task_fn(&copy_done);

/// At the destination of a FIFO put: lands the bytes, acknowledges.
void copy_put(x10rt::ByteBuffer& buf) {
  require_local_origin("an asyncCopy destination address");
  const auto h = buf.get<CopyHeader>();
  buf.get_raw(h.dst, buf.remaining());
  send_copy(h.initiator, kCopyDone, {h.ctx}, nullptr, 0,
            x10rt::MsgType::kControl);
}
const int kCopyPut = register_task_fn(&copy_put);

/// At the source of a FIFO get: replies with the bytes.
void copy_get(x10rt::ByteBuffer& buf) {
  require_local_origin("an asyncCopy source address");
  const auto h = buf.get<CopyHeader>();
  send_copy(h.initiator, kCopyDone, {h.ctx, -1, h.dst}, h.src, h.n,
            x10rt::MsgType::kData);
}
const int kCopyGet = register_task_fn(&copy_get);

}  // namespace

x10rt::Completion copy_completion(const FinCtx& ctx) {
  return {Runtime::get().am_immediate(), copy_frame(kCopyDone, {ctx})};
}

void fifo_put(int dst, void* dst_addr, const void* src, std::size_t bytes,
              const FinCtx& ctx) {
  Runtime::get().check_closure_can_reach(dst,
                                         "asyncCopy of unregistered memory");
  send_copy(dst, kCopyPut, {ctx, here(), static_cast<std::byte*>(dst_addr)},
            src, bytes, x10rt::MsgType::kData);
}

void fifo_get(int src_place, const void* src_addr, void* dst,
              std::size_t bytes, const FinCtx& ctx) {
  Runtime::get().check_closure_can_reach(src_place,
                                         "asyncCopy of unregistered memory");
  send_copy(src_place, kCopyGet,
            {ctx, here(), static_cast<std::byte*>(dst),
             static_cast<const std::byte*>(src_addr), bytes},
            nullptr, 0, x10rt::MsgType::kOther);
}

}  // namespace detail_rail

}  // namespace apgas

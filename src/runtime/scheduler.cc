#include "runtime/scheduler.h"

#include <chrono>
#include <string>
#include <thread>

#include "runtime/config.h"
#include "runtime/finish.h"
#include "runtime/runtime.h"
#include "runtime/trace.h"

namespace apgas {

namespace {

/// The worker the calling thread is bound to (nullptr on external threads:
/// the bootstrap caller, DMA engines, finalize_observability's drain).
thread_local Scheduler* tl_bound_sched = nullptr;
thread_local void* tl_bound_worker = nullptr;

/// Messages a worker drains from its place's transport inbox per lock
/// acquisition (the batched fast path).
constexpr std::size_t kPollBatch = 32;

/// splitmix64 step — cheap per-worker randomness for steal victim order.
inline std::uint64_t next_rand(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Scheduler::Scheduler(Runtime& rt, int place)
    : rt_(rt),
      place_(place),
      activities_executed_(rt.metrics().counter(
          "sched.p" + std::to_string(place) + ".activities_executed")),
      messages_processed_(rt.metrics().counter(
          "sched.p" + std::to_string(place) + ".messages_processed")),
      idle_transitions_(rt.metrics().counter(
          "sched.p" + std::to_string(place) + ".idle_transitions")),
      steals_(rt.metrics().counter("sched.p" + std::to_string(place) +
                                   ".steals")),
      overflow_drained_(rt.metrics().counter("sched.p" +
                                             std::to_string(place) +
                                             ".overflow")),
      hist_exec_(rt.metrics().histogram("activity.exec_ns")) {
  for (int t = 0; t < x10rt::kNumMsgTypes; ++t) {
    msgs_by_type_[static_cast<std::size_t>(t)] = &rt.metrics().counter(
        std::string("sched.msgs.") +
        x10rt::msg_type_name(static_cast<x10rt::MsgType>(t)));
  }
  const int nworkers =
      rt.config().workers_per_place < 1 ? 1 : rt.config().workers_per_place;
  workers_.reserve(static_cast<std::size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->sched = this;
    worker->id = w;
    worker->rng = 0x2545F4914F6CDD1DULL * static_cast<std::uint64_t>(w + 1) +
                  static_cast<std::uint64_t>(place + 1);
    workers_.push_back(std::move(worker));
  }
}

Scheduler::~Scheduler() = default;

Scheduler::Worker* Scheduler::local_worker() const {
  return tl_bound_sched == this ? static_cast<Worker*>(tl_bound_worker)
                                : nullptr;
}

void Scheduler::bind_worker(int wid) {
  assert(wid >= 0 && wid < workers());
  assert(tl_bound_sched == nullptr && "thread already bound to a scheduler");
  tl_bound_sched = this;
  tl_bound_worker = workers_[static_cast<std::size_t>(wid)].get();
}

void Scheduler::unbind_worker() {
  Worker* w = local_worker();
  if (w == nullptr) return;
  // The job has quiesced, but chaos can leave already-delivered messages
  // (e.g. superseded snapshots) in this worker's private batch, and running
  // one can push a local task (a FINISH_DENSE relay flusher) onto this
  // worker's deque, which nothing drains once the worker is gone: a lone
  // worker's deque is never stolen from. Run both dry so teardown
  // bookkeeping (sent == applied + stale) stays exact.
  for (;;) {
    if (!w->batch.empty()) {
      x10rt::Message m = std::move(w->batch.front());
      w->batch.pop_front();
      consume_message(m);
    } else if (Activity* a = w->deque.pop()) {
      Activity act = std::move(*a);
      delete a;
      run_activity(act);
    } else {
      break;
    }
  }
  tl_bound_sched = nullptr;
  tl_bound_worker = nullptr;
}

void Scheduler::push(Activity a) {
  Worker* w = local_worker();
  if (w != nullptr) {
    w->deque.push(new Activity(std::move(a)));
    // Self-notify elision: with one worker per place the pusher is the only
    // possible consumer and is evidently awake — skip even the fence.
    if (workers_.size() > 1) rt_.transport().notify_if_sleeping(place_);
    return;
  }
  {
    std::scoped_lock lock(overflow_mu_);
    overflow_.push_back(std::move(a));
  }
  overflow_size_.fetch_add(1, std::memory_order_release);
  rt_.transport().notify_if_sleeping(place_);
}

bool Scheduler::try_steal(Activity& out, Worker* thief) {
  if (workers_.size() < 2) return false;
  std::uint64_t seed;
  if (thief != nullptr) {
    seed = next_rand(thief->rng);
  } else {
    thread_local std::uint64_t ext_rng = 0x9e3779b97f4a7c15ULL;
    seed = next_rand(ext_rng);
  }
  const std::size_t n = workers_.size();
  const std::size_t start = static_cast<std::size_t>(seed % n);
  for (std::size_t i = 0; i < n; ++i) {
    Worker* victim = workers_[(start + i) % n].get();
    if (victim == thief) continue;
    if (Activity* a = victim->deque.steal()) {
      out = std::move(*a);
      delete a;
      steals_.fetch_add(1, std::memory_order_relaxed);
      trace::emit_at(place_, trace::Ev::kSchedSteal,
                     static_cast<std::uint64_t>(
                         thief != nullptr ? thief->id : -1),
                     static_cast<std::uint64_t>(victim->id));
      return true;
    }
  }
  return false;
}

bool Scheduler::pop_local(Activity& out, Worker* w) {
  if (w != nullptr) {
    if (Activity* a = w->deque.pop()) {
      out = std::move(*a);
      delete a;
      return true;
    }
  }
  // Overflow inbox: external pushes. The atomic gate keeps the common empty
  // case lock-free.
  if (overflow_size_.load(std::memory_order_acquire) > 0) {
    std::scoped_lock lock(overflow_mu_);
    if (!overflow_.empty()) {
      out = std::move(overflow_.front());
      overflow_.pop_front();
      overflow_size_.fetch_sub(1, std::memory_order_relaxed);
      overflow_drained_.fetch_add(1, std::memory_order_relaxed);
      trace::emit_at(place_, trace::Ev::kSchedOverflow,
                     static_cast<std::uint64_t>(w != nullptr ? w->id : -1));
      return true;
    }
  }
  return try_steal(out, w);
}

void Scheduler::run_activity(Activity& act) {
  Activity* prev_act = detail::tl_activity;
  FinishHome* prev_open = detail::tl_open_finish;
  detail::tl_activity = &act;
  detail::tl_open_finish = nullptr;
  trace::emit_at(place_, trace::Ev::kActivityBegin, act.span,
                 act.parent_span);
  // Sample `timed` once so a mid-run toggle can never record an end without
  // a matching start.
  const bool timed = hist::enabled();
  const std::uint64_t t0 = timed ? hist::now_ns() : 0;
  try {
    act.body();
  } catch (...) {
    fin_report_exception(rt_, act.fin, std::current_exception());
  }
  if (timed) hist_exec_.record(hist::now_ns() - t0);
  trace::emit_at(place_, trace::Ev::kActivityEnd, act.span);
  detail::tl_activity = prev_act;
  detail::tl_open_finish = prev_open;
  activities_executed_.fetch_add(1, std::memory_order_relaxed);
  fin_activity_completed(rt_, act);
}

void Scheduler::consume_message(x10rt::Message& m) {
  trace::emit_at(place_, trace::Ev::kMsgRecv,
                 static_cast<std::uint64_t>(m.type),
                 static_cast<std::uint64_t>(m.src));
  msgs_by_type_[static_cast<std::size_t>(m.type)]->fetch_add(
      1, std::memory_order_relaxed);
  rt_.transport().dispatch(m);
  messages_processed_.fetch_add(1, std::memory_order_relaxed);
}

bool Scheduler::step() {
  // Incoming messages first: this keeps control protocols prompt and lets
  // FINISH_DENSE relay flushers (local tasks) batch naturally. Workers pull
  // whole batches under one inbox lock and then consume them lock-free;
  // external threads (finalize drain) poll one message at a time so the
  // quiescence loop's "nothing progressed" reading stays exact.
  Worker* w = local_worker();
  if (w != nullptr) {
    if (w->batch.empty()) {
      rt_.transport().poll_batch(place_, w->batch, kPollBatch);
    }
    if (!w->batch.empty()) {
      x10rt::Message m = std::move(w->batch.front());
      w->batch.pop_front();
      consume_message(m);
      return true;
    }
  } else if (auto msg = rt_.transport().poll(place_)) {
    consume_message(*msg);
    return true;
  }
  Activity act;
  if (pop_local(act, w)) {
    run_activity(act);
    return true;
  }
  return false;
}

void Scheduler::run_idle_hooks() {
  const auto* hooks = hooks_.load(std::memory_order_acquire);
  if (hooks == nullptr) return;
  for (const auto& hook : *hooks) hook();
}

void Scheduler::run_until(const std::function<bool()>& done) {
  using namespace std::chrono_literals;
  // Spin-then-park: a worker that runs dry first yields the CPU a few times
  // (cheap; a sibling or the transport usually refills within microseconds),
  // then parks on the inbox CV with exponentially growing timeouts. The
  // enter_idle/step/wait sequence is the sleeper side of the Dekker
  // handshake: after announcing the park we re-check for work once, so a
  // producer that missed the announcement cannot strand us.
  // Yield-based spinning keeps workers out of the parked state (and thus
  // producers out of the notify path) through short work gaps; on an
  // oversubscribed machine yield() also donates the slice to the producer.
  constexpr int kSpinRounds = 6;
  // Park backoff (paper §3.1 idle protocol): the first park lasts 1µs,
  // doubling per idle round up to a 200µs ceiling.
  constexpr std::int64_t kParkMinUs = 1;
  constexpr auto kParkMax = std::chrono::microseconds(200);
  int idle_rounds = 0;
  while (!done()) {
    if (step()) {
      idle_rounds = 0;
      continue;
    }
    idle_transitions_.fetch_add(1, std::memory_order_relaxed);
    // Transitioned to idle: give hooks (dirty finish-block flushers, dense
    // relays) a chance to produce the control traffic that unblocks others.
    run_idle_hooks();
    if (done()) return;
    if (step()) {
      idle_rounds = 0;
      continue;
    }
    ++idle_rounds;
    if (idle_rounds <= kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    int shift = idle_rounds - kSpinRounds - 1;
    if (shift > 8) shift = 8;
    auto park = std::chrono::microseconds(kParkMinUs << shift);
    if (park > kParkMax) park = kParkMax;
    rt_.transport().enter_idle(place_);
    if (done()) {
      rt_.transport().exit_idle(place_);
      return;
    }
    if (step()) {
      rt_.transport().exit_idle(place_);
      idle_rounds = 0;
      continue;
    }
    rt_.transport().wait_nonempty(place_, park);
    rt_.transport().exit_idle(place_);
  }
}

void Scheduler::add_idle_hook(std::function<void()> hook) {
  std::scoped_lock lock(hooks_mu_);
  const auto* cur = hooks_.load(std::memory_order_relaxed);
  auto next = std::make_unique<std::vector<std::function<void()>>>(
      cur != nullptr ? *cur : std::vector<std::function<void()>>{});
  next->push_back(std::move(hook));
  const auto* raw = next.get();
  hook_snapshots_.emplace_back(std::move(next));
  hooks_.store(raw, std::memory_order_release);
}

}  // namespace apgas

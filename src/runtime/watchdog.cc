#include "runtime/watchdog.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/finish.h"
#include "runtime/runtime.h"
#include "runtime/trace.h"

namespace apgas {

namespace {
constexpr std::size_t kRecentEvents = 16;  // trace tail shown per diagnosis
}  // namespace

Watchdog::Watchdog(Runtime& rt, std::chrono::milliseconds interval,
                   int stall_intervals)
    : rt_(rt),
      interval_(interval),
      stall_intervals_(stall_intervals < 1 ? 1 : stall_intervals),
      diagnoses_(&rt.metrics().counter("watchdog.diagnoses")) {}

Watchdog::~Watchdog() { stop(); }

void Watchdog::start() {
  thread_ = std::thread([this] { loop(); });
}

void Watchdog::stop() {
  {
    std::scoped_lock lock(mu_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Watchdog::Progress Watchdog::sample() const {
  Progress p;
  for (int q = 0; q < rt_.places(); ++q) {
    p.activities += rt_.sched(q).activities_executed();
    p.messages += rt_.sched(q).messages_processed();
  }
  const FinishCounters& fc = rt_.fin_counters();
  p.finishes_opened = fc.opened->load(std::memory_order_relaxed);
  p.finishes_closed = fc.closed->load(std::memory_order_relaxed);
  p.transport_msgs = rt_.transport().total_messages();
  return p;
}

void Watchdog::diagnose(int stalled_intervals) const {
  // Build the whole report in one string so concurrent stderr writers can't
  // shred it line by line.
  std::string out;
  char buf[256];
  auto append = [&](const char* fmt, auto... vals) {
    std::snprintf(buf, sizeof(buf), fmt, vals...);
    out += buf;
  };

  const Progress p = sample();
  append("[apgas watchdog] no progress for %d intervals (%lld ms); "
         "diagnosis:\n",
         stalled_intervals,
         static_cast<long long>(interval_.count()) * stalled_intervals);
  append("  totals: activities=%" PRIu64 " sched_msgs=%" PRIu64
         " finishes=%" PRIu64 "/%" PRIu64 " (closed/opened) transport_msgs=%"
         PRIu64 "\n",
         p.activities, p.messages, p.finishes_closed, p.finishes_opened,
         p.transport_msgs);

  x10rt::Transport& tr = rt_.transport();
  for (int q = 0; q < rt_.places(); ++q) {
    // Under the socket backend this process hosts exactly one place; the
    // other places' schedulers/inboxes exist but never run, so reporting
    // their zeros would only bury the signal.
    if (!rt_.place_is_local(q)) continue;
    Scheduler& s = rt_.sched(q);
    append("  place %d: inbox=%zu overflow=%zu sleepers=%d executed=%" PRIu64
           " msgs=%" PRIu64 "\n",
           q, tr.inbox_depth(q), s.overflow_pending(), tr.sleepers(q),
           s.activities_executed(), s.messages_processed());
  }
  // Socket backend: per-peer queue depths and frame counts. Bytes stuck in
  // tx_pending mean the peer stopped reading (or died); a fat rx buffer
  // means we are the slow consumer. The counts pair up with the peer's own
  // line (our sent against its received) to show frames still in flight.
  for (const auto& d : tr.backend_diag()) {
    append("  socket peer %d: tx_pending=%zu rx_buffered=%zu frames_sent=%"
           PRIu64 " frames_received=%" PRIu64 "\n",
           d.peer, static_cast<std::size_t>(d.tx_pending_bytes),
           static_cast<std::size_t>(d.rx_buffered_bytes), d.frames_sent,
           d.frames_received);
  }

  // Open finishes: count them and name the oldest (lowest seq; ties broken
  // by place). declared_pragma() is immutable, so this is safe without the
  // finish's own lock; the per-place registry lock guards the map walk.
  std::size_t open_finishes = 0;
  int oldest_place = -1;
  std::uint64_t oldest_seq = 0;
  Pragma oldest_pragma = Pragma::kAuto;
  for (int q = 0; q < rt_.places(); ++q) {
    PlaceState& ps = rt_.pstate(q);
    std::scoped_lock lock(ps.fin_mu);
    for (const auto& [seq, fh] : ps.home_finishes) {
      ++open_finishes;
      if (oldest_place < 0 || seq < oldest_seq) {
        oldest_place = q;
        oldest_seq = seq;
        oldest_pragma = fh->declared_pragma();
      }
    }
  }
  if (open_finishes == 0) {
    out += "  open finishes: none\n";
  } else {
    append("  open finishes: %zu (oldest: place %d seq %" PRIu64
           " pragma %s)\n",
           open_finishes, oldest_place, oldest_seq,
           pragma_name(oldest_pragma));
  }

  const std::vector<trace::Event> tail = trace::recent(kRecentEvents);
  if (tail.empty()) {
    out += "  recent events: none (tracing disabled?)\n";
  } else {
    append("  last %zu trace events (oldest first):\n", tail.size());
    for (const trace::Event& e : tail) {
      append("    %10" PRIu64 ".%03uus p%-3d %-16s a=%" PRIu64 " b=%" PRIu64
             "\n",
             e.t_ns / 1000, static_cast<unsigned>(e.t_ns % 1000), e.place,
             trace::name(e.kind), e.a, e.b);
    }
  }

  if (report_sink_) {
    report_sink_(out);
  } else {
    std::fwrite(out.data(), 1, out.size(), stderr);
    std::fflush(stderr);
  }
}

void Watchdog::loop() {
  Progress last = sample();
  int stalled = 0;
  bool fired = false;  // one diagnosis per stall, re-armed by progress
  std::unique_lock lock(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, interval_, [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    const Progress now = sample();
    if (now == last) {
      ++stalled;
      if (!fired && stalled >= stall_intervals_) {
        diagnose(stalled);
        diagnoses_->fetch_add(1, std::memory_order_relaxed);
        fired = true;
      }
    } else {
      last = now;
      stalled = 0;
      fired = false;
    }
    lock.lock();
  }
}

}  // namespace apgas

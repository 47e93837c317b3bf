#include "runtime/runtime.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/api.h"
#include "runtime/congruent.h"
#include "runtime/launcher.h"
#include "runtime/task_registry.h"
#include "runtime/team.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"
#include "runtime/watchdog.h"
#include "x10rt/socket_backend.h"

namespace apgas {

Runtime* Runtime::current_ = nullptr;

namespace detail {
thread_local int tl_place = -1;
thread_local Activity* tl_activity = nullptr;
thread_local FinishHome* tl_open_finish = nullptr;
}  // namespace detail

// --- frame-task registry (task_registry.h) ----------------------------------

namespace {
std::vector<TaskFn>& task_registry() {
  static std::vector<TaskFn> fns;
  return fns;
}
}  // namespace

int register_task_fn(TaskFn fn) {
  auto& fns = task_registry();
  fns.push_back(std::move(fn));
  return static_cast<int>(fns.size()) - 1;
}

const TaskFn& task_fn(int id) {
  auto& fns = task_registry();
  if (id < 0 || id >= static_cast<int>(fns.size())) {
    std::fprintf(stderr,
                 "[apgas] fatal: task function id %d out of range (%d "
                 "registered) — every place process must register the same "
                 "task functions in the same order before Runtime::run\n",
                 id, static_cast<int>(fns.size()));
    std::abort();
  }
  return fns[static_cast<std::size_t>(id)];
}

int num_task_fns() { return static_cast<int>(task_registry().size()); }

namespace {

/// Takes the closure out of box_local_closure's args and frees the box.
std::function<void()> unbox_local_closure(x10rt::ByteBuffer& args) {
  std::unique_ptr<std::function<void()>> box(
      reinterpret_cast<std::function<void()>*>(
          static_cast<std::uintptr_t>(args.get<std::uint64_t>())));
  return std::move(*box);
}

void run_local_closure(x10rt::ByteBuffer& args) {
  unbox_local_closure(args)();
}

// Registered pre-main like every task function: one id in every process.
const int kLocalClosureFn = register_task_fn(&run_local_closure);

}  // namespace

int local_closure_fn() { return kLocalClosureFn; }

x10rt::ByteBuffer box_local_closure(std::function<void()> body) {
  x10rt::ByteBuffer args;
  args.put(static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(
      new std::function<void()>(std::move(body)))));
  return args;
}

void require_local_origin(const char* what) {
  const int peer = x10rt::Transport::dispatch_peer();
  if (peer < 0) return;
  std::fprintf(stderr,
               "[apgas] fatal: malformed frame from place %d: it carries %s, "
               "which is process-local and cannot arrive from another "
               "process\n",
               peer, what);
  std::abort();
}

// --- wire handlers for the cross-process spawn/exception paths --------------

namespace {

/// am_spawn frame: [home i32][seq u64][mode u8][credit u64][span u64]
/// [parent_span u64][t_send_ns u64][fn_id i32][args...]
void rt_am_spawn(Runtime& rt, x10rt::ByteBuffer& buf) {
  FinishKey key;
  key.home = buf.get<std::int32_t>();
  key.seq = buf.get<std::uint64_t>();
  const auto mode_raw = buf.get<std::uint8_t>();
  if (mode_raw >= static_cast<std::uint8_t>(kNumPragmas)) {
    std::fprintf(stderr, "[apgas] fatal: spawn frame with bad pragma %u\n",
                 static_cast<unsigned>(mode_raw));
    std::abort();
  }
  const auto mode = static_cast<Pragma>(mode_raw);
  const auto credit = buf.get<std::uint64_t>();
  const auto span = buf.get<std::uint64_t>();
  const auto parent_span = buf.get<std::uint64_t>();
  const auto t_send_ns = buf.get<std::uint64_t>();
  const auto fn_id = buf.get<std::int32_t>();
  Activity act;
  if (fn_id == kLocalClosureFn) {
    // The boxed closure becomes the body itself: no args copy, no wrapper.
    require_local_origin("a boxed closure");
    act.body = unbox_local_closure(buf);
  } else {
    const TaskFn& fn = task_fn(fn_id);  // aborts on an out-of-range wire id
    std::vector<std::byte> args(buf.remaining());
    if (!args.empty()) buf.get_raw(args.data(), args.size());
    act.body = [fn, args = std::move(args)]() mutable {
      x10rt::ByteBuffer b{std::move(args)};
      fn(b);
    };
  }
  if (t_send_ns != 0 && hist::enabled()) {
    rt.record_ship_latency(t_send_ns);
  }
  act.fin = fin_task_received(rt, key, mode);
  act.credit = credit;
  act.remote_origin = true;
  act.span = span;
  act.parent_span = parent_span;
  rt.sched(here()).run_activity(act);
}

/// Kind byte of the boxed in-process form, outside the wire ExcKind table.
constexpr std::uint8_t kBoxedException = 0xff;

/// am_exception frame: [home i32][seq u64] then the wire codec's [kind u8]
/// [what string] or box_encode_exception's in-process form.
void rt_am_exception(Runtime& rt, x10rt::ByteBuffer& buf) {
  FinishKey key;
  key.home = buf.get<std::int32_t>();
  key.seq = buf.get<std::uint64_t>();
  std::exception_ptr ep;
  const std::size_t kind_pos = buf.position();
  if (buf.get<std::uint8_t>() == kBoxedException) {
    require_local_origin("a boxed exception");
    std::unique_ptr<std::exception_ptr> box(reinterpret_cast<std::exception_ptr*>(
        static_cast<std::uintptr_t>(buf.get<std::uint64_t>())));
    ep = std::move(*box);
  } else {
    buf.seek(kind_pos);
    ep = wire_decode_exception(buf);
  }
  if (key.home != here()) {
    std::fprintf(stderr,
                 "[apgas] fatal: exception frame for place %d arrived at "
                 "place %d\n",
                 key.home, here());
    std::abort();
  }
  rt.with_home_finish(key, [&ep](FinishHome& fh) { fh.on_exception(ep); });
}

/// am_immediate frame: [fn_id i32][args...]. Runs inline on the poller — no
/// finish scope, no activity, no scheduler.
void rt_am_immediate(Runtime& /*rt*/, x10rt::ByteBuffer& buf) {
  const auto fn_id = buf.get<std::int32_t>();
  if (fn_id == kLocalClosureFn) require_local_origin("a boxed closure");
  const TaskFn& fn = task_fn(fn_id);  // aborts on an out-of-range wire id
  fn(buf);
}

}  // namespace

// --- exception wire codec (runtime.h) ---------------------------------------

namespace {

/// Standard-exception table for the wire codec: most-derived types first so
/// the encoder's catch classification picks the tightest match. Kind 0 is
/// the degraded "unknown type, keep the what()" form.
enum class ExcKind : std::uint8_t {
  kUnknown = 0,
  kRuntimeError,
  kLogicError,
  kInvalidArgument,
  kOutOfRange,
  kLengthError,
  kDomainError,
  kOverflowError,
  kUnderflowError,
  kRangeError,
  kBadAlloc,
};

}  // namespace

void wire_encode_exception(x10rt::ByteBuffer& b, const std::exception_ptr& ep) {
  ExcKind kind = ExcKind::kUnknown;
  std::string what = "remote exception";
  try {
    std::rethrow_exception(ep);
  } catch (const std::invalid_argument& e) {
    kind = ExcKind::kInvalidArgument;
    what = e.what();
  } catch (const std::out_of_range& e) {
    kind = ExcKind::kOutOfRange;
    what = e.what();
  } catch (const std::length_error& e) {
    kind = ExcKind::kLengthError;
    what = e.what();
  } catch (const std::domain_error& e) {
    kind = ExcKind::kDomainError;
    what = e.what();
  } catch (const std::overflow_error& e) {
    kind = ExcKind::kOverflowError;
    what = e.what();
  } catch (const std::underflow_error& e) {
    kind = ExcKind::kUnderflowError;
    what = e.what();
  } catch (const std::range_error& e) {
    kind = ExcKind::kRangeError;
    what = e.what();
  } catch (const std::logic_error& e) {
    kind = ExcKind::kLogicError;
    what = e.what();
  } catch (const std::runtime_error& e) {
    kind = ExcKind::kRuntimeError;
    what = e.what();
  } catch (const std::bad_alloc& e) {
    kind = ExcKind::kBadAlloc;
    what = e.what();
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  b.put(static_cast<std::uint8_t>(kind));
  b.put_string(what);
}

std::exception_ptr wire_decode_exception(x10rt::ByteBuffer& b) {
  const auto kind = static_cast<ExcKind>(b.get<std::uint8_t>());
  const std::string what = b.get_string();
  switch (kind) {
    case ExcKind::kRuntimeError:
      return std::make_exception_ptr(std::runtime_error(what));
    case ExcKind::kLogicError:
      return std::make_exception_ptr(std::logic_error(what));
    case ExcKind::kInvalidArgument:
      return std::make_exception_ptr(std::invalid_argument(what));
    case ExcKind::kOutOfRange:
      return std::make_exception_ptr(std::out_of_range(what));
    case ExcKind::kLengthError:
      return std::make_exception_ptr(std::length_error(what));
    case ExcKind::kDomainError:
      return std::make_exception_ptr(std::domain_error(what));
    case ExcKind::kOverflowError:
      return std::make_exception_ptr(std::overflow_error(what));
    case ExcKind::kUnderflowError:
      return std::make_exception_ptr(std::underflow_error(what));
    case ExcKind::kRangeError:
      return std::make_exception_ptr(std::range_error(what));
    case ExcKind::kBadAlloc:
      // what() is implementation-defined for bad_alloc; keep the type.
      return std::make_exception_ptr(std::bad_alloc());
    case ExcKind::kUnknown:
      break;
  }
  return std::make_exception_ptr(std::runtime_error(what));
}

void box_encode_exception(x10rt::ByteBuffer& b, std::exception_ptr ep) {
  b.put(kBoxedException);
  b.put(static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(
      new std::exception_ptr(std::move(ep)))));
}

Runtime::Runtime(const Config& cfg, const launcher::SocketWiring* wiring)
    : cfg_(cfg) {
  metrics_ = std::make_unique<MetricsRegistry>();
  finc_.opened = &metrics_->counter("finish.opened");
  finc_.upgrades = &metrics_->counter("finish.upgrades");
  finc_.snapshots_sent = &metrics_->counter("finish.snapshots.sent");
  finc_.snapshots_applied = &metrics_->counter("finish.snapshots.applied");
  finc_.snapshots_stale = &metrics_->counter("finish.snapshots.stale");
  finc_.dense_batches = &metrics_->counter("finish.dense.batches");
  finc_.releases = &metrics_->counter("finish.releases");
  finc_.completion_msgs = &metrics_->counter("finish.completion_msgs");
  finc_.credit_msgs = &metrics_->counter("finish.credit_msgs");
  finc_.tasks_shipped = &metrics_->counter("runtime.tasks_shipped");
  finc_.closed = &metrics_->counter("finish.closed");
  for (int p = 0; p < kNumPragmas; ++p) {
    fin_close_hist_[static_cast<std::size_t>(p)] = &metrics_->histogram(
        std::string("finish.close_ns.") + pragma_name(static_cast<Pragma>(p)));
  }

  trace::init(cfg_.places, cfg_.trace_capacity,
              cfg_.trace || !cfg_.trace_path.empty());
  hist::set_enabled(cfg_.histograms);

  x10rt::TransportConfig tc;
  tc.places = cfg_.places;
  tc.chaos = cfg_.chaos;
  tc.count_pairs = cfg_.count_pairs;
  transport_ = std::make_unique<x10rt::Transport>(tc);
  if (wiring != nullptr) local_place_ = wiring->place;
  hist_ship_frame_ = &metrics_->histogram("task.ship_ns");
  hist_ship_xproc_aligned_ = &metrics_->histogram("task.ship_xproc_aligned_ns");
  register_transport_gauges();

  pstates_.reserve(static_cast<std::size_t>(cfg_.places));
  for (int p = 0; p < cfg_.places; ++p) {
    auto ps = std::make_unique<PlaceState>();
    ps->sched = std::make_unique<Scheduler>(*this, p);
    ps->sched->add_idle_hook([this, p] { fin_flush_all_dirty(*this, p); });
    pstates_.push_back(std::move(ps));
  }

  congruent_ = std::make_unique<CongruentSpace>(
      *transport_, cfg_.places, cfg_.congruent_bytes,
      cfg_.congruent_large_pages);

  // Finish wire-protocol handlers: (handler id, serialized payload) frames,
  // the real X10RT active-message model. Implementations in finish.cc.
  Runtime* self = this;
  am_snapshot_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_snapshot(*self, buf); });
  am_dense_relay_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_dense_relay(*self, buf); });
  am_release_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_release(*self, buf); });
  am_completions_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_completions(*self, buf); });
  am_credit_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { fin_am_credit(*self, buf); });
  // Cross-process paths (frame spawns, serialized exceptions, shutdown
  // broadcast). Registered after the finish AMs so the finish wire protocol
  // keeps its ids; registration order is identical in every place process.
  am_spawn_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { rt_am_spawn(*self, buf); });
  am_exception_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { rt_am_exception(*self, buf); });
  am_shutdown_ = transport_->register_am([self](x10rt::ByteBuffer&) {
    self->shutdown_.store(true, std::memory_order_release);
    self->transport_->notify(here());
  });
  // Immediate frames (ISSUE 10): registered last so every pre-existing wire
  // id is unchanged.
  am_immediate_ = transport_->register_am(
      [self](x10rt::ByteBuffer& buf) { rt_am_immediate(*self, buf); });

  // Attach the wire backend only now that every AM is registered: the
  // backend's I/O thread starts delivering peer frames immediately, and a
  // fast peer must never race a frame past an incomplete handler table.
  if (wiring != nullptr) {
    transport_->attach_backend(std::make_unique<x10rt::SocketBackend>(
                                   wiring->place, wiring->peer_fds),
                               wiring->place);
  }
}

Runtime::~Runtime() = default;

void Runtime::register_transport_gauges() {
  // The x10rt transport keeps its own tallies (it must stay runtime-
  // agnostic); expose them as lazily-read gauges under one namespace.
  x10rt::Transport* tr = transport_.get();
  for (int t = 0; t < x10rt::kNumMsgTypes; ++t) {
    const auto type = static_cast<x10rt::MsgType>(t);
    const std::string cls = x10rt::msg_type_name(type);
    metrics_->add_gauge("transport.msgs." + cls,
                        [tr, type] { return tr->count(type); });
    metrics_->add_gauge("transport.bytes." + cls,
                        [tr, type] { return tr->bytes(type); });
  }
  metrics_->add_gauge("transport.msgs.total",
                      [tr] { return tr->total_messages(); });
  metrics_->add_gauge("transport.rdma.ops", [tr] { return tr->rdma_ops(); });
  metrics_->add_gauge("transport.rdma.bytes",
                      [tr] { return tr->rdma_bytes(); });
  if (cfg_.count_pairs) {
    metrics_->add_gauge("transport.out_degree.max", [tr] {
      return static_cast<std::uint64_t>(tr->max_out_degree());
    });
    metrics_->add_gauge("transport.out_degree.ctrl", [tr] {
      return static_cast<std::uint64_t>(tr->max_ctrl_out_degree());
    });
  }
  metrics_->add_gauge("trace.events", [] { return trace::total_events(); });

  // Wire-buffer pool (docs/transport.md).
  metrics_->add_gauge("transport.pool.hits",
                      [tr] { return tr->pool().hits(); });
  metrics_->add_gauge("transport.pool.misses",
                      [tr] { return tr->pool().misses(); });
  metrics_->add_gauge("transport.pool.recycled",
                      [tr] { return tr->pool().recycled(); });
  metrics_->add_gauge("transport.pool.dropped",
                      [tr] { return tr->pool().dropped(); });

  // Chaos delay shaping that saturated off (docs/transport.md "Chaos").
  metrics_->add_gauge("transport.chaos.bypass",
                      [tr] { return tr->chaos_bypass(); });

  // Wire backend (docs/transport.md "Backends"): all zero for the in-process
  // backend, frame/byte tallies of the socket mesh otherwise.
  metrics_->add_gauge("transport.backend.frames_sent",
                      [tr] { return tr->backend_stats().frames_sent; });
  metrics_->add_gauge("transport.backend.frames_received",
                      [tr] { return tr->backend_stats().frames_received; });
  metrics_->add_gauge("transport.backend.bytes_sent",
                      [tr] { return tr->backend_stats().bytes_sent; });
  metrics_->add_gauge("transport.backend.bytes_received",
                      [tr] { return tr->backend_stats().bytes_received; });
}

void Runtime::finalize_observability() {
  // Drain whatever the chaos queues still hold before taking the snapshot.
  // The job is quiescent (workers joined), but chaos can park control
  // messages — e.g. a superseded finish snapshot — past the moment the root
  // finish closes. Running their handlers here lets them be classified
  // (applied/stale) instead of vanishing with the inboxes, which is what
  // makes `snapshots.sent == applied + stale` an exact teardown invariant.
  // A handler may message another local place, so sweep until a whole pass
  // makes no progress.
  const int saved_place = detail::tl_place;
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (int p = 0; p < cfg_.places; ++p) {
      if (!place_is_local(p)) continue;
      detail::tl_place = p;
      while (sched(p).step()) progressed = true;
    }
  }
  detail::tl_place = saved_place;
  detail::store_last_metrics(metrics_->snapshot());
  hist::set_enabled(false);
  if (!cfg_.metrics_path.empty()) {
    write_metrics(cfg_.metrics_path, last_run_metrics());
  }
  if (!cfg_.trace_path.empty()) trace::write_chrome_json(cfg_.trace_path);
  trace::shutdown();
}

void Runtime::worker_loop(int place, int wid) {
  detail::tl_place = place;
  sched(place).bind_worker(wid);
  sched(place).run_until(
      [this] { return shutdown_.load(std::memory_order_acquire); });
  // Unbinding also drains the worker's private message batch (chaos
  // stragglers delivered past the root finish) so teardown stays exact.
  sched(place).unbind_worker();
  detail::tl_place = -1;
}

void Runtime::run(const Config& cfg, std::function<void()> main) {
  assert(current_ == nullptr && "only one APGAS runtime may be live");
  if (cfg.backend == BackendKind::kSocket && cfg.places > 1) {
    // Places become separate processes. Fork the mesh *before* any Runtime
    // (and its transport/DMA threads) exists; each child constructs its own
    // Runtime in run_child and this process only supervises.
    launcher::run_places(cfg, std::move(main));
    return;
  }
  Runtime rt(cfg);
  current_ = &rt;

  // Bootstrap: `main` executes at place 0 under the root finish; all other
  // places start idle (paper §2.1). Shutdown is announced once the root
  // finish has terminated, at which point the whole job has quiesced.
  Activity boot;
  boot.body = [&rt, m = std::move(main)] {
    finish(Pragma::kAuto, m);
    rt.shutdown_.store(true, std::memory_order_release);
    for (int p = 0; p < rt.places(); ++p) rt.transport().notify(p);
  };
  rt.sched(0).push(std::move(boot));

  // Live telemetry (in-process flavour): one sampler over the shared
  // registry, place -1 ("whole job"), appended straight to the JSONL file —
  // there is no supervisor to stream through.
  std::unique_ptr<telemetry::JsonlWriter> tlog;
  std::unique_ptr<Telemetry> tele;
  if (cfg.telemetry_interval_ms > 0) {
    const std::string path = cfg.telemetry_path.empty()
                                 ? std::string("apgas_telemetry.jsonl")
                                 : cfg.telemetry_path;
    tlog = std::make_unique<telemetry::JsonlWriter>(path);
    telemetry::JsonlWriter* w = tlog.get();
    tele = std::make_unique<Telemetry>(
        rt.metrics(), /*place=*/-1, cfg.telemetry_interval_ms,
        cfg.telemetry_keys,
        [w](const std::string& line) { w->append(line); });
    tele->start();
  }

  // The stall watchdog samples progress counters from outside the worker
  // pool; it must stop before finalize_observability tears the trace down.
  std::unique_ptr<Watchdog> watchdog;
  if (cfg.watchdog_interval_ms > 0) {
    watchdog = std::make_unique<Watchdog>(
        rt, std::chrono::milliseconds(cfg.watchdog_interval_ms),
        cfg.watchdog_stall_intervals > 0 ? cfg.watchdog_stall_intervals : 1);
    if (tlog) {
      // Mirror diagnoses into the telemetry stream (apgas_top flags them)
      // while keeping the stderr report.
      telemetry::JsonlWriter* w = tlog.get();
      watchdog->set_report_sink([w](const std::string& r) {
        std::fwrite(r.data(), 1, r.size(), stderr);
        std::fflush(stderr);
        w->append(
            telemetry::wrap_watchdog(-1, hist::now_ns() / 1000000, r));
      });
    }
    watchdog->start();
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.places) *
                  cfg.workers_per_place);
  for (int p = 0; p < cfg.places; ++p) {
    for (int w = 0; w < cfg.workers_per_place; ++w) {
      workers.emplace_back([&rt, p, w] { rt.worker_loop(p, w); });
    }
  }
  for (auto& t : workers) t.join();
  if (watchdog) watchdog->stop();
  if (tele) tele->stop();
  rt.finalize_observability();
  team_detail::registry_clear();
  current_ = nullptr;
}

std::optional<std::string> Runtime::idle_frame_counts() {
  const int p = local_place_;
  // Read the counts first, then drain: if the drain makes no progress, no
  // handler ran after the read, so every frame counted as received has
  // already run and no send is missing from the sent counts.
  const std::vector<x10rt::BackendPeerDiag> diag = transport_->backend_diag();
  bool progressed = false;
  while (sched(p).step()) progressed = true;
  transport_->backend_flush();
  if (progressed || transport_->inbox_depth(p) != 0 ||
      !transport_->backend_tx_drained()) {
    return std::nullopt;
  }
  return launcher::encode_frame_counts(cfg_.places, diag);
}

int Runtime::run_child(const Config& cfg, std::function<void()> main,
                       const launcher::SocketWiring& wiring) {
  assert(current_ == nullptr && "only one APGAS runtime may be live");
  Config c = cfg;
  // Per-place metrics files so the place processes don't clobber one
  // another; the parent writes the aggregate under the original name. Traces
  // are different: the child keeps the flight recorder armed but writes no
  // file of its own — it ships the raw event blob over the control socket
  // and the supervisor writes the single merged trace.
  c.metrics_path = launcher::per_place_path(cfg.metrics_path, wiring.place);
  if (!cfg.trace_path.empty()) c.trace = true;
  c.trace_path.clear();

  Runtime rt(c, &wiring);
  current_ = &rt;
  const int p = wiring.place;
  detail::tl_place = p;

  launcher::CtrlChannel ctrl(wiring.ctrl_fd);

  if (p == 0) {
    Activity boot;
    Runtime* rtp = &rt;
    boot.body = [rtp, m = std::move(main)] {
      finish(Pragma::kAuto, m);
      // The root finish closed: the job is over. Tell every other place
      // process, then stop locally.
      for (int q = 1; q < rtp->places(); ++q) {
        rtp->transport().send_am(0, q, rtp->am_shutdown_,
                                 rtp->transport().acquire_buffer(),
                                 x10rt::MsgType::kControl);
      }
      rtp->shutdown_.store(true, std::memory_order_release);
      rtp->transport().notify(0);
    };
    rt.sched(0).push(std::move(boot));
  }

  std::unique_ptr<Watchdog> watchdog;
  if (c.watchdog_interval_ms > 0) {
    watchdog = std::make_unique<Watchdog>(
        rt, std::chrono::milliseconds(c.watchdog_interval_ms),
        c.watchdog_stall_intervals > 0 ? c.watchdog_stall_intervals : 1);
    // Under the socket backend a stderr diagnosis from one place interleaves
    // with three others'; ship it to the supervisor instead, which prints it
    // place-labelled and mirrors it into the telemetry JSONL.
    watchdog->set_report_sink(
        [&ctrl](const std::string& r) { ctrl.send_frame('W', r); });
    watchdog->start();
  }

  std::unique_ptr<Telemetry> tele;
  if (c.telemetry_interval_ms > 0) {
    tele = std::make_unique<Telemetry>(
        rt.metrics(), p, c.telemetry_interval_ms, c.telemetry_keys,
        [&ctrl](const std::string& line) { ctrl.send_frame('T', line); });
    tele->start();
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(c.workers_per_place));
  for (int w = 0; w < c.workers_per_place; ++w) {
    workers.emplace_back([&rt, p, w] { rt.worker_loop(p, w); });
  }
  for (auto& t : workers) t.join();
  if (watchdog) watchdog->stop();
  // Stop the sampler (it emits one final frame) before the first 'Q': after
  // it the only upstream traffic may be further 'Q' reports and then
  // 'M'/'R'.
  if (tele) tele->stop();

  // Teardown barrier (docs/transport.md "Teardown: channel counting"):
  // whenever the place is idle and its frame counts differ from the last
  // report, report 'Q' with them; keep draining, since a slower peer may
  // still send, until the supervisor has balanced every channel and
  // releases everyone with 'G'.
  std::string reported;
  do {
    if (std::optional<std::string> counts = rt.idle_frame_counts();
        counts && *counts != reported) {
      ctrl.send_frame('Q', *counts);
      reported = std::move(*counts);
    }
  } while (!launcher::child_poll_go(wiring.ctrl_fd));

  // Capture the flight recorder's events *before* finalize_observability
  // shuts it down; the supervisor adds this process's epoch to each and
  // merges all places into one Perfetto file.
  std::string trace_blob;
  if (trace::enabled()) {
    trace_blob = trace::encode_events(trace::epoch_abs_ns(),
                                      trace::drain_all());
  }
  rt.finalize_observability();
  ctrl.send_frame('M', format_metrics(last_run_metrics(), /*as_json=*/false));
  ctrl.send_frame('R', trace_blob);
  team_detail::registry_clear();
  current_ = nullptr;
  detail::tl_place = -1;
  return 0;
}

void Runtime::record_ship_latency(std::uint64_t t_send_ns) {
  const std::uint64_t lat = ship_latency_ns(hist::now_ns(), t_send_ns);
  (multi_process() ? hist_ship_xproc_aligned_ : hist_ship_frame_)->record(lat);
}

void Runtime::send_task_frame(int dst, int fn_id, x10rt::ByteBuffer args,
                              const FinCtx& ctx, std::uint64_t credit,
                              std::uint64_t span, std::uint64_t parent_span) {
  finc_.tasks_shipped->fetch_add(1, std::memory_order_relaxed);
  trace::emit(trace::Ev::kMsgSend,
              static_cast<std::uint64_t>(x10rt::MsgType::kTask),
              static_cast<std::uint64_t>(dst));
  x10rt::ByteBuffer frame = transport_->acquire_buffer();
  frame.put<std::int32_t>(ctx.key.home);
  frame.put<std::uint64_t>(ctx.key.seq);
  frame.put<std::uint8_t>(static_cast<std::uint8_t>(ctx.mode));
  frame.put<std::uint64_t>(credit);
  frame.put<std::uint64_t>(span);
  frame.put<std::uint64_t>(parent_span);
  // The ship-time stamp travels inside the frame (not on the Message) so it
  // survives the socket wire's fixed header. Every place process reads the
  // same host clock, so the receiver subtracts it directly.
  frame.put<std::uint64_t>(hist::enabled() ? hist::now_ns() : 0);
  frame.put<std::int32_t>(fn_id);
  // Ship exactly the unread suffix [position(), size()): the argument
  // convention is "the task function sees the bytes the caller had not yet
  // consumed", and the local fast path in asyncAtFrame honors the same
  // slice, so a caller that pre-read a prefix gets identical bytes either
  // way (ISSUE 10 satellite).
  if (args.remaining() != 0) {
    frame.put_raw(args.bytes().data() + args.position(), args.remaining());
  }
  transport_->send_am(here(), dst, am_spawn_, std::move(frame),
                      x10rt::MsgType::kTask);
}

void Runtime::send_immediate_frame(int dst, int fn_id, x10rt::ByteBuffer args,
                                   x10rt::MsgType type) {
  // A trace event plus the transport's own per-class tallies — no
  // tasks_shipped bump, no ship-latency stamp (run_diff relies on
  // ship-histogram count == tasks_shipped).
  trace::emit(trace::Ev::kMsgSend, static_cast<std::uint64_t>(type),
              static_cast<std::uint64_t>(dst));
  x10rt::ByteBuffer frame = transport_->acquire_buffer();
  frame.put<std::int32_t>(fn_id);
  if (args.remaining() != 0) {
    frame.put_raw(args.bytes().data() + args.position(), args.remaining());
  }
  transport_->send_am(here(), dst, am_immediate_, std::move(frame), type);
}

void Runtime::check_closure_can_reach(int dst, const char* what) const {
  if (multi_process() && dst != local_place_) {
    std::fprintf(stderr,
                 "[apgas] fatal: %s to place %d cannot cross a process "
                 "boundary under the socket backend; register the body "
                 "(register_task_fn) and spawn it with asyncAtFrame\n",
                 what, dst);
    std::abort();
  }
}

bool Runtime::with_home_finish(FinishKey key,
                               const std::function<void(FinishHome&)>& fn) {
  assert(here() == key.home && "home-registry lookups run at the home place");
  auto& ps = pstate(key.home);
  std::scoped_lock lock(ps.fin_mu);
  auto it = ps.home_finishes.find(key.seq);
  if (it == ps.home_finishes.end()) return false;  // late; finish released
  fn(*it->second);
  return true;
}

FinCtx current_spawn_ctx() {
  if (detail::tl_open_finish != nullptr) {
    FinCtx ctx;
    ctx.home = detail::tl_open_finish;
    ctx.key = detail::tl_open_finish->key();
    ctx.mode = detail::tl_open_finish->mode();
    return ctx;
  }
  assert(detail::tl_activity != nullptr &&
         (detail::tl_activity->fin.home != nullptr ||
          detail::tl_activity->fin.key.valid()) &&
         "spawn outside of any finish scope");
  return detail::tl_activity->fin;
}

}  // namespace apgas

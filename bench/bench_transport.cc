// Transport coalescing probe (ISSUE 3 acceptance measurements).
//
// Measures the sender-side aggregation layer the way the paper reports its
// control-message coalescing (§3.1): the small-AM flood rate with the layer
// off vs on, and the achieved records-per-envelope factor. Two probes:
//   (a) flood    — place 0 floods N small AMs at place 1, receiver drains
//                  with poll_batch; run direct and coalesced. This is the
//                  per-message lock+alloc cost the envelope train amortizes.
//   (b) echo     — request/response pairs (the pattern finish control
//                  traffic follows), direct vs coalesced with an explicit
//                  idle-style flush after each burst.
//   (c) reliability — the same flood with the ack/retransmit sublayer
//                  armed: lossless (pure sublayer overhead: stamping,
//                  dedup bookkeeping, piggyback acks) and under 5% drop +
//                  2% dup chaos (what loss actually costs end to end).
// Writes machine-readable JSON (BENCH_coalescing.json, override with
// APGAS_BENCH_OUT). The committed BENCH_coalescing.json additionally carries
// the before/after kernel rows (bench_finish / bench_uts /
// bench_randomaccess) — see EXPERIMENTS.md for the exact commands.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/autotune.h"
#include "x10rt/transport.h"

namespace {

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct FloodResult {
  std::string mode;
  int msgs = 0;
  double secs = 0;
  double msgs_per_sec = 0;
  double records_per_envelope = 0;  // 0 when the layer is off
};

x10rt::TransportConfig probe_cfg(bool coalesce) {
  x10rt::TransportConfig tc;
  tc.places = 2;
  tc.dma_threads = 0;
  if (coalesce) {
    tc.coalesce_bytes = 4096;
    tc.coalesce_msgs = 128;
  }
  return tc;
}

/// One rep of (a): a one-way burst flood — all `n` 8-byte AMs are injected,
/// the partial tail envelope is flushed the way the scheduler's idle hook
/// would, then the destination drains in poll_batch chunks. Timing the
/// whole burst (rather than ping-ponging sender and receiver) exposes both
/// halves of the win: per-message injection overhead *and* the inbox
/// holding n queued messages vs n/records_per_envelope envelopes. Folds the
/// rep's time into `r.secs` (min).
void run_flood(bool coalesce, int n, FloodResult& r) {
  x10rt::Transport tr(probe_cfg(coalesce));
  long received = 0;
  tr.register_am([&received](x10rt::ByteBuffer&) { ++received; });
  std::deque<x10rt::Message> batch;
  const double t0 = now_secs();
  for (int i = 0; i < n; ++i) {
    x10rt::ByteBuffer b = tr.acquire_buffer();
    b.put(static_cast<std::uint64_t>(i));
    tr.send_am(0, 1, 0, std::move(b));
  }
  tr.flush_coalesced(0, x10rt::FlushReason::kIdle);
  while (tr.poll_batch(1, batch, 64) > 0) {
    while (!batch.empty()) {
      tr.dispatch(1, batch.front());
      batch.pop_front();
    }
  }
  const double secs = now_secs() - t0;
  if (received != n) {
    std::fprintf(stderr, "flood lost messages: %ld != %d\n", received, n);
    std::exit(1);
  }
  r.secs = std::min(r.secs, secs);
  if (tr.coalesce_envelopes() > 0) {
    r.records_per_envelope = static_cast<double>(tr.coalesce_records()) /
                             static_cast<double>(tr.coalesce_envelopes());
  }
}

/// One rep of (b): request/response bursts — 32 requests at a time, each
/// answered by the remote handler, then both sides flush + drain; the shape
/// of finish credit/completion traffic between two places.
void run_echo(bool coalesce, int pairs, FloodResult& r) {
  x10rt::Transport tr(probe_cfg(coalesce));
  long received = 0;
  const int kReply = 1;
  tr.register_am([&tr, kReply](x10rt::ByteBuffer& buf) {
    x10rt::ByteBuffer b = tr.acquire_buffer();
    b.put(buf.get<std::uint64_t>());
    tr.send_am(1, 0, kReply, std::move(b));
  });
  tr.register_am([&received](x10rt::ByteBuffer&) { ++received; });
  std::deque<x10rt::Message> batch;
  auto drain = [&tr, &batch](int place) {
    while (tr.poll_batch(place, batch, 64) > 0) {
      while (!batch.empty()) {
        tr.dispatch(place, batch.front());
        batch.pop_front();
      }
    }
  };
  const double t0 = now_secs();
  for (int i = 0; i < pairs; i += 32) {
    for (int j = 0; j < 32 && i + j < pairs; ++j) {
      x10rt::ByteBuffer b = tr.acquire_buffer();
      b.put(static_cast<std::uint64_t>(i + j));
      tr.send_am(0, 1, 0, std::move(b));
    }
    tr.flush_coalesced(0, x10rt::FlushReason::kIdle);
    drain(1);  // handlers enqueue replies (possibly parked at place 1)
    tr.flush_coalesced(1, x10rt::FlushReason::kIdle);
    drain(0);
  }
  const double secs = now_secs() - t0;
  if (received != pairs) {
    std::fprintf(stderr, "echo lost messages: %ld != %d\n", received, pairs);
    std::exit(1);
  }
  r.secs = std::min(r.secs, secs);
  if (tr.coalesce_envelopes() > 0) {
    r.records_per_envelope = static_cast<double>(tr.coalesce_records()) /
                             static_cast<double>(tr.coalesce_envelopes());
  }
}

/// One rep of (c): the flood of (a) with the reliability sublayer armed.
/// The sender drains both places every window of sends, the way the
/// scheduler's poll loop interleaves with injection — a fire-everything-
/// then-recover shape would stall the cumulative ack at the first dropped
/// sequence and measure a retransmit storm of its own making instead of
/// the protocol. Timeout is sized so only real drops retransmit (a window
/// is ~ms of wall time). The tail is recovered with the ack-first force-
/// pump loop `finalize_observability` runs, inside the timed region: the
/// recovery latency is the honest cost of loss.
void run_retx_flood(bool lossy, int n, FloodResult& r) {
  x10rt::TransportConfig tc;
  tc.places = 2;
  tc.dma_threads = 0;
  tc.retx_timeout_us = 20'000;
  if (lossy) {
    tc.chaos.drop_prob = 0.05;
    tc.chaos.dup_prob = 0.02;
  }
  x10rt::Transport tr(tc);
  long received = 0;
  tr.register_am([&received](x10rt::ByteBuffer&) { ++received; });
  std::deque<x10rt::Message> batch;
  auto drain = [&tr, &batch](int place) {
    while (tr.poll_batch(place, batch, 64) > 0) {
      while (!batch.empty()) {
        tr.dispatch(place, batch.front());
        batch.pop_front();
      }
    }
  };
  const double t0 = now_secs();
  for (int i = 0; i < n; ++i) {
    x10rt::ByteBuffer b = tr.acquire_buffer();
    b.put(static_cast<std::uint64_t>(i));
    tr.send_am(0, 1, 0, std::move(b));
    if ((i + 1) % 2048 == 0) {
      drain(1);
      tr.retx_pump(1, /*force=*/true);  // ship ack debt without the idle wait
      drain(0);  // process acks; timer pump retransmits real drops
    }
  }
  drain(1);
  for (;;) {
    // Ack side first: let place 0 process place 1's acks *before* any
    // force pump of the sender, or retained-but-delivered messages whose
    // ack is merely in flight would retransmit as a burst.
    tr.retx_pump(1, /*force=*/true);
    drain(0);
    if (tr.retx_quiescent()) break;
    tr.retx_pump(0, /*force=*/true);
    drain(1);
  }
  const double secs = now_secs() - t0;
  if (received != n) {
    std::fprintf(stderr, "retx flood lost messages: %ld != %d\n", received, n);
    std::exit(1);
  }
  r.secs = std::min(r.secs, secs);
}

// --- adaptive tuning probes (ISSUE 8) ---------------------------------------
//
// Three traffic shapes, each in three modes:
//   static_coalesce — the flood-tuned static config (4096-byte envelopes);
//   static_direct   — coalescing off (the latency-tuned static config);
//   adaptive        — the static_coalesce config plus an Autotune controller
//                     moving the per-pair flush threshold online.
// The shapes are chosen so each static mode wins one of the pure probes:
//   flood    — one-way small-AM burst: big envelopes win;
//   pingpong — window-1 round trips with idle-style flushes (a blocked
//              finish waiting on one remote child): every envelope carries
//              one record, so coalescing is pure overhead and direct wins;
//   mixed    — alternating flood bursts and pingpong trains in one run: any
//              static choice loses one phase, the controller re-converges
//              each phase and must beat both statics end to end.

enum class TuneMode { kStaticCoalesce, kStaticDirect, kAdaptive };

const char* tune_mode_name(TuneMode m) {
  switch (m) {
    case TuneMode::kStaticCoalesce: return "static_coalesce";
    case TuneMode::kStaticDirect: return "static_direct";
    case TuneMode::kAdaptive: return "adaptive";
  }
  return "?";
}

/// A bare transport plus (in adaptive mode) the controller, wired the way
/// Runtime wires them: flushes feed on_flush, poll_batch drives maybe_tick.
struct TuneHarness {
  std::unique_ptr<apgas::Autotune> at;
  std::unique_ptr<x10rt::Transport> tr;
  long flood_received = 0;
  long pong_received = 0;
  int am_flood = -1;
  int am_ping = -1;
  int am_pong = -1;

  explicit TuneHarness(TuneMode m) {
    x10rt::TransportConfig tc;
    tc.places = 2;
    tc.dma_threads = 0;
    if (m != TuneMode::kStaticDirect) {
      tc.coalesce_bytes = 4096;
      tc.coalesce_msgs = 128;
    }
    if (m == TuneMode::kAdaptive) {
      apgas::Autotune::Knobs kn;
      kn.coalesce_bytes_cap = tc.coalesce_bytes;
      at = std::make_unique<apgas::Autotune>(tc.places, kn);
      apgas::Autotune* a = at.get();
      tc.flush_hook = [a](int src, int dst, std::uint32_t records,
                          x10rt::FlushReason reason, std::uint64_t res_ns) {
        a->on_flush(src, dst, records, reason, res_ns);
      };
      tc.tick_hook = [a](int place) { a->maybe_tick(place); };
    }
    tr = std::make_unique<x10rt::Transport>(tc);
    if (at) at->attach_transport(tr.get());
    am_flood =
        tr->register_am([this](x10rt::ByteBuffer&) { ++flood_received; });
    am_ping = tr->register_am([this](x10rt::ByteBuffer& buf) {
      x10rt::ByteBuffer b = tr->acquire_buffer();
      b.put(buf.get<std::uint64_t>());
      tr->send_am(1, 0, am_pong, std::move(b));
    });
    am_pong = tr->register_am([this](x10rt::ByteBuffer&) { ++pong_received; });
  }

  /// Stands in for the sender-side scheduler tick a flooding place would get
  /// from its poll loop (the receiver side ticks through tc.tick_hook).
  void sender_tick(int place) {
    if (at) at->maybe_tick(place);
  }

  void drain(int place, std::deque<x10rt::Message>& batch) {
    while (tr->poll_batch(place, batch, 64) > 0) {
      while (!batch.empty()) {
        tr->dispatch(place, batch.front());
        batch.pop_front();
      }
    }
  }

  void flood_segment(int n, std::deque<x10rt::Message>& batch) {
    for (int i = 0; i < n; ++i) {
      x10rt::ByteBuffer b = tr->acquire_buffer();
      b.put(static_cast<std::uint64_t>(i));
      tr->send_am(0, 1, am_flood, std::move(b));
      if ((i + 1) % 256 == 0) sender_tick(0);
    }
    tr->flush_coalesced(0, x10rt::FlushReason::kIdle);
    drain(1, batch);
  }

  /// Window-1 round trips. The flushes are the idle-hook flushes a real
  /// place performs when it blocks on the reply — they run in every mode
  /// (no-ops when there is nothing parked), so the modes differ only in
  /// whether the record actually parked.
  void pingpong_segment(int n, std::deque<x10rt::Message>& batch) {
    for (int i = 0; i < n; ++i) {
      x10rt::ByteBuffer b = tr->acquire_buffer();
      b.put(static_cast<std::uint64_t>(i));
      tr->send_am(0, 1, am_ping, std::move(b));
      tr->flush_coalesced(0, x10rt::FlushReason::kIdle);
      drain(1, batch);  // handler enqueues (or parks) the reply
      tr->flush_coalesced(1, x10rt::FlushReason::kIdle);
      drain(0, batch);
      // No explicit sender_tick: both places are polled every round trip,
      // so the decimated poll-path hook drives the controller exactly as it
      // does for a runtime place blocked on a remote child.
    }
  }
};

void check_count(long got, long want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "%s lost messages: %ld != %ld\n", what, got, want);
    std::exit(1);
  }
}

void run_tune_flood(TuneMode m, int n, FloodResult& r) {
  TuneHarness h(m);
  std::deque<x10rt::Message> batch;
  const double t0 = now_secs();
  h.flood_segment(n, batch);
  const double secs = now_secs() - t0;
  check_count(h.flood_received, n, "tune flood");
  r.secs = std::min(r.secs, secs);
  if (h.tr->coalesce_envelopes() > 0) {
    r.records_per_envelope = static_cast<double>(h.tr->coalesce_records()) /
                             static_cast<double>(h.tr->coalesce_envelopes());
  }
}

void run_tune_pingpong(TuneMode m, int n, FloodResult& r) {
  TuneHarness h(m);
  std::deque<x10rt::Message> batch;
  const double t0 = now_secs();
  h.pingpong_segment(n, batch);
  const double secs = now_secs() - t0;
  check_count(h.pong_received, n, "tune pingpong");
  r.secs = std::min(r.secs, secs);
  if (h.tr->coalesce_envelopes() > 0) {
    r.records_per_envelope = static_cast<double>(h.tr->coalesce_records()) /
                             static_cast<double>(h.tr->coalesce_envelopes());
  }
}

/// Alternating phases in one timed run; counts one logical message per flood
/// AM and two per round trip.
void run_tune_mixed(TuneMode m, int cycles, int flood_n, int ping_n,
                    FloodResult& r, std::uint64_t* adjusts = nullptr) {
  TuneHarness h(m);
  std::deque<x10rt::Message> batch;
  const double t0 = now_secs();
  for (int c = 0; c < cycles; ++c) {
    h.flood_segment(flood_n, batch);
    h.pingpong_segment(ping_n, batch);
  }
  const double secs = now_secs() - t0;
  check_count(h.flood_received, static_cast<long>(cycles) * flood_n,
              "mixed flood");
  check_count(h.pong_received, static_cast<long>(cycles) * ping_n,
              "mixed pingpong");
  r.secs = std::min(r.secs, secs);
  if (h.tr->coalesce_envelopes() > 0) {
    r.records_per_envelope = static_cast<double>(h.tr->coalesce_records()) /
                             static_cast<double>(h.tr->coalesce_envelopes());
  }
  if (adjusts != nullptr && h.at) {
    *adjusts =
        std::max(*adjusts, h.at->adjust_up() + h.at->adjust_down());
  }
}

void print_rows(const std::vector<FloodResult>& rows) {
  bench::row("%12s %10s %10s %14s %12s", "mode", "msgs", "secs", "msgs/s",
             "recs/env");
  for (const auto& r : rows) {
    bench::row("%12s %10d %10.4f %14.0f %12.1f", r.mode.c_str(), r.msgs,
               r.secs, r.msgs_per_sec, r.records_per_envelope);
  }
}

void json_rows(std::FILE* f, const std::vector<FloodResult>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"msgs\": %d, \"secs\": %.6f, "
                 "\"msgs_per_sec\": %.0f, \"records_per_envelope\": %.2f}%s\n",
                 r.mode.c_str(), r.msgs, r.secs, r.msgs_per_sec,
                 r.records_per_envelope, i + 1 < rows.size() ? "," : "");
  }
}

}  // namespace

int main() {
  // Interleaved min-of-reps: on a loaded single-core host the noise has
  // longer periods than one whole probe, so direct and coalesced reps are
  // alternated (both modes sample every noise phase) and each mode reports
  // its best rep — the ratio of bests is the stable signal.
  const int kMsgs = 200000;
  const int kReps = 9;

  std::vector<FloodResult> flood(2);
  flood[0].mode = "direct";
  flood[1].mode = "coalesce";
  for (auto& r : flood) {
    r.msgs = kMsgs;
    r.secs = 1e30;
  }
  std::vector<FloodResult> echo(2);
  echo[0].mode = "direct";
  echo[1].mode = "coalesce";
  for (auto& r : echo) {
    r.msgs = kMsgs;
    r.secs = 1e30;
  }
  std::vector<FloodResult> retx(2);
  retx[0].mode = "retx";
  retx[1].mode = "retx+loss";
  for (auto& r : retx) {
    r.msgs = kMsgs;
    r.secs = 1e30;
  }
  for (int rep = 0; rep < kReps; ++rep) {
    run_flood(false, kMsgs, flood[0]);
    run_flood(true, kMsgs, flood[1]);
    run_echo(false, kMsgs / 2, echo[0]);
    run_echo(true, kMsgs / 2, echo[1]);
    run_retx_flood(false, kMsgs, retx[0]);
    run_retx_flood(true, kMsgs, retx[1]);
  }
  for (auto& r : flood) r.msgs_per_sec = static_cast<double>(r.msgs) / r.secs;
  for (auto& r : echo) r.msgs_per_sec = static_cast<double>(r.msgs) / r.secs;
  for (auto& r : retx) r.msgs_per_sec = static_cast<double>(r.msgs) / r.secs;

  bench::header("transport — small-AM flood (coalescing off vs on)");
  print_rows(flood);
  const double speedup = flood[1].msgs_per_sec / flood[0].msgs_per_sec;
  bench::row("%12s %.2fx", "speedup", speedup);

  bench::header("transport — request/response bursts (finish-shaped)");
  print_rows(echo);
  bench::row("%12s %.2fx", "speedup",
             echo[1].msgs_per_sec / echo[0].msgs_per_sec);

  bench::header("transport — flood with reliability sublayer (vs direct)");
  print_rows(retx);
  bench::row("%12s %.2fx overhead (lossless), %.2fx (5%% drop + 2%% dup)",
             "retx cost", flood[0].msgs_per_sec / retx[0].msgs_per_sec,
             flood[0].msgs_per_sec / retx[1].msgs_per_sec);

  // --- adaptive tuning (ISSUE 8) --------------------------------------------
  constexpr TuneMode kModes[] = {TuneMode::kStaticCoalesce,
                                 TuneMode::kStaticDirect, TuneMode::kAdaptive};
  const int kPings = 20000;
  const int kCycles = 3, kMixFlood = 20000, kMixPings = 2000;
  const int kMixMsgs = kCycles * (kMixFlood + 2 * kMixPings);
  std::vector<FloodResult> tflood(3), tping(3), tmix(3);
  for (int i = 0; i < 3; ++i) {
    tflood[i].mode = tping[i].mode = tmix[i].mode = tune_mode_name(kModes[i]);
    tflood[i].msgs = kMsgs;
    tping[i].msgs = 2 * kPings;  // a round trip is two logical messages
    tmix[i].msgs = kMixMsgs;
    tflood[i].secs = tping[i].secs = tmix[i].secs = 1e30;
  }
  std::uint64_t adaptive_adjusts = 0;
  // More reps than the coalescing section: the acceptance bar compares the
  // adaptive mode against the *better* static within 5%, so the min-of-reps
  // estimate has to be tight against scheduler jitter on a shared machine.
  const int kTuneReps = 21;
  for (int rep = 0; rep < kTuneReps; ++rep) {
    for (int i = 0; i < 3; ++i) {
      run_tune_flood(kModes[i], kMsgs, tflood[i]);
      run_tune_pingpong(kModes[i], kPings, tping[i]);
      run_tune_mixed(kModes[i], kCycles, kMixFlood, kMixPings, tmix[i],
                     kModes[i] == TuneMode::kAdaptive ? &adaptive_adjusts
                                                      : nullptr);
    }
  }
  for (auto& r : tflood) r.msgs_per_sec = static_cast<double>(r.msgs) / r.secs;
  for (auto& r : tping) r.msgs_per_sec = static_cast<double>(r.msgs) / r.secs;
  for (auto& r : tmix) r.msgs_per_sec = static_cast<double>(r.msgs) / r.secs;

  bench::header("transport — adaptive tuning: flood (coalesce-friendly)");
  print_rows(tflood);
  const double flood_frac = tflood[2].msgs_per_sec / tflood[0].msgs_per_sec;
  bench::row("%12s %.2f of static_coalesce", "adaptive", flood_frac);

  bench::header("transport — adaptive tuning: window-1 pingpong (direct-friendly)");
  print_rows(tping);
  const double ping_frac = tping[2].msgs_per_sec / tping[1].msgs_per_sec;
  bench::row("%12s %.2f of static_direct", "adaptive", ping_frac);

  bench::header("transport — adaptive tuning: mixed phases (nobody's static)");
  print_rows(tmix);
  const double mix_vs_coal = tmix[2].msgs_per_sec / tmix[0].msgs_per_sec;
  const double mix_vs_direct = tmix[2].msgs_per_sec / tmix[1].msgs_per_sec;
  bench::row("%12s %.2fx vs static_coalesce, %.2fx vs static_direct "
             "(%llu adjustments)",
             "adaptive", mix_vs_coal, mix_vs_direct,
             static_cast<unsigned long long>(adaptive_adjusts));

  const char* out = std::getenv("APGAS_BENCH_OUT");
  const std::string path = out != nullptr ? out : "BENCH_coalescing.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"coalescing\",\n  \"flood\": [\n");
  json_rows(f, flood);
  std::fprintf(f, "  ],\n  \"echo\": [\n");
  json_rows(f, echo);
  std::fprintf(f, "  ],\n  \"reliability\": [\n");
  json_rows(f, retx);
  std::fprintf(f, "  ],\n  \"flood_speedup\": %.2f\n}\n", speedup);
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());

  const char* out2 = std::getenv("APGAS_BENCH_OUT_AUTOTUNE");
  const std::string path2 = out2 != nullptr ? out2 : "BENCH_autotune.json";
  std::FILE* f2 = std::fopen(path2.c_str(), "w");
  if (f2 == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path2.c_str());
    return 1;
  }
  std::fprintf(f2, "{\n  \"bench\": \"autotune\",\n  \"flood\": [\n");
  json_rows(f2, tflood);
  std::fprintf(f2, "  ],\n  \"pingpong\": [\n");
  json_rows(f2, tping);
  std::fprintf(f2, "  ],\n  \"mixed\": [\n");
  json_rows(f2, tmix);
  std::fprintf(f2,
               "  ],\n"
               "  \"adaptive_fraction_of_best_static_flood\": %.3f,\n"
               "  \"adaptive_fraction_of_best_static_pingpong\": %.3f,\n"
               "  \"mixed_speedup_vs_static_coalesce\": %.3f,\n"
               "  \"mixed_speedup_vs_static_direct\": %.3f,\n"
               "  \"adaptive_adjustments\": %llu\n}\n",
               flood_frac, ping_frac, mix_vs_coal, mix_vs_direct,
               static_cast<unsigned long long>(adaptive_adjusts));
  std::fclose(f2);
  std::printf("[wrote %s]\n", path2.c_str());
  return 0;
}

// Cristian-style clock-offset estimation between the launcher supervisor and
// its place processes.
//
// Every process on the mesh stamps events with hist::now_ns() — absolute
// steady_clock nanoseconds. On a single host all places read the same
// physical clock, so offsets are near zero; the estimator still runs for
// real because (a) it is the piece that makes a future multi-host backend's
// traces mergeable and (b) it corrects the epoch skew that per-process trace
// recorders introduce (each child zeroes its trace clock at its own init).
//
// Protocol (driven by the launcher over the per-child ctrl socket):
//   supervisor                      child
//   t0 = now();  send 'C'  ───►
//                          ◄───    r = now()   (8-byte echo)
//   t1 = now()
//
// One round yields Sample{t0, t1, r}. The estimate from a set of rounds uses
// the minimum-RTT sample — the round least polluted by scheduling delay —
// and models the exchange as symmetric: the echo is assumed to have been
// taken at the midpoint m = (t0 + t1) / 2, so
//
//   offset = m - r        (supervisor_ns ≈ child_ns + offset)
//
// with worst-case error rtt/2 for the chosen sample. Two estimates taken at
// different times (attach and the teardown barrier) give a linear drift
// model used when rebasing child trace timestamps into the supervisor clock
// domain.
//
// Everything here is pure arithmetic over samples — unit-testable without
// sockets. The only process state is the child-side offset table armed by
// the launcher handshake and read by the scheduler's aligned-ship-latency
// path.
#pragma once

#include <cstdint>
#include <vector>

namespace apgas::clocksync {

/// One request/echo round, all in hist::now_ns() units: t0/t1 are the local
/// (supervisor) send/receive stamps, remote_ns is the child's clock echo.
struct Sample {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint64_t remote_ns = 0;
};

/// Offset such that local_ns ≈ remote_ns + offset_ns, from the minimum-RTT
/// sample of a round set. remote_ref_ns anchors the drift model: it is the
/// remote clock reading at which offset_ns was measured.
struct Estimate {
  std::int64_t offset_ns = 0;
  std::uint64_t rtt_ns = 0;
  std::uint64_t remote_ref_ns = 0;
  bool valid = false;
};

/// Min-RTT estimate over `samples`. Rounds with t1 < t0 (a torn clock read
/// can in principle produce one) are ignored; no usable sample → !valid.
[[nodiscard]] Estimate estimate(const std::vector<Sample>& samples);

/// Linear clock-drift model between two estimates of the same child:
/// offset(t) = offset_ns + drift * (t - remote_ref_ns), t in remote ns.
struct DriftModel {
  std::int64_t offset_ns = 0;
  std::uint64_t remote_ref_ns = 0;
  double drift = 0.0;  // d(offset)/d(remote time), dimensionless
};

/// Model through estimates `a` (earlier) and `b` (later). If either estimate
/// is invalid or they share a reference instant, the model degrades to a
/// constant offset from whichever estimate is valid (identity when neither
/// is). Drift magnitudes above 1000 ppm are treated as measurement noise and
/// clamped to zero — real oscillators drift tens of ppm.
[[nodiscard]] DriftModel drift_model(const Estimate& a, const Estimate& b);

/// Maps a remote-clock instant into the local clock domain.
[[nodiscard]] std::int64_t rebase_ns(const DriftModel& m,
                                     std::uint64_t remote_ns);

/// The clock the protocol echoes: absolute steady_clock ns, identical to
/// hist::now_ns() (re-exposed here so the launcher does not need the
/// histogram header).
[[nodiscard]] std::uint64_t now_ns();

/// Child-side offset table: offsets[p] maps place p's clock into the
/// supervisor domain. Armed once by the launcher handshake before any worker
/// starts; read lock-free afterwards.
void set_offsets(std::vector<std::int64_t> offsets);
void clear_offsets();
[[nodiscard]] bool armed();

/// Offset for `place` (0 when unarmed or out of range).
[[nodiscard]] std::int64_t offset_ns(int place);

/// Cross-process ship latency with both endpoints rebased into the
/// supervisor domain: (recv + off[dst]) - (send + off[src]), clamped to >= 1
/// so the histogram never sees the wraparound values the unaligned clamp
/// workaround guarded against.
[[nodiscard]] std::uint64_t aligned_ship_ns(std::uint64_t recv_ns, int dst,
                                            std::uint64_t send_ns, int src);

}  // namespace apgas::clocksync

// apgas_launch's engine: places as separate processes.
//
// run_places is called by Runtime::run *before* any Runtime (and therefore
// any thread) exists: it builds the full socketpair mesh plus one control
// socketpair per child, forks cfg.places processes, and each child
// constructs its own Runtime over a SocketBackend (Runtime::run_child). The
// parent never hosts a place — it supervises:
//
//   * teardown barrier (docs/transport.md "Teardown: channel counting"):
//     each child reports 'Q' with its per-peer frame counts whenever it is
//     idle and the counts changed since its last report, and keeps draining
//     its inbox. Once the latest reports balance every channel — place q
//     received from p exactly the frames p sent to q, for every ordered
//     pair — and any configured kill injection has fired, the parent
//     broadcasts 'G' and the children finalize.
//   * live telemetry: children stream 'T' frames (telemetry.h JSON lines)
//     and 'W' watchdog reports while running; the parent appends them to
//     cfg.telemetry_path (one JSONL for the whole job — tail it with
//     tools/apgas_top) and echoes watchdog reports, place-labelled, to
//     stderr.
//   * metrics + trace collection: after 'G' each child sends its metrics
//     blob ('M') and, when tracing, its flight-recorder drain ('R'). The
//     parent sums counters (max for percentile keys), publishes the
//     aggregate through last_run_metrics(), writes cfg.metrics_path
//     (children write per-place files with ".pN" inserted), and — when
//     cfg.trace_path is set — writes ONE merged Perfetto JSON with
//     per-place process rows and cross-process flow arrows. Every place
//     process reads the host's one monotonic clock, so an event's time is
//     its blob's epoch plus its offset; nothing is estimated or corrected.
//   * failure supervision: a control-socket EOF before 'G' (a child that
//     dies at start-up included), a child killed by a signal, or a nonzero
//     exit status makes the parent report the failed place on stderr,
//     SIGKILL the remaining children, reap everything, and exit nonzero — a
//     crashed place never hangs the job.
//
// Control-socket protocol. The one downstream (parent → child) command is the
// single byte 'G' (go). Upstream (child → parent) messages are uniform
// tagged frames [tag u8][len u32][payload]: 'Q' (idle, places × {u64 frames
// sent to q, u64 frames received from q}), 'T' (telemetry line), 'W'
// (watchdog report), 'M' (metrics blob, format_metrics text), 'R' (trace
// blob; empty when not tracing). A child starts its workers as soon as it
// is forked; the parent's first read is the barrier loop.
//
// Fault injection for the crash tests: APGAS_LAUNCH_KILL_PLACE=<p> (with
// optional APGAS_LAUNCH_KILL_AFTER_MS, default 0) SIGKILLs place p once the
// delay elapses. The parent withholds 'G' until the kill has fired, so the
// victim is guaranteed to still exist.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/config.h"

namespace apgas::launcher {

/// What a forked place process needs to join the mesh.
struct SocketWiring {
  int place = -1;
  std::vector<int> peer_fds;  ///< indexed by place; -1 for self
  int ctrl_fd = -1;           ///< status/teardown channel to the supervisor
};

/// Forks the mesh and supervises it (see file comment). Returns normally
/// when every place exited cleanly; on any failure it reports and calls
/// exit(nonzero). Must be called while the process is single-threaded.
void run_places(const Config& cfg, std::function<void()> main);

/// Serializes upstream ctrl-socket frames from a child's concurrent writers
/// (main thread, telemetry sampler, watchdog). A dead supervisor exits the
/// child immediately — there is nobody left to report to.
class CtrlChannel {
 public:
  explicit CtrlChannel(int fd) : fd_(fd) {}
  CtrlChannel(const CtrlChannel&) = delete;
  CtrlChannel& operator=(const CtrlChannel&) = delete;

  void send_frame(char tag, std::string_view payload);

 private:
  int fd_ = -1;
  std::mutex mu_;
};

/// Non-blocking-ish poll for the go signal; waits at most ~1ms. Returns true
/// once 'G' arrived. A dead supervisor exits the child immediately.
bool child_poll_go(int ctrl_fd);

/// A child's 'Q' payload: for every place q, the frames this place sent to q
/// and received from q (two native-endian u64 per place; 0 for itself).
std::string encode_frame_counts(int places,
                                const std::vector<x10rt::BackendPeerDiag>& diag);

/// The supervisor's release test: true when every place has reported
/// (`reports[p]` is place p's latest 'Q' payload, empty before its first)
/// and, for every ordered pair, q's received-from-p count equals p's
/// sent-to-q count.
bool frame_counts_balanced(const std::vector<std::string>& reports);

/// Inserts ".pN" before the path's extension ("m.json" -> "m.p2.json") so
/// every place process writes its own metrics/trace files.
std::string per_place_path(const std::string& path, int place);

}  // namespace apgas::launcher

// Backend: the wire under the Transport.
//
// Transport owns everything protocol-shaped — framing, dispatch, chaos
// injection — and a Backend only moves opaque byte frames between places.
// Both wires are lossless and FIFO per peer, so no layer above them acks,
// retransmits or dedups. Two implementations exist:
//
//   * InProcBackend (default): all places share the process, messages hop
//     between inboxes as Message values and no frame is ever encoded. send_frame
//     is unreachable by construction (Transport only encodes frames when the
//     backend is multi_process), so the in-process fast path keeps its
//     zero-overhead shape from before the interface existed.
//   * SocketBackend (socket_backend.h): one process per place, frames over
//     non-blocking Unix-domain sockets.
//
// Delivery is push-based: start() hands the backend a sink, and the backend
// invokes it (from its own I/O thread) once per complete frame. The sink —
// Transport::deliver_frame — validates, decodes the Message, and enqueues
// it into the local inbox, so chaos injection and sleeper wakeups apply
// identically on both backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

namespace x10rt {

struct BackendStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Per-peer queue depths and frame counts: the watchdog's stall diagnosis
/// and the cross-process teardown barrier (docs/transport.md "Teardown").
struct BackendPeerDiag {
  int peer = -1;
  std::size_t tx_pending_bytes = 0;  ///< encoded bytes waiting for POLLOUT
  std::size_t rx_buffered_bytes = 0; ///< received bytes not yet a full frame
  /// Frames handed to send_frame for this peer.
  std::uint64_t frames_sent = 0;
  /// Frames from this peer that the sink has already taken (a frame counts
  /// only once it sits in the local inbox).
  std::uint64_t frames_received = 0;
};

class Backend {
 public:
  /// Receives one complete frame (length prefix stripped) from `peer`.
  using FrameSink =
      std::function<void(int peer, const std::uint8_t* data, std::size_t len)>;

  virtual ~Backend() = default;

  /// True when places live in separate processes (pointers cannot cross).
  [[nodiscard]] virtual bool multi_process() const = 0;
  /// The one place this process hosts; -1 when all places are local.
  [[nodiscard]] virtual int local_place() const = 0;

  /// Begins delivering inbound frames to `sink`. Called once, before any
  /// traffic; the sink must stay callable until stop() returns.
  virtual void start(FrameSink sink) = 0;
  /// Stops the I/O thread; no sink invocation is in flight afterwards.
  virtual void stop() = 0;

  /// Ships one encoded frame (length prefix included; see frame::encode) to
  /// place `dst`. Thread-safe; never blocks on a slow peer — undeliverable
  /// bytes queue until the socket drains.
  virtual void send_frame(int dst, std::vector<std::uint8_t> frame) = 0;
  /// Opportunistically pushes queued tx bytes without waiting for POLLOUT.
  virtual void flush() = 0;

  [[nodiscard]] virtual BackendStats stats() const = 0;
  [[nodiscard]] virtual std::vector<BackendPeerDiag> diag() const = 0;
};

/// The default single-process backend: delivery happens inside
/// Transport::wire_deliver, so every hook is a no-op and send_frame is a
/// logic error loud enough to catch a mis-routed message immediately.
class InProcBackend final : public Backend {
 public:
  [[nodiscard]] bool multi_process() const override { return false; }
  [[nodiscard]] int local_place() const override { return -1; }
  void start(FrameSink) override {}
  void stop() override {}
  void send_frame(int dst, std::vector<std::uint8_t>) override {
    std::fprintf(stderr,
                 "[x10rt] fatal: send_frame(dst=%d) on the in-process "
                 "backend; wire frames exist only between processes\n",
                 dst);
    std::abort();
  }
  void flush() override {}
  [[nodiscard]] BackendStats stats() const override { return {}; }
  [[nodiscard]] std::vector<BackendPeerDiag> diag() const override { return {}; }
};

}  // namespace x10rt

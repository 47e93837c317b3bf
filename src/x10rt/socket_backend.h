// SocketBackend: places as separate processes over Unix-domain sockets.
//
// One connected SOCK_STREAM fd per peer place (a socketpair mesh wired by
// the launcher before fork, or by a test directly). A single I/O thread
// poll(2)s every peer plus a wakeup pipe: POLLIN bytes accumulate in a
// per-peer reassembly buffer and complete length-prefixed frames are pushed
// to the sink; POLLOUT drains the per-peer tx backlog that non-blocking
// sends could not write inline.
//
// The backend is a dumb pipe on purpose: a stream socket is lossless and
// FIFO, and reordering is the Transport's business (its chaos layer injects
// it at the *receiving* inbox, identically to the in-process backend). The
// backend counts frames per peer in each direction; cross-process teardown
// balances those counts (docs/transport.md "Teardown: channel counting").
// The one check the backend does make is framing sanity — a
// length prefix outside [header, kMaxFrameBytes] means the stream is
// corrupt beyond recovery and aborts immediately rather than resynchronize
// on attacker-controlled bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "x10rt/backend.h"

namespace x10rt {

class SocketBackend final : public Backend {
 public:
  /// `peer_fds[p]` is a connected stream socket to place p, or -1 for self
  /// (and for places this backend will never talk to, e.g. test harnesses
  /// wiring only two transports). Takes ownership of the fds.
  SocketBackend(int local_place, std::vector<int> peer_fds);
  ~SocketBackend() override;

  [[nodiscard]] bool multi_process() const override { return true; }
  [[nodiscard]] int local_place() const override { return local_; }
  void start(FrameSink sink) override;
  void stop() override;
  void send_frame(int dst, std::vector<std::uint8_t> frame) override;
  void flush() override;
  [[nodiscard]] BackendStats stats() const override;
  [[nodiscard]] std::vector<BackendPeerDiag> diag() const override;

 private:
  struct Peer {
    int fd = -1;
    std::mutex tx_mu;
    std::deque<std::vector<std::uint8_t>> tx_pending;  // guarded by tx_mu
    std::size_t tx_offset = 0;  // bytes of tx_pending.front() already sent
    std::atomic<std::size_t> tx_pending_bytes{0};
    std::vector<std::uint8_t> rx;  // I/O thread only
    std::atomic<std::size_t> rx_buffered{0};  // mirror of rx.size() for diag
    bool open = true;  // I/O thread only: false after EOF/reset
    std::atomic<std::uint64_t> frames_sent{0};
    std::atomic<std::uint64_t> frames_received{0};  // after the sink returns
  };

  void io_loop();
  void drain_tx(Peer& p);            // tx_mu held
  void read_ready(int peer, Peer& p);  // I/O thread only
  void wake();

  int local_;
  std::vector<std::unique_ptr<Peer>> peers_;
  FrameSink sink_;
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::atomic<bool> stop_{false};
  std::thread io_;
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_recv_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_recv_{0};
};

}  // namespace x10rt

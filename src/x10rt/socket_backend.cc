#include "x10rt/socket_backend.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "x10rt/frame.h"

namespace x10rt {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    std::perror("[x10rt] fcntl(O_NONBLOCK)");
    std::abort();
  }
}

/// EPIPE/ECONNRESET mid-run means a peer process died; its supervisor will
/// notice and kill us, so the sender just drops bytes instead of racing the
/// SIGKILL with its own abort.
bool peer_gone(int err) { return err == EPIPE || err == ECONNRESET; }

}  // namespace

SocketBackend::SocketBackend(int local_place, std::vector<int> peer_fds)
    : local_(local_place) {
  peers_.reserve(peer_fds.size());
  for (std::size_t i = 0; i < peer_fds.size(); ++i) {
    auto p = std::make_unique<Peer>();
    p->fd = peer_fds[i];
    if (p->fd >= 0) set_nonblocking(p->fd);
    peers_.push_back(std::move(p));
  }
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    std::perror("[x10rt] pipe");
    std::abort();
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  set_nonblocking(wake_r_);
  set_nonblocking(wake_w_);
}

SocketBackend::~SocketBackend() {
  stop();
  for (auto& p : peers_) {
    if (p->fd >= 0) ::close(p->fd);
  }
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

void SocketBackend::start(FrameSink sink) {
  sink_ = std::move(sink);
  stop_.store(false, std::memory_order_release);
  io_ = std::thread([this] { io_loop(); });
}

void SocketBackend::stop() {
  if (!io_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  wake();
  io_.join();
}

void SocketBackend::wake() {
  const std::uint8_t b = 1;
  // A full pipe already guarantees a pending wakeup; any other error only
  // matters during teardown, where the poll timeout bounds the delay.
  (void)!::write(wake_w_, &b, 1);
}

void SocketBackend::send_frame(int dst, std::vector<std::uint8_t> frame) {
  if (dst < 0 || dst >= static_cast<int>(peers_.size()) ||
      peers_[dst]->fd < 0) {
    std::fprintf(stderr, "[x10rt] fatal: no socket to place %d\n", dst);
    std::abort();
  }
  Peer& p = *peers_[dst];
  const std::size_t n = frame.size();
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  p.frames_sent.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(n, std::memory_order_relaxed);
  std::scoped_lock lk(p.tx_mu);
  if (p.tx_pending.empty()) {
    // Fast path: the socket buffer usually has room for the whole frame.
    const ssize_t w =
        ::send(p.fd, frame.data(), n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w == static_cast<ssize_t>(n)) return;
    if (w < 0 && peer_gone(errno)) return;
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      std::perror("[x10rt] send");
      std::abort();
    }
    p.tx_offset = w > 0 ? static_cast<std::size_t>(w) : 0;
    p.tx_pending_bytes.store(n - p.tx_offset, std::memory_order_relaxed);
    p.tx_pending.push_back(std::move(frame));
  } else {
    p.tx_pending_bytes.fetch_add(n, std::memory_order_relaxed);
    p.tx_pending.push_back(std::move(frame));
  }
  // Re-arm POLLOUT. Always, not just on the first queued frame: the I/O
  // thread may be rebuilding its pollfd set concurrently and a skipped wake
  // would strand the backlog until the 50ms poll timeout.
  wake();
}

void SocketBackend::flush() {
  for (auto& p : peers_) {
    if (p->fd < 0) continue;
    std::scoped_lock lk(p->tx_mu);
    drain_tx(*p);
  }
}

void SocketBackend::drain_tx(Peer& p) {
  while (!p.tx_pending.empty()) {
    auto& front = p.tx_pending.front();
    const std::size_t rem = front.size() - p.tx_offset;
    const ssize_t w = ::send(p.fd, front.data() + p.tx_offset, rem,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (peer_gone(errno)) {
        p.tx_pending.clear();
        p.tx_offset = 0;
        p.tx_pending_bytes.store(0, std::memory_order_relaxed);
        return;
      }
      std::perror("[x10rt] send");
      std::abort();
    }
    p.tx_offset += static_cast<std::size_t>(w);
    p.tx_pending_bytes.fetch_sub(static_cast<std::size_t>(w),
                                 std::memory_order_relaxed);
    if (p.tx_offset == front.size()) {
      p.tx_pending.pop_front();
      p.tx_offset = 0;
    }
  }
}

void SocketBackend::read_ready(int peer, Peer& p) {
  for (;;) {
    std::uint8_t tmp[65536];
    const ssize_t r = ::recv(p.fd, tmp, sizeof tmp, 0);
    if (r > 0) {
      bytes_recv_.fetch_add(static_cast<std::uint64_t>(r),
                            std::memory_order_relaxed);
      p.rx.insert(p.rx.end(), tmp, tmp + r);
      if (r == static_cast<ssize_t>(sizeof tmp)) continue;
      break;
    }
    if (r == 0 || (r < 0 && errno == ECONNRESET)) {
      // Peer closed. Either clean teardown or a crash; the launcher's ctrl
      // channel distinguishes the two. Stop watching this fd.
      p.open = false;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    std::perror("[x10rt] recv");
    std::abort();
  }
  // Deliver every complete frame in the reassembly buffer.
  std::size_t pos = 0;
  while (p.rx.size() - pos >= frame::kLengthPrefixBytes) {
    std::uint32_t len;
    std::memcpy(&len, p.rx.data() + pos, sizeof len);
    if (len < frame::kHeaderBytes || len > frame::kMaxFrameBytes) {
      std::fprintf(stderr,
                   "[x10rt] fatal: malformed frame from place %d: length "
                   "prefix %u outside [%zu, %zu]\n",
                   peer, len, frame::kHeaderBytes, frame::kMaxFrameBytes);
      std::abort();
    }
    if (p.rx.size() - pos - frame::kLengthPrefixBytes < len) break;
    sink_(peer, p.rx.data() + pos + frame::kLengthPrefixBytes, len);
    // Counted only once the frame sits in the inbox: a place that reads its
    // counts and then finds its inbox empty has run every counted frame.
    frames_recv_.fetch_add(1, std::memory_order_relaxed);
    p.frames_received.fetch_add(1, std::memory_order_release);
    pos += frame::kLengthPrefixBytes + len;
  }
  p.rx.erase(p.rx.begin(), p.rx.begin() + static_cast<std::ptrdiff_t>(pos));
  p.rx_buffered.store(p.rx.size(), std::memory_order_relaxed);
}

void SocketBackend::io_loop() {
  std::vector<pollfd> pfds;
  std::vector<int> idx;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    idx.clear();
    pfds.push_back({wake_r_, POLLIN, 0});
    idx.push_back(-1);
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      Peer& p = *peers_[i];
      if (p.fd < 0 || !p.open) continue;
      short ev = POLLIN;
      if (p.tx_pending_bytes.load(std::memory_order_relaxed) > 0) {
        ev |= POLLOUT;
      }
      pfds.push_back({p.fd, ev, 0});
      idx.push_back(static_cast<int>(i));
    }
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    if (rc < 0) {
      if (errno == EINTR) continue;
      std::perror("[x10rt] poll");
      std::abort();
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      if (idx[k] < 0) {
        std::uint8_t buf[256];
        while (::read(wake_r_, buf, sizeof buf) > 0) {
        }
        continue;
      }
      Peer& p = *peers_[static_cast<std::size_t>(idx[k])];
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_ready(idx[k], p);
      }
      if ((pfds[k].revents & POLLOUT) != 0) {
        std::scoped_lock lk(p.tx_mu);
        drain_tx(p);
      }
    }
  }
}

BackendStats SocketBackend::stats() const {
  BackendStats s;
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.frames_received = frames_recv_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_recv_.load(std::memory_order_relaxed);
  return s;
}

std::vector<BackendPeerDiag> SocketBackend::diag() const {
  std::vector<BackendPeerDiag> out;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const Peer& p = *peers_[i];
    if (p.fd < 0) continue;
    BackendPeerDiag d;
    d.peer = static_cast<int>(i);
    d.tx_pending_bytes = p.tx_pending_bytes.load(std::memory_order_relaxed);
    d.rx_buffered_bytes = p.rx_buffered.load(std::memory_order_relaxed);
    d.frames_sent = p.frames_sent.load(std::memory_order_relaxed);
    d.frames_received = p.frames_received.load(std::memory_order_acquire);
    out.push_back(d);
  }
  return out;
}

}  // namespace x10rt

// Fork/supervise engine for the socket backend (see launcher.h).
#include "runtime/launcher.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/runtime.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"

#if defined(__SANITIZE_THREAD__)
#define APGAS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define APGAS_TSAN 1
#endif
#endif

#ifdef APGAS_TSAN
// TSan aborts the child of a multi-threaded fork by default. run_places
// forks while still single-threaded (before any Runtime exists), which is
// the one pattern that is sound — tell TSan to allow it.
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
#endif

namespace apgas::launcher {

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "[apgas_launch] fatal: %s: %s\n", what,
               std::strerror(errno));
  std::exit(1);
}

/// Blocking full send over a socketpair; SIGPIPE suppressed.
bool send_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Blocking full receive; returns false on EOF or error.
bool recv_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Describes how a reaped child ended ("exit status 1", "signal 9 (Killed)").
std::string describe_status(int status) {
  char buf[64];
  if (WIFSIGNALED(status)) {
    std::snprintf(buf, sizeof(buf), "killed by signal %d", WTERMSIG(status));
  } else if (WIFEXITED(status)) {
    std::snprintf(buf, sizeof(buf), "exit status %d", WEXITSTATUS(status));
  } else {
    std::snprintf(buf, sizeof(buf), "status 0x%x", status);
  }
  return buf;
}

/// Failure path: report the first failed place, SIGKILL the survivors, reap
/// everything, exit nonzero. A crashed place never hangs the job.
[[noreturn]] void fail_and_reap(int place, const std::string& why,
                                std::vector<pid_t>& pids) {
  std::fprintf(stderr, "[apgas_launch] place %d failed (%s); terminating %zu "
               "remaining place process(es)\n",
               place, why.c_str(), pids.size() - 1);
  for (std::size_t q = 0; q < pids.size(); ++q) {
    if (pids[q] > 0 && static_cast<int>(q) != place) {
      ::kill(pids[q], SIGKILL);
    }
  }
  for (std::size_t q = 0; q < pids.size(); ++q) {
    if (pids[q] > 0) {
      int st = 0;
      (void)::waitpid(pids[q], &st, 0);
    }
  }
  std::exit(1);
}

/// Percentile/max exports aggregate by max; counts and counters sum.
bool aggregate_by_max(std::string_view key) {
  return key.ends_with(".p50") || key.ends_with(".p90") ||
         key.ends_with(".p99") || key.ends_with(".max");
}

/// A ctrl-socket operation on place `p` failed: the child is dead. Reap it
/// for its status and fail the job.
[[noreturn]] void fail_dead_child(int p, std::vector<pid_t>& pids) {
  int st = 0;
  (void)::waitpid(pids[static_cast<std::size_t>(p)], &st, 0);
  fail_and_reap(p, describe_status(st), pids);
}

/// One upstream child → supervisor message: [tag u8][len u32][payload].
struct Frame {
  char tag = 0;
  std::string payload;
};

bool recv_frame(int fd, Frame& f) {
  if (!recv_all(fd, &f.tag, 1)) return false;
  std::uint32_t len = 0;
  if (!recv_all(fd, &len, sizeof(len))) return false;
  f.payload.assign(len, '\0');
  return len == 0 || recv_all(fd, f.payload.data(), f.payload.size());
}

}  // namespace

std::string per_place_path(const std::string& path, int place) {
  if (path.empty()) return path;
  const std::string tag = ".p" + std::to_string(place);
  const std::size_t dot = path.find_last_of('.');
  const std::size_t slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

std::string encode_frame_counts(
    int places, const std::vector<x10rt::BackendPeerDiag>& diag) {
  std::vector<std::uint64_t> words(2 * static_cast<std::size_t>(places), 0);
  for (const auto& d : diag) {
    if (d.peer < 0 || d.peer >= places) continue;
    words[2 * static_cast<std::size_t>(d.peer)] = d.frames_sent;
    words[2 * static_cast<std::size_t>(d.peer) + 1] = d.frames_received;
  }
  return std::string(reinterpret_cast<const char*>(words.data()),
                     words.size() * sizeof(std::uint64_t));
}

bool frame_counts_balanced(const std::vector<std::string>& reports) {
  const std::size_t places = reports.size();
  const std::size_t bytes = 2 * places * sizeof(std::uint64_t);
  for (const auto& r : reports) {
    if (r.size() != bytes) return false;  // not reported yet
  }
  auto word = [&reports](std::size_t p, std::size_t i) {
    std::uint64_t v = 0;
    std::memcpy(&v, reports[p].data() + i * sizeof(v), sizeof(v));
    return v;
  };
  for (std::size_t p = 0; p < places; ++p) {
    for (std::size_t q = 0; q < places; ++q) {
      // sent[p -> q] against received[q <- p].
      if (word(p, 2 * q) != word(q, 2 * p + 1)) return false;
    }
  }
  return true;
}

void CtrlChannel::send_frame(char tag, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto len = static_cast<std::uint32_t>(payload.size());
  if (!send_all(fd_, &tag, 1)) ::_exit(1);  // supervisor is gone
  if (!send_all(fd_, &len, sizeof(len))) ::_exit(1);
  if (len > 0 && !send_all(fd_, payload.data(), payload.size())) ::_exit(1);
}

bool child_poll_go(int ctrl_fd) {
  struct pollfd pfd{};
  pfd.fd = ctrl_fd;
  pfd.events = POLLIN;
  const int rc = ::poll(&pfd, 1, 1);
  if (rc <= 0) return false;  // timeout (or EINTR): keep pumping
  if ((pfd.revents & POLLIN) != 0) {
    char c = 0;
    const ssize_t r = ::recv(ctrl_fd, &c, 1, 0);
    if (r == 1 && c == 'G') return true;
    if (r <= 0) ::_exit(1);  // supervisor died mid-barrier
    return false;
  }
  if ((pfd.revents & (POLLHUP | POLLERR)) != 0) ::_exit(1);
  return false;
}

void run_places(const Config& cfg, std::function<void()> main) {
  const int P = cfg.places;

  // Full socketpair mesh: mesh[i][j] is place i's end of the i<->j link.
  std::vector<std::vector<int>> mesh(
      static_cast<std::size_t>(P), std::vector<int>(static_cast<std::size_t>(P), -1));
  for (int i = 0; i < P; ++i) {
    for (int j = i + 1; j < P; ++j) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        die("socketpair(mesh)");
      }
      mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = sv[0];
      mesh[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = sv[1];
    }
  }
  // One control socketpair per child for the teardown barrier, metrics
  // blob, and death detection (EOF).
  std::vector<int> ctrl_parent(static_cast<std::size_t>(P), -1);
  std::vector<int> ctrl_child(static_cast<std::size_t>(P), -1);
  for (int p = 0; p < P; ++p) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      die("socketpair(ctrl)");
    }
    ctrl_parent[static_cast<std::size_t>(p)] = sv[0];
    ctrl_child[static_cast<std::size_t>(p)] = sv[1];
  }

  std::vector<pid_t> pids(static_cast<std::size_t>(P), -1);
  for (int p = 0; p < P; ++p) {
    const pid_t pid = ::fork();
    if (pid < 0) die("fork");
    if (pid == 0) {
      // Child: keep only this place's mesh ends and control socket.
      for (int i = 0; i < P; ++i) {
        for (int j = 0; j < P; ++j) {
          if (i != p && mesh[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(j)] >= 0) {
            ::close(mesh[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(j)]);
          }
        }
      }
      for (int q = 0; q < P; ++q) {
        ::close(ctrl_parent[static_cast<std::size_t>(q)]);
        if (q != p) ::close(ctrl_child[static_cast<std::size_t>(q)]);
      }
      SocketWiring wiring;
      wiring.place = p;
      wiring.peer_fds = mesh[static_cast<std::size_t>(p)];
      wiring.ctrl_fd = ctrl_child[static_cast<std::size_t>(p)];
      int rc = 1;
      try {
        rc = Runtime::run_child(cfg, std::move(main), wiring);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[apgas_launch] place %d: uncaught %s\n", p,
                     e.what());
      }
      ::_exit(rc);
    }
    pids[static_cast<std::size_t>(p)] = pid;
  }

  // Parent: close every child-side fd — after this the only descriptors it
  // holds are the parent ends of the control sockets, so a child's death is
  // visible as EOF there.
  for (int i = 0; i < P; ++i) {
    for (int j = 0; j < P; ++j) {
      if (mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] >= 0) {
        ::close(mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      }
    }
  }
  for (int p = 0; p < P; ++p) ::close(ctrl_child[static_cast<std::size_t>(p)]);

  // Live telemetry sink: one JSONL for the whole job, flushed per line so
  // apgas_top can tail it while the job runs.
  std::unique_ptr<telemetry::JsonlWriter> tlog;
  if (cfg.telemetry_interval_ms > 0) {
    tlog = std::make_unique<telemetry::JsonlWriter>(
        cfg.telemetry_path.empty() ? std::string("apgas_telemetry.jsonl")
                                   : cfg.telemetry_path);
  }

  // Crash-fault injection (test hook): SIGKILL one place after a delay. 'G'
  // is withheld until the kill has fired, so the victim is guaranteed to
  // still exist when it lands.
  int kill_place = -1;
  std::uint64_t kill_after_ms = 0;
  if (const char* v = std::getenv("APGAS_LAUNCH_KILL_PLACE");
      v != nullptr && *v != '\0') {
    kill_place = std::atoi(v);
    if (kill_place < 0 || kill_place >= P) kill_place = -1;
  }
  if (const char* v = std::getenv("APGAS_LAUNCH_KILL_AFTER_MS");
      v != nullptr && *v != '\0') {
    kill_after_ms = static_cast<std::uint64_t>(std::atoll(v));
  }
  const std::uint64_t t_start_ms = now_ms();
  bool kill_fired = false;

  // Teardown barrier (docs/transport.md "Teardown: channel counting"): keep
  // each child's latest 'Q' frame counts until every channel balances. EOF
  // before that means the place died — fail fast instead of hanging.
  const std::size_t report_bytes =
      2 * static_cast<std::size_t>(P) * sizeof(std::uint64_t);
  std::vector<std::string> reports(static_cast<std::size_t>(P));
  while (!frame_counts_balanced(reports) || (kill_place >= 0 && !kill_fired)) {
    if (kill_place >= 0 && !kill_fired &&
        now_ms() - t_start_ms >= kill_after_ms) {
      ::kill(pids[static_cast<std::size_t>(kill_place)], SIGKILL);
      kill_fired = true;
    }
    std::vector<struct pollfd> pfds;
    pfds.reserve(static_cast<std::size_t>(P));
    std::vector<int> owner;
    for (int p = 0; p < P; ++p) {
      struct pollfd pfd{};
      pfd.fd = ctrl_parent[static_cast<std::size_t>(p)];
      pfd.events = POLLIN;
      pfds.push_back(pfd);
      owner.push_back(p);
    }
    int timeout_ms = 100;
    if (kill_place >= 0 && !kill_fired) {
      const std::uint64_t elapsed = now_ms() - t_start_ms;
      const std::uint64_t left =
          kill_after_ms > elapsed ? kill_after_ms - elapsed : 0;
      if (left < static_cast<std::uint64_t>(timeout_ms)) {
        timeout_ms = static_cast<int>(left) + 1;
      }
    }
    const int rc =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      die("poll(ctrl)");
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int p = owner[k];
      Frame f;
      if (!recv_frame(pfds[k].fd, f)) {
        // EOF inside the barrier: the place process is gone.
        int st = 0;
        (void)::waitpid(pids[static_cast<std::size_t>(p)], &st, 0);
        pids[static_cast<std::size_t>(p)] = -pids[static_cast<std::size_t>(p)];
        fail_and_reap(p, describe_status(st), pids);
      }
      switch (f.tag) {
        case 'Q':
          if (f.payload.size() != report_bytes) {
            ::kill(pids[static_cast<std::size_t>(p)], SIGKILL);
            fail_dead_child(p, pids);
          }
          reports[static_cast<std::size_t>(p)] = std::move(f.payload);
          break;
        case 'T':
          if (tlog) tlog->append(f.payload);
          break;
        case 'W':
          // One consolidated, place-labelled report on the supervisor's
          // stderr instead of output scattered across child stderr streams;
          // the same report also lands in the telemetry JSONL.
          std::fprintf(stderr,
                       "[apgas_launch] watchdog report from place %d:\n%s", p,
                       f.payload.c_str());
          std::fflush(stderr);
          if (tlog) {
            tlog->append(telemetry::wrap_watchdog(
                p, now_ms(), f.payload));
          }
          break;
        default:
          ::kill(pids[static_cast<std::size_t>(p)], SIGKILL);
          fail_dead_child(p, pids);
      }
    }
  }

  // Every channel balances (and any kill has landed — in which case the
  // victim's EOF above already failed the job): release the barrier.
  for (int p = 0; p < P; ++p) {
    const char g = 'G';
    if (!send_all(ctrl_parent[static_cast<std::size_t>(p)], &g, 1)) {
      int st = 0;
      (void)::waitpid(pids[static_cast<std::size_t>(p)], &st, 0);
      fail_and_reap(p, describe_status(st), pids);
    }
  }

  // Metrics + trace collection: each child sends its 'M' metrics blob (flat
  // "key=value" lines; counters sum, percentile/max exports take the max
  // across places) followed by its 'R' trace blob (empty when not tracing).
  std::map<std::string, std::uint64_t> agg;
  std::vector<trace::ProcEvents> procs;
  for (int p = 0; p < P; ++p) {
    const int fd = ctrl_parent[static_cast<std::size_t>(p)];
    Frame mf;
    Frame rf;
    if (!recv_frame(fd, mf) || mf.tag != 'M' || !recv_frame(fd, rf) ||
        rf.tag != 'R') {
      fail_dead_child(p, pids);
    }
    const std::string& blob = mf.payload;
    std::size_t pos = 0;
    while (pos < blob.size()) {
      std::size_t eol = blob.find('\n', pos);
      if (eol == std::string::npos) eol = blob.size();
      const std::string_view line(blob.data() + pos, eol - pos);
      pos = eol + 1;
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) continue;
      const std::string key(line.substr(0, eq));
      const std::uint64_t val = std::strtoull(line.data() + eq + 1, nullptr, 10);
      auto [it, inserted] = agg.try_emplace(key, val);
      if (!inserted) {
        it->second = aggregate_by_max(key) ? std::max(it->second, val)
                                           : it->second + val;
      }
    }
    if (!cfg.trace_path.empty() && !rf.payload.empty()) {
      trace::ProcEvents pe;
      pe.place = p;
      if (trace::decode_events(rf.payload, pe.epoch_ns, pe.events)) {
        procs.push_back(std::move(pe));
      } else {
        std::fprintf(stderr,
                     "[apgas_launch] place %d sent a malformed trace blob; "
                     "dropping its events from the merged trace\n",
                     p);
      }
    }
  }

  // Reap: any nonzero exit after a clean barrier still fails the job.
  for (int p = 0; p < P; ++p) {
    int st = 0;
    if (::waitpid(pids[static_cast<std::size_t>(p)], &st, 0) < 0) die("waitpid");
    pids[static_cast<std::size_t>(p)] = -1;
    if (st != 0) {
      std::fprintf(stderr, "[apgas_launch] place %d failed (%s)\n", p,
                   describe_status(st).c_str());
      std::exit(1);
    }
  }
  for (int p = 0; p < P; ++p) ::close(ctrl_parent[static_cast<std::size_t>(p)]);

  // Publish the aggregate exactly like an in-process run would.
  if (!cfg.metrics_path.empty()) write_metrics(cfg.metrics_path, agg);

  // Merged trace: ONE Perfetto JSON over every place process, per-place
  // process rows, cross-process flow arrows restored. Children additionally
  // wrote their own per-place files (".pN" inserted), but this is the file
  // that shows the whole job on one timeline.
  if (!cfg.trace_path.empty()) {
    const std::string json = trace::chrome_json_merged(procs);
    std::FILE* f = std::fopen(cfg.trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[apgas_launch] cannot write %s: %s\n",
                   cfg.trace_path.c_str(), std::strerror(errno));
    } else {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  detail::store_last_metrics(std::move(agg));
}

}  // namespace apgas::launcher

// Scheduler + transport fast-path microbenchmarks (ISSUE 2 baseline +
// acceptance measurements). Three probes, each isolating one hot path the
// work-stealing overhaul targets:
//   (a) spawn  — spawn-to-completion throughput of empty tasks under one
//                finish at 1/2/4 workers per place (push/pop/notify cost);
//   (b) steal  — the same task count produced by a single worker so sibling
//                workers must steal everything they run (steal throughput
//                under imbalanced spawn);
//   (c) pump   — back-to-back send_am pairs through the raw transport
//                (per-message lock cost of the poll path), plus the batched
//                drain variant when the transport provides poll_batch.
// Writes machine-readable JSON (BENCH_scheduler.json, override with
// APGAS_BENCH_OUT) so before/after runs can be committed side by side.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/api.h"
#include "x10rt/transport.h"

using namespace apgas;

namespace {

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpawnResult {
  int workers = 0;
  int tasks = 0;
  double secs = 0;
  double tasks_per_sec = 0;
  std::uint64_t steals = 0;
  std::uint64_t overflow = 0;
};

/// (a) Flat spawn burst: the finish body spawns `tasks` empty activities.
/// Every worker both produces (its stolen tasks spawn nothing) and consumes.
SpawnResult run_spawn(int workers, int tasks, int reps) {
  SpawnResult r;
  r.workers = workers;
  r.tasks = tasks;
  r.secs = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Config cfg;
    cfg.places = 1;
    cfg.workers_per_place = workers;
    std::atomic<long> ran{0};
    double secs = 0;
    Runtime::run(cfg, [&] {
      const double t0 = now_secs();
      finish([&] {
        for (int i = 0; i < tasks; ++i) {
          async([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
      });
      secs = now_secs() - t0;
    });
    if (ran.load() != tasks) {
      std::fprintf(stderr, "spawn bench lost tasks: %ld != %d\n", ran.load(),
                   tasks);
      std::exit(1);
    }
    r.secs = std::min(r.secs, secs);
    const auto& m = last_run_metrics();
    auto it = m.find("sched.p0.steals");
    if (it != m.end()) r.steals = it->second;
    it = m.find("sched.p0.overflow");
    if (it != m.end()) r.overflow = it->second;
  }
  r.tasks_per_sec = r.tasks / r.secs;
  return r;
}

/// (b) Imbalanced spawn: one producer activity owns all spawns; with W > 1
/// the siblings only make progress by stealing. Tasks carry a little work so
/// the producer cannot drain its own deque faster than thieves can steal.
SpawnResult run_steal(int workers, int tasks, int reps) {
  SpawnResult r;
  r.workers = workers;
  r.tasks = tasks;
  r.secs = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Config cfg;
    cfg.places = 1;
    cfg.workers_per_place = workers;
    std::atomic<long> ran{0};
    double secs = 0;
    Runtime::run(cfg, [&] {
      const double t0 = now_secs();
      finish([&] {
        async([&ran, tasks = r.tasks] {
          for (int i = 0; i < tasks; ++i) {
            async([&ran] {
              // ~100ns of private work per task.
              volatile int sink = 0;
              for (int k = 0; k < 32; ++k) sink = sink + k;
              ran.fetch_add(1, std::memory_order_relaxed);
            });
          }
        });
      });
      secs = now_secs() - t0;
    });
    if (ran.load() != tasks) {
      std::fprintf(stderr, "steal bench lost tasks: %ld != %d\n", ran.load(),
                   tasks);
      std::exit(1);
    }
    r.secs = std::min(r.secs, secs);
    const auto& m = last_run_metrics();
    auto it = m.find("sched.p0.steals");
    if (it != m.end()) r.steals = std::max(r.steals, it->second);
    it = m.find("sched.p0.overflow");
    if (it != m.end()) r.overflow = std::max(r.overflow, it->second);
  }
  r.tasks_per_sec = r.tasks / r.secs;
  return r;
}

struct PumpResult {
  std::string mode;
  int pairs = 0;
  double secs = 0;
  double msgs_per_sec = 0;
};

/// (c) Message pump: place 0 sends an AM to place 1 whose handler replies to
/// place 0; the caller drains both inboxes. Each pair costs two send_am and
/// two poll operations — exactly the per-message transport overhead the
/// batched drain amortizes.
PumpResult run_pump(int pairs, int reps) {
  PumpResult r;
  r.mode = "poll";
  r.pairs = pairs;
  r.secs = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    x10rt::TransportConfig tc;
    tc.places = 2;
    tc.dma_threads = 0;
    x10rt::Transport tr(tc);
    long received = 0;
    const int echo = tr.register_am([&tr](x10rt::ByteBuffer&) {
      tr.send_am(1, 0, /*handler=*/1, x10rt::ByteBuffer{});
    });
    const int sink = tr.register_am([&received](x10rt::ByteBuffer&) {
      ++received;
    });
    (void)echo;
    (void)sink;
    const double t0 = now_secs();
    for (int i = 0; i < pairs; ++i) {
      tr.send_am(0, 1, 0, x10rt::ByteBuffer{});
      while (auto m = tr.poll(1)) tr.dispatch(1, *m);
      while (auto m = tr.poll(0)) tr.dispatch(0, *m);
    }
    const double secs = now_secs() - t0;
    if (received != pairs) {
      std::fprintf(stderr, "pump bench lost messages: %ld != %d\n", received,
                   pairs);
      std::exit(1);
    }
    r.secs = std::min(r.secs, secs);
  }
  r.msgs_per_sec = 2.0 * r.pairs / r.secs;
  return r;
}

/// Batched variant of (c): one-way flood of `n` AMs drained with
/// poll_batch, measuring the amortized per-message cost.
PumpResult run_pump_batch(int n, int reps) {
  PumpResult r;
  r.mode = "poll_batch";
  r.pairs = n;
  r.secs = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    x10rt::TransportConfig tc;
    tc.places = 2;
    tc.dma_threads = 0;
    x10rt::Transport tr(tc);
    long received = 0;
    tr.register_am([&received](x10rt::ByteBuffer&) { ++received; });
    const double t0 = now_secs();
    std::deque<x10rt::Message> batch;
    for (int i = 0; i < n; ++i) {
      tr.send_am(0, 1, 0, x10rt::ByteBuffer{});
      if ((i & 31) == 31) {
        tr.poll_batch(1, batch, 32);
        while (!batch.empty()) {
          tr.dispatch(1, batch.front());
          batch.pop_front();
        }
      }
    }
    for (;;) {
      if (tr.poll_batch(1, batch, 32) == 0) break;
      while (!batch.empty()) {
        tr.dispatch(1, batch.front());
        batch.pop_front();
      }
    }
    const double secs = now_secs() - t0;
    if (received != n) {
      std::fprintf(stderr, "pump_batch lost messages: %ld != %d\n", received,
                   n);
      std::exit(1);
    }
    r.secs = std::min(r.secs, secs);
  }
  r.msgs_per_sec = static_cast<double>(r.pairs) / r.secs;
  return r;
}

/// One-way flood drained one poll() per message — the direct comparand for
/// run_pump_batch (same message count, unbatched).
PumpResult run_pump_flood(int n, int reps) {
  PumpResult r;
  r.mode = "poll_flood";
  r.pairs = n;
  r.secs = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    x10rt::TransportConfig tc;
    tc.places = 2;
    tc.dma_threads = 0;
    x10rt::Transport tr(tc);
    long received = 0;
    tr.register_am([&received](x10rt::ByteBuffer&) { ++received; });
    const double t0 = now_secs();
    for (int i = 0; i < n; ++i) {
      tr.send_am(0, 1, 0, x10rt::ByteBuffer{});
      if ((i & 31) == 31) {
        while (auto m = tr.poll(1)) tr.dispatch(1, *m);
      }
    }
    while (auto m = tr.poll(1)) tr.dispatch(1, *m);
    const double secs = now_secs() - t0;
    if (received != n) {
      std::fprintf(stderr, "pump_flood lost messages: %ld != %d\n", received,
                   n);
      std::exit(1);
    }
    r.secs = std::min(r.secs, secs);
  }
  r.msgs_per_sec = static_cast<double>(r.pairs) / r.secs;
  return r;
}

}  // namespace

int main() {
  const int kTasks = 100000;
  const int kPairs = 100000;
  const int kReps = 3;

  bench::header("scheduler — spawn-to-completion throughput (empty tasks)");
  bench::row("%8s %10s %10s %14s %10s %10s", "workers", "tasks", "secs",
             "tasks/s", "steals", "overflow");
  std::vector<SpawnResult> spawn;
  for (int w : {1, 2, 4}) {
    spawn.push_back(run_spawn(w, kTasks, kReps));
    const auto& r = spawn.back();
    bench::row("%8d %10d %10.4f %14.0f %10llu %10llu", r.workers, r.tasks,
               r.secs, r.tasks_per_sec,
               static_cast<unsigned long long>(r.steals),
               static_cast<unsigned long long>(r.overflow));
  }

  bench::header("scheduler — steal throughput (single-producer spawn)");
  bench::row("%8s %10s %10s %14s %10s %10s", "workers", "tasks", "secs",
             "tasks/s", "steals", "overflow");
  std::vector<SpawnResult> steal;
  for (int w : {1, 2, 4}) {
    steal.push_back(run_steal(w, kTasks, kReps));
    const auto& r = steal.back();
    bench::row("%8d %10d %10.4f %14.0f %10llu %10llu", r.workers, r.tasks,
               r.secs, r.tasks_per_sec,
               static_cast<unsigned long long>(r.steals),
               static_cast<unsigned long long>(r.overflow));
  }

  bench::header("transport — message pump (send_am pairs)");
  bench::row("%12s %10s %10s %14s", "mode", "msgs", "secs", "msgs/s");
  std::vector<PumpResult> pump;
  pump.push_back(run_pump(kPairs, kReps));
  pump.push_back(run_pump_flood(2 * kPairs, kReps));
  pump.push_back(run_pump_batch(2 * kPairs, kReps));
  for (const auto& r : pump) {
    bench::row("%12s %10d %10.4f %14.0f", r.mode.c_str(), 2 * r.pairs, r.secs,
               r.msgs_per_sec);
  }

  const char* out = std::getenv("APGAS_BENCH_OUT");
  const std::string path = out != nullptr ? out : "BENCH_scheduler.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"scheduler\",\n  \"spawn\": [\n");
  for (std::size_t i = 0; i < spawn.size(); ++i) {
    const auto& r = spawn[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"tasks\": %d, \"secs\": %.6f, "
                 "\"tasks_per_sec\": %.0f, \"steals\": %llu, "
                 "\"overflow\": %llu}%s\n",
                 r.workers, r.tasks, r.secs, r.tasks_per_sec,
                 static_cast<unsigned long long>(r.steals),
                 static_cast<unsigned long long>(r.overflow),
                 i + 1 < spawn.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"steal\": [\n");
  for (std::size_t i = 0; i < steal.size(); ++i) {
    const auto& r = steal[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"tasks\": %d, \"secs\": %.6f, "
                 "\"tasks_per_sec\": %.0f, \"steals\": %llu, "
                 "\"overflow\": %llu}%s\n",
                 r.workers, r.tasks, r.secs, r.tasks_per_sec,
                 static_cast<unsigned long long>(r.steals),
                 static_cast<unsigned long long>(r.overflow),
                 i + 1 < steal.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"pump\": [\n");
  for (std::size_t i = 0; i < pump.size(); ++i) {
    const auto& r = pump[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"msgs\": %d, \"secs\": %.6f, "
                 "\"msgs_per_sec\": %.0f}%s\n",
                 r.mode.c_str(), 2 * r.pairs, r.secs, r.msgs_per_sec,
                 i + 1 < pump.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());
  return 0;
}

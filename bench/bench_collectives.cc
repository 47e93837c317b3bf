// §3.3 (high-performance interconnects): emulated (point-to-point) versus
// native (shared-memory "hardware") Team collectives, and RDMA versus FIFO
// asyncCopy.
// The paper: hardware collectives "offer performance that cannot be matched
// by point-to-point messages"; RDMA transfers bypass the destination CPU.
//
// Two collective probes:
//   (a) small ops     — barrier / 64-double allreduce / 16-double alltoall
//                       latency across a place sweep, both Team modes; the
//                       message column is exact past the core count.
//   (b) payload sweep — 4KB..4MB bcast and allreduce at one place per
//                       hardware thread; the native win comes from copying
//                       straight out of the root's buffer instead of
//                       shipping one mail payload per member.
// Every latency cell is the median over kBlocks timed blocks of ops on rank
// 0's clock, printed with the blocks' interquartile range: a single sample
// swings by 10x or more when a waiter happens to park, and a median over
// many blocks does not.
// After every timed loop each rank runs one untimed round of every
// collective (barrier, allreduce, reduce to the last rank, alltoall, bcast,
// scatter, gather, allgather) on fresh small-integer inputs (exact in
// double) and checks it against a sequential reference; the "verified"
// column reports it and any mismatch makes the bench exit 1.
// Honors the bench_common observability env (APGAS_TRACE / APGAS_METRICS /
// APGAS_* knobs).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/api.h"
#include "runtime/dist_rail.h"
#include "runtime/place_group.h"
#include "runtime/team.h"

using namespace apgas;

namespace {

const char* mode_name(TeamMode mode) {
  switch (mode) {
    case TeamMode::kEmulated: return "emulated";
    case TeamMode::kNative: return "native";
  }
  return "?";
}

/// Bench config: observability env + APGAS_* knobs, then the sweep's place
/// count — the sweep owns `places`, the env owns the rest.
apgas::Config bench_cfg(int places) {
  Config cfg;
  bench::observe(cfg);
  cfg.places = places;
  return cfg;
}

/// The value rank `r` contributes at element `i` of a check: a small integer,
/// so every sum below is exact in double and order-independent.
double check_input(int r, std::size_t i) {
  return static_cast<double>(r * 100 + static_cast<int>(i % 97) + 1);
}

/// One untimed round of every collective on fresh inputs, run by every rank
/// of `t`; `arrived` is zero on entry and shared by all ranks. Returns
/// whether this rank saw the right results.
bool verify_round(Team& t, std::atomic<int>& arrived) {
  const int size = t.size();
  const int rank = t.rank();
  bool ok = true;

  // Barrier: nobody leaves before every rank has arrived.
  arrived.fetch_add(1);
  t.barrier();
  ok = ok && arrived.load() == size;

  // Allreduce against a sequential fold over the ranks' inputs.
  constexpr std::size_t kN = 64;
  std::vector<double> v(kN);
  for (std::size_t i = 0; i < kN; ++i) v[i] = check_input(rank, i);
  t.allreduce(v.data(), kN, ReduceOp::kSum);
  for (std::size_t i = 0; i < kN; ++i) {
    double fold = 0;
    for (int r = 0; r < size; ++r) fold += check_input(r, i);
    ok = ok && v[i] == fold;
  }

  // Alltoall: slot j of block s holds what rank s wrote for this rank.
  constexpr std::size_t kBlock = 16;
  const auto block = [](int from, int to, std::size_t j) {
    return check_input(from, static_cast<std::size_t>(to) * kBlock + j);
  };
  std::vector<double> send(static_cast<std::size_t>(size) * kBlock);
  std::vector<double> recv(send.size(), -1.0);
  for (int d = 0; d < size; ++d) {
    for (std::size_t j = 0; j < kBlock; ++j) {
      send[static_cast<std::size_t>(d) * kBlock + j] = block(rank, d, j);
    }
  }
  t.alltoall(send.data(), recv.data(), kBlock);
  for (int s = 0; s < size; ++s) {
    for (std::size_t j = 0; j < kBlock; ++j) {
      ok = ok && recv[static_cast<std::size_t>(s) * kBlock + j] ==
                     block(s, rank, j);
    }
  }

  // Reduce(max) to the last rank; only the root's buffer is defined.
  const int last = size - 1;
  for (std::size_t i = 0; i < kN; ++i) v[i] = check_input(rank, i);
  t.reduce(last, v.data(), kN, ReduceOp::kMax);
  if (rank == last) {
    for (std::size_t i = 0; i < kN; ++i) {
      double fold = check_input(0, i);
      for (int r = 1; r < size; ++r) fold = std::max(fold, check_input(r, i));
      ok = ok && v[i] == fold;
    }
  }

  // Bcast from the last rank.
  std::vector<double> b(kN, -1.0);
  if (rank == last) {
    for (std::size_t i = 0; i < kN; ++i) b[i] = check_input(rank, i);
  }
  t.bcast(last, b.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ok = ok && b[i] == check_input(last, i);
  }

  // Scatter from the last rank: block d of its send buffer goes to rank d.
  std::vector<double> mine(kBlock, -1.0);
  if (rank == last) {
    for (int d = 0; d < size; ++d) {
      for (std::size_t j = 0; j < kBlock; ++j) {
        send[static_cast<std::size_t>(d) * kBlock + j] = block(last, d, j);
      }
    }
  }
  t.scatter(last, send.data(), mine.data(), kBlock);
  for (std::size_t j = 0; j < kBlock; ++j) {
    ok = ok && mine[j] == block(last, rank, j);
  }

  // Gather to rank 0, then allgather: block s holds what rank s contributed.
  for (std::size_t j = 0; j < kBlock; ++j) mine[j] = block(rank, 0, j);
  const auto holds_every_rank = [&] {
    bool all = true;
    for (int s = 0; s < size; ++s) {
      for (std::size_t j = 0; j < kBlock; ++j) {
        all = all && recv[static_cast<std::size_t>(s) * kBlock + j] ==
                         block(s, 0, j);
      }
    }
    return all;
  };
  std::fill(recv.begin(), recv.end(), -1.0);
  t.gather(0, mine.data(), rank == 0 ? recv.data() : nullptr, kBlock);
  if (rank == 0) ok = ok && holds_every_rank();
  std::fill(recv.begin(), recv.end(), -1.0);
  t.allgather(mine.data(), recv.data(), kBlock);
  ok = ok && holds_every_rank();
  return ok;
}

/// Timed blocks per latency cell.
constexpr int kBlocks = 41;

/// Median and interquartile range (q3 - q1) of one cell's blocks, in us/op.
struct Summary {
  double median = 0;
  double iqr = 0;
};

Summary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                      0.5)];
  };
  return {at(0.5), at(0.75) - at(0.25)};
}

/// Runs kBlocks blocks of `rounds` calls of `op` (collectively, on every
/// rank) and returns each block's mean latency in us/op.
template <typename Op>
std::vector<double> time_blocks(int rounds, Op op) {
  std::vector<double> out;
  out.reserve(kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < rounds; ++i) op();
    const auto t1 = std::chrono::steady_clock::now();
    out.push_back(std::chrono::duration<double>(t1 - t0).count() / rounds *
                  1e6);
  }
  return out;
}

/// Rows whose results failed verify_round; nonzero makes main exit 1.
int g_failed_rows = 0;

const char* verdict(bool ok) {
  if (!ok) ++g_failed_rows;
  return ok ? "yes" : "NO";
}

/// Barrier, allreduce and alltoall latency at `places` places in `mode`
/// (`out[0..2]`), and the collective messages their timed loops sent.
bool small_op_bench(int places, TeamMode mode, Summary (&out)[3],
                    std::uint64_t& msgs) {
  Config cfg = bench_cfg(places);
  std::atomic<bool> ok{true};
  Runtime::run(cfg, [&] {
    auto& tr = Runtime::get().transport();
    tr.reset_stats();
    // Oversubscribed rows time-share cores and run far slower per op.
    const int rounds = places <= bench::cores() ? 10 : 2;
    std::vector<double> blocks[3];
    std::mutex mu;
    std::atomic<int> arrived{0};
    PlaceGroup::world().broadcast([&, mode] {
      Team t = Team::world(mode);
      t.barrier();
      auto b = time_blocks(rounds, [&] { t.barrier(); });
      std::vector<double> v(64, 1.0);
      auto ar = time_blocks(
          rounds, [&] { t.allreduce(v.data(), v.size(), ReduceOp::kSum); });
      std::vector<double> send(static_cast<std::size_t>(t.size()) * 16, 1.0);
      std::vector<double> recv(send.size());
      auto aa = time_blocks(
          rounds, [&] { t.alltoall(send.data(), recv.data(), 16); });
      if (here() == 0) {
        std::scoped_lock lock(mu);
        blocks[0] = std::move(b);
        blocks[1] = std::move(ar);
        blocks[2] = std::move(aa);
      }
    });
    for (int k = 0; k < 3; ++k) out[k] = summarize(std::move(blocks[k]));
    msgs = tr.count(x10rt::MsgType::kCollective);
    // Checked in a second SPMD pass so the message column counts only the
    // timed loops and their warm-up.
    PlaceGroup::world().broadcast([&, mode] {
      Team t = Team::world(mode);
      if (!verify_round(t, arrived)) ok.store(false);
    });
  });
  bench::maybe_emit_metrics(std::string("collectives.small.") +
                            mode_name(mode) + ".p" + std::to_string(places));
  return ok.load();
}


/// One (op, mode, payload) cell: SPMD loop at `places` places, kBlocks
/// timed blocks after one warm-up op, rank 0's wall clock. Blocks shrink as
/// payloads grow so the sweep stays O(seconds) end to end. Clears `ok` when
/// verify_round fails at any rank.
Summary payload_bench(int places, TeamMode mode, bool bcast_op,
                      std::size_t bytes, bool& ok) {
  Config cfg = bench_cfg(places);
  const int rounds = bytes >= (1u << 20) ? 1 : 4;
  std::vector<double> blocks;
  std::atomic<bool> verified{true};
  Runtime::run(cfg, [&] {
    std::mutex mu;
    std::atomic<int> arrived{0};
    PlaceGroup::world().broadcast([&] {
      Team t = Team::world(mode);
      const std::size_t n = bytes / sizeof(double);
      std::vector<double> v(n, static_cast<double>(here() + 1));
      t.barrier();
      if (bcast_op) {
        t.bcast(0, v.data(), n);
      } else {
        t.allreduce(v.data(), n, ReduceOp::kSum);
      }
      t.barrier();
      auto samples = time_blocks(rounds, [&] {
        if (bcast_op) {
          t.bcast(0, v.data(), n);
        } else {
          t.allreduce(v.data(), n, ReduceOp::kSum);
        }
      });
      if (!verify_round(t, arrived)) verified.store(false);
      if (here() == 0) {
        std::scoped_lock lock(mu);
        blocks = std::move(samples);
      }
    });
  });
  if (!verified.load()) ok = false;
  bench::maybe_emit_metrics(std::string("collectives.payload.") +
                            (bcast_op ? "bcast." : "allreduce.") +
                            mode_name(mode) + "." + std::to_string(bytes));
  return summarize(std::move(blocks));
}

}  // namespace

int main() {
  const TeamMode kModes[] = {TeamMode::kEmulated, TeamMode::kNative};

  bench::header("§3.3 — Team collectives: emulated vs native (us/op, "
                "median and IQR of " + std::to_string(kBlocks) + " blocks)");
  bench::row("%8s %10s %10s %8s %10s %8s %10s %8s %10s %9s", "places", "mode",
             "barrier", "iqr", "allreduce", "iqr", "alltoall", "iqr",
             "coll msgs", "verified");
  for (int places : bench::sweep_places(16)) {
    for (TeamMode mode : kModes) {
      Summary op[3];
      std::uint64_t msgs;
      const bool ok = small_op_bench(places, mode, op, msgs);
      bench::row("%8d %10s %10.1f %8.1f %10.1f %8.1f %10.1f %8.1f %10llu %9s",
                 places, mode_name(mode), op[0].median, op[0].iqr,
                 op[1].median, op[1].iqr, op[2].median, op[2].iqr,
                 static_cast<unsigned long long>(msgs), verdict(ok));
    }
  }

  const int sweep_places = bench::cores();
  bench::header("§3.3 — large-payload bcast/allreduce at " +
                std::to_string(sweep_places) + " places (us/op, median and " +
                "IQR of " + std::to_string(kBlocks) + " blocks)");
  bench::row("%10s %8s %10s %8s %10s %8s %10s %9s", "op", "KiB", "emulated",
             "iqr", "native", "iqr", "native_x", "verified");
  for (bool bcast_op : {true, false}) {
    for (std::size_t kib : {4u, 32u, 256u, 1024u, 4096u}) {
      const std::size_t bytes = kib * 1024;
      Summary cell[2];
      bool ok = true;
      for (int m = 0; m < 2; ++m) {
        cell[m] = payload_bench(sweep_places, kModes[m], bcast_op, bytes, ok);
      }
      bench::row("%10s %8zu %10.1f %8.1f %10.1f %8.1f %9.2fx %9s",
                 bcast_op ? "bcast" : "allreduce", kib, cell[0].median,
                 cell[0].iqr, cell[1].median, cell[1].iqr,
                 cell[0].median / cell[1].median, verdict(ok));
    }
  }

  bench::header("§3.3 — asyncCopy: RDMA (registered) vs FIFO (serialized)");
  bench::row("%10s %10s %14s %14s", "KiB", "path", "GB/s", "data msgs");
  for (std::size_t kib : {64u, 512u, 4096u}) {
    for (bool rdma : {true, false}) {
      Config cfg;
      cfg.places = 2;
      cfg.congruent_bytes = 32u << 20;
      Runtime::run(cfg, [&] {
        auto& tr = Runtime::get().transport();
        const std::size_t n = kib * 1024 / sizeof(double);
        auto& space = Runtime::get().congruent();
        auto arr = space.alloc<double>(n);
        std::vector<double> heap_src(n, 1.5), heap_dst(n);
        double* src = rdma ? space.at_place(0, arr) : heap_src.data();
        GlobalRail<double> dst =
            rdma ? global_rail(arr, 1)
                 : GlobalRail<double>{1, heap_dst.data(), n};
        tr.reset_stats();
        constexpr int kRounds = 20;
        const auto t0 = std::chrono::steady_clock::now();
        finish([&] {
          for (int i = 0; i < kRounds; ++i) async_copy(src, dst, 0, n);
        });
        const auto t1 = std::chrono::steady_clock::now();
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        bench::row("%10zu %10s %14.3f %14llu", kib, rdma ? "rdma" : "fifo",
                   static_cast<double>(n) * sizeof(double) * kRounds / secs /
                       1e9,
                   static_cast<unsigned long long>(
                       tr.count(x10rt::MsgType::kData)));
      });
    }
  }
  if (g_failed_rows > 0) {
    std::fprintf(stderr, "bench_collectives: %d row(s) failed verification\n",
                 g_failed_rows);
    return 1;
  }
  return 0;
}

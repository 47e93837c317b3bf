// Chaos sweep (ISSUE satellite a): every finish protocol plus Team
// collectives, each run under message-chaos (random delay + reordering in
// the transport) with >= 8 distinct seeds, asserting
//   1. completion — the job finishes and every activity ran exactly once;
//   2. exact accounting — the MetricsRegistry counters that describe
//      protocol *structure* (tasks shipped, completions, credits) are
//      identical across seeds, and every snapshot sent is applied or stale:
//      chaos may reshuffle timing arbitrarily, but never the books.
// The *cross-backend differential* dimension (the Diff* tests at the
// bottom) runs the same frame-task jobs on the in-process backend and again
// as one OS process per place over the socket backend, under the same
// chaos, and the structural counters must be exactly equal cell by cell —
// the headline proof that the Backend abstraction does not leak into
// protocol behavior.
// Registered in CMake with TEST_PREFIX "chaos_sweep/" so
// `ctest -R chaos_sweep` selects the whole sweep.
#include "glb/glb.h"
#include "runtime/api.h"
#include "runtime/metrics.h"
#include "runtime/task_registry.h"
#include "runtime/team.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace apgas;

constexpr std::uint64_t kSeeds[] = {0x1ULL,
                                    0x5eedULL,
                                    0xdeadbeefULL,
                                    0x9e3779b97f4a7c15ULL,
                                    0x2545f4914f6cdd1dULL,
                                    0xa076bc9f00ULL,
                                    0x13371337ULL,
                                    0xfeedfacecafeULL};
constexpr int kNumSeeds = 8;
static_assert(sizeof(kSeeds) / sizeof(kSeeds[0]) == kNumSeeds);

Config chaos_cfg(int places, std::uint64_t seed, int places_per_node = 8) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = places_per_node;
  cfg.chaos.delay_prob = 0.3;
  cfg.chaos.seed = seed;
  // Histograms stay armed for the whole sweep: the structural invariants
  // below tie histogram *counts* to the protocol counters.
  cfg.histograms = true;
  // CI's traced iteration points these at artifact paths; locally they are
  // unset and the sweep runs silent. Each run overwrites the files — the
  // artifact is "one representative chaos run", not the full sweep.
  if (const char* p = std::getenv("APGAS_TRACE")) {
    cfg.trace = true;
    cfg.trace_path = p;
  }
  if (const char* p = std::getenv("APGAS_METRICS")) cfg.metrics_path = p;
  return cfg;
}

/// Sum of one key across the finish protocols ("hist.finish.close_ns.auto.
/// count" + ... for every pragma name).
std::uint64_t sum_close_counts(const std::map<std::string, std::uint64_t>& m) {
  std::uint64_t total = 0;
  for (int p = 0; p < kNumPragmas; ++p) {
    const std::string key = std::string("hist.finish.close_ns.") +
                            pragma_name(static_cast<Pragma>(p)) + ".count";
    auto it = m.find(key);
    if (it != m.end()) total += it->second;
  }
  return total;
}

/// Sum of sched.pN.activities_executed over all places.
std::uint64_t sum_activities(const std::map<std::string, std::uint64_t>& m,
                             int places) {
  std::uint64_t total = 0;
  for (int p = 0; p < places; ++p) {
    total += m.at("sched.p" + std::to_string(p) + ".activities_executed");
  }
  return total;
}

/// The protocol-structure counters that chaos must not change. Timing-driven
/// counters are deliberately absent: idle transitions, dense relay batch
/// counts, and the snapshot counts — how many snapshots a place sends
/// depends on when its worker goes idle (fin_flush_block), and a snapshot
/// racing the release lands stale on some schedules. The per-run
/// conservation law in sweep() (sent == applied + stale) holds instead.
const char* const kStructuralKeys[] = {
    "finish.opened",         "finish.upgrades",
    "runtime.tasks_shipped", "finish.completion_msgs",
    "finish.credit_msgs",    "finish.releases",
    "sched.msgs.task",
};

std::map<std::string, std::uint64_t> structural(
    const std::map<std::string, std::uint64_t>& snap) {
  std::map<std::string, std::uint64_t> out;
  for (const char* key : kStructuralKeys) {
    auto it = snap.find(key);
    out[key] = it == snap.end() ? 0 : it->second;
  }
  return out;
}

/// Runs `job` once per seed, asserting per-run invariants and equality of
/// the structural counters across *all* runs: chaos scheduling may not
/// change the protocol books.
template <typename Job>
void sweep(int places, Job job, int places_per_node = 8) {
  std::map<std::string, std::uint64_t> reference;
  bool have_reference = false;
  std::uint64_t total_bypass = 0;
  for (int s = 0; s < kNumSeeds; ++s) {
    SCOPED_TRACE("seed index " + std::to_string(s));
    Config cfg = chaos_cfg(places, kSeeds[s], places_per_node);
    Runtime::run(cfg, job);
    const auto& m = last_run_metrics();
    // Conservation: every snapshot sent is either applied or provably
    // stale.
    EXPECT_EQ(m.at("finish.snapshots.sent"),
              m.at("finish.snapshots.applied") +
                  m.at("finish.snapshots.stale"));
    // Every shipped task crossed the transport and was dequeued exactly
    // once.
    EXPECT_EQ(m.at("runtime.tasks_shipped"), m.at("sched.msgs.task"));
    EXPECT_EQ(m.at("runtime.tasks_shipped"), m.at("transport.msgs.task"));
    // Histogram counts are structural too: with histograms armed for the
    // whole run, every protocol event must have produced exactly one
    // latency sample — a count mismatch means a recording site is gated
    // differently from its counter twin.
    EXPECT_EQ(m.at("finish.closed"), m.at("finish.opened"));
    EXPECT_EQ(sum_close_counts(m), m.at("finish.opened"));
    EXPECT_EQ(m.at("hist.task.ship_ns.count"), m.at("runtime.tasks_shipped"));
    EXPECT_EQ(m.at("hist.activity.exec_ns.count"), sum_activities(m, places));
    // Delay-shaping saturation is survivable but must be *visible*: tally
    // it so "passed under chaos" can be qualified by how much chaos
    // actually applied.
    total_bypass += m.at("transport.chaos.bypass");
    const auto strut = structural(m);
    if (!have_reference) {
      reference = strut;
      have_reference = true;
    } else {
      EXPECT_EQ(strut, reference) << "accounting drifted with the chaos seed";
    }
  }
  std::printf("[chaos-sweep] delay_bypass=%llu\n",
              static_cast<unsigned long long>(total_bypass));
}

// --- the six finish protocols ----------------------------------------------

TEST(ChaosSweepDefault, FanoutWithNestedChildren) {
  static constexpr int kPlaces = 4;
  sweep(kPlaces, [] {
    std::atomic<int> ran{0};
    finish(Pragma::kDefault, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&ran] {
          ran.fetch_add(1);
          async([&ran] { ran.fetch_add(1); });
        });
      }
    });
    ASSERT_EQ(ran.load(), 2 * kPlaces);
  });
}

TEST(ChaosSweepAuto, UpgradesThenCompletes) {
  static constexpr int kPlaces = 4;
  sweep(kPlaces, [] {
    std::atomic<int> ran{0};
    finish([&] {  // kAuto: starts local, upgrades on the first asyncAt
      async([&ran] { ran.fetch_add(1); });
      for (int p = 1; p < num_places(); ++p) {
        asyncAt(p, [&ran] { ran.fetch_add(1); });
      }
    });
    ASSERT_EQ(ran.load(), kPlaces);
    ASSERT_EQ(Runtime::get().metrics().value("finish.upgrades"), 1u);
  });
}

TEST(ChaosSweepAsync, SingleRemoteActivity) {
  sweep(4, [] {
    std::atomic<int> ran{0};
    for (int i = 0; i < 4; ++i) {
      finish(Pragma::kAsync, [&] {
        asyncAt(2, [&ran] { ran.fetch_add(1); });
      });
    }
    ASSERT_EQ(ran.load(), 4);
    // FINISH_ASYNC: one completion message per (remote) activity, exactly.
    ASSERT_EQ(Runtime::get().metrics().value("finish.completion_msgs"), 4u);
  });
}

TEST(ChaosSweepHere, CreditChainsAndBranches) {
  sweep(4, [] {
    std::atomic<int> hops{0};
    finish(Pragma::kHere, [&] {
      asyncAt(1, [&hops] {
        hops.fetch_add(1);
        asyncAt(2, [&hops] {
          hops.fetch_add(1);
          asyncAt(0, [&hops] { hops.fetch_add(1); });
        });
      });
    });
    finish(Pragma::kHere, [&] {  // branching chain: k children mint credits
      asyncAt(1, [&hops] {
        asyncAt(2, [&hops] { hops.fetch_add(1); });
        asyncAt(3, [&hops] { hops.fetch_add(1); });
      });
    });
    ASSERT_EQ(hops.load(), 5);
  });
}

TEST(ChaosSweepHere, ManyBodyMintsDoNotWrapCredit) {
  static constexpr int kPlaces = 4;
  static constexpr int kSpawns = 8;
  sweep(kPlaces, [] {
    std::atomic<int> ran{0};
    finish(Pragma::kHere, [&] {
      // Each body-level spawn mints kCreditUnit = 2^62 of outstanding
      // weight. A 64-bit accumulator wraps to exactly zero after the fourth
      // concurrent mint and releases the finish while tasks still run;
      // the 128-bit accumulator must hold all eight plus their splits.
      for (int i = 0; i < kSpawns; ++i) {
        const int p = 1 + i % (kPlaces - 1);
        asyncAt(p, [&ran] {
          asyncAt(0, [&ran] { ran.fetch_add(1); });  // round trip home
        });
      }
    });
    ASSERT_EQ(ran.load(), kSpawns);
    // Every remote activity returned its weight in one control message.
    ASSERT_EQ(Runtime::get().metrics().value("finish.credit_msgs"),
              static_cast<std::uint64_t>(kSpawns));
  });
}

TEST(ChaosSweepLocal, PurelyLocalStaysSilent) {
  sweep(2, [] {
    std::atomic<int> n{0};
    finish(Pragma::kLocal, [&] {
      for (int i = 0; i < 32; ++i) async([&n] { n.fetch_add(1); });
    });
    ASSERT_EQ(n.load(), 32);
    // FINISH_LOCAL never touches the control plane, chaos or not.
    auto& m = Runtime::get().metrics();
    ASSERT_EQ(m.value("finish.snapshots.sent"), 0u);
    ASSERT_EQ(m.value("finish.completion_msgs"), 0u);
    ASSERT_EQ(m.value("finish.releases"), 0u);
  });
}

TEST(ChaosSweepSpmd, OneActivityPerPlace) {
  static constexpr int kPlaces = 5;
  sweep(kPlaces, [] {
    std::atomic<int> n{0};
    finish(Pragma::kSpmd, [&] {
      for (int p = 1; p < num_places(); ++p) {
        asyncAt(p, [&n] {
          finish(Pragma::kLocal, [&] {
            for (int i = 0; i < 4; ++i) async([&n] { n.fetch_add(1); });
          });
        });
      }
    });
    ASSERT_EQ(n.load(), 4 * (kPlaces - 1));
    // One completion control message per remote place, exactly.
    ASSERT_EQ(Runtime::get().metrics().value("finish.completion_msgs"),
              static_cast<std::uint64_t>(kPlaces - 1));
  });
}

TEST(ChaosSweepDense, RoutedFanout) {
  static constexpr int kPlaces = 6;
  // places_per_node = 2 so dense routing actually relays through masters.
  sweep(
      kPlaces,
      [] {
        std::atomic<int> ran{0};
        finish(Pragma::kDense, [&] {
          for (int p = 0; p < num_places(); ++p) {
            asyncAt(p, [&ran] {
              ran.fetch_add(1);
              async([&ran] { ran.fetch_add(1); });
            });
          }
        });
        ASSERT_EQ(ran.load(), 2 * kPlaces);
      },
      /*places_per_node=*/2);
}

// --- team collectives under chaos ------------------------------------------

TEST(ChaosSweepTeam, BarrierOrdersPhases) {
  static constexpr int kPlaces = 4;
  sweep(kPlaces, [] {
    std::atomic<int> before{0};
    std::atomic<bool> violated{false};
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&] {
          Team world = Team::world();
          before.fetch_add(1);
          world.barrier();
          // After the barrier every place must have checked in.
          if (before.load() != kPlaces) violated.store(true);
          world.barrier();  // second barrier: reusable under chaos
        });
      }
    });
    ASSERT_FALSE(violated.load());
  });
}

TEST(ChaosSweepTeam, NativeBarrierBackToBackReuse) {
  // Back-to-back native barriers from every rank: a fast rank re-entering
  // the next barrier publishes a later epoch in its slot while slow ranks
  // still wait on the previous one, which must release them, never count
  // toward an epoch they have not reached. Each round checks the
  // happens-before edge the barrier promises, then immediately reuses the
  // same team state.
  static constexpr int kPlaces = 4;
  static constexpr int kRounds = 16;
  sweep(kPlaces, [] {
    std::atomic<int> arrived{0};
    std::atomic<bool> violated{false};
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&] {
          Team world = Team::world(TeamMode::kNative);
          for (int r = 0; r < kRounds; ++r) {
            arrived.fetch_add(1);
            world.barrier();
            // After barrier r, all kPlaces ranks of round r have arrived.
            if (arrived.load() < (r + 1) * kPlaces) violated.store(true);
          }
        });
      }
    });
    ASSERT_FALSE(violated.load());
  });
}

// --- cross-backend differential sweep (ISSUE 6 headline) -------------------
//
// The same job runs on the in-process inbox backend and again as one OS
// process per place over the socket backend, with delay chaos armed in
// both, and the protocol-structure counters must be *exactly* equal.
// Jobs are built from registered frame tasks (asyncAtFrame), the only spawn
// form that can cross a process boundary; registration happens at namespace
// scope (pre-main, hence pre-fork) so every place process agrees on the ids.
// Verification goes through the metrics registry, not captured locals: in
// socket mode the job body runs in forked children whose writes to parent
// stack variables are invisible (copy-on-write), while counters flow back
// through the launcher's aggregation.

void bump_ran() {
  Runtime::get().metrics().counter("test.ran").fetch_add(
      1, std::memory_order_relaxed);
}

void fn_bump(x10rt::ByteBuffer&) { bump_ran(); }
const int kFnBump = register_task_fn(&fn_bump);

void fn_bump_nest(x10rt::ByteBuffer&) {
  bump_ran();
  async([] { bump_ran(); });  // local closure children are still fine
}
const int kFnBumpNest = register_task_fn(&fn_bump_nest);

// Ring chain: bump, then forward to the next place with one hop fewer.
// Frame: [hops i32]
void fn_chain(x10rt::ByteBuffer&);
const int kFnChain = register_task_fn(&fn_chain);
void fn_chain(x10rt::ByteBuffer& args) {
  const auto hops = args.get<std::int32_t>();
  bump_ran();
  if (hops > 0) {
    x10rt::ByteBuffer next;
    next.put<std::int32_t>(hops - 1);
    asyncAtFrame((here() + 1) % num_places(), kFnChain, std::move(next));
  }
}

void fn_local_fanout(x10rt::ByteBuffer&) {
  bump_ran();
  finish(Pragma::kLocal, [] {
    for (int i = 0; i < 4; ++i) async([] { bump_ran(); });
  });
}
const int kFnLocalFanout = register_task_fn(&fn_local_fanout);

/// The structural keys compared across backends: kStructuralKeys plus
/// "finish.closed", which in socket mode proves the sum over *independent
/// processes* still balances, and "finish.snapshots.sent".
const char* const kDiffKeys[] = {
    "finish.opened",          "finish.closed",
    "finish.upgrades",        "runtime.tasks_shipped",
    "finish.completion_msgs", "finish.credit_msgs",
    "finish.snapshots.sent",  "finish.releases",
    "sched.msgs.task",
};

std::map<std::string, std::uint64_t> diff_structural(
    const std::map<std::string, std::uint64_t>& snap) {
  std::map<std::string, std::uint64_t> out;
  for (const char* key : kDiffKeys) {
    auto it = snap.find(key);
    out[key] = it == snap.end() ? 0 : it->second;
  }
  return out;
}

/// Socket frames sent and received, summed over every place: equal once
/// the teardown barrier has balanced every channel (docs/transport.md
/// "Teardown: channel counting"); both read 0 in-process.
void expect_frames_conserved(const std::map<std::string, std::uint64_t>& m) {
  EXPECT_EQ(m.at("transport.backend.frames_sent"),
            m.at("transport.backend.frames_received"));
}

/// Runs `job` per seed on both backends — delay chaos armed in both — and
/// asserts (a) the job's own activity count via the "test.ran" counter,
/// (b) frame conservation across the socket mesh, (c) exact equality of
/// the structural counters between backends.
template <typename Job>
void run_diff(int places, Job job, std::uint64_t expect_ran,
              int places_per_node = 8) {
  for (int s = 0; s < kNumSeeds; ++s) {
    std::map<std::string, std::uint64_t> reference;
    bool have_reference = false;
    for (const bool socket : {false, true}) {
      SCOPED_TRACE(std::string(socket ? "socket" : "inproc") +
                   " seed index " + std::to_string(s));
      Config cfg = chaos_cfg(places, kSeeds[s], places_per_node);
      // The differential matrix reuses one metrics/trace path many times per
      // test; keep these runs silent so CI artifacts stay one-run-per-file.
      cfg.trace = false;
      cfg.trace_path.clear();
      cfg.metrics_path.clear();
      if (socket) cfg.backend = BackendKind::kSocket;
      Runtime::run(cfg, job);
      const auto& m = last_run_metrics();
      const auto ran_it = m.find("test.ran");
      ASSERT_EQ(ran_it == m.end() ? 0 : ran_it->second, expect_ran)
          << "job lost or duplicated activities";
      expect_frames_conserved(m);
      if (socket) {
        EXPECT_GT(m.at("transport.backend.frames_sent"), 0u);
      }
      EXPECT_EQ(m.at("finish.snapshots.sent"),
                m.at("finish.snapshots.applied") +
                    m.at("finish.snapshots.stale"));
      // Ship-latency routing: with histograms armed, every shipped frame task
      // records exactly one sample — in-process into task.ship_ns,
      // cross-process into task.ship_xproc_aligned_ns — and, with every
      // place process on the one host clock, no sample comes near the
      // ~2^64 ns a backwards stamp would wrap to.
      auto val = [&m](const char* k) {
        auto it = m.find(k);
        return it == m.end() ? std::uint64_t{0} : it->second;
      };
      if (socket) {
        EXPECT_EQ(val("hist.task.ship_xproc_aligned_ns.count"),
                  m.at("runtime.tasks_shipped"));
        EXPECT_LT(val("hist.task.ship_xproc_aligned_ns.max"),
                  std::uint64_t{1} << 62);
      } else {
        EXPECT_EQ(val("hist.task.ship_ns.count"),
                  m.at("runtime.tasks_shipped"));
        EXPECT_EQ(val("hist.task.ship_xproc_aligned_ns.count"), 0u);
      }
      const auto strut = diff_structural(m);
      if (!have_reference) {
        reference = strut;
        have_reference = true;
      } else {
        EXPECT_EQ(strut, reference)
            << "structural counters diverged between the in-process and "
               "socket backends";
      }
    }
  }
}

TEST(DiffBackendDefault, FanoutWithNestedChildren) {
  static constexpr int kPlaces = 4;
  run_diff(
      kPlaces,
      [] {
        finish(Pragma::kDefault, [] {
          for (int p = 0; p < num_places(); ++p) {
            asyncAtFrame(p, kFnBumpNest);
          }
        });
      },
      /*expect_ran=*/2 * kPlaces);
}

TEST(DiffBackendAuto, UpgradesThenCompletes) {
  static constexpr int kPlaces = 4;
  run_diff(
      kPlaces,
      [] {
        finish([] {  // kAuto: starts local, upgrades on the first frame spawn
          async([] { bump_ran(); });
          for (int p = 1; p < num_places(); ++p) {
            asyncAtFrame(p, kFnBump);
          }
        });
      },
      /*expect_ran=*/kPlaces);
}

TEST(DiffBackendAsync, SingleRemoteActivityRepeated) {
  run_diff(
      4,
      [] {
        for (int i = 0; i < 4; ++i) {
          finish(Pragma::kAsync, [] { asyncAtFrame(2, kFnBump); });
        }
      },
      /*expect_ran=*/4);
}

TEST(DiffBackendHere, CreditChainWrapsTheRing) {
  // hops=5 from place 1 visits 1,2,3,0,1,2 — including a spawn that lands
  // back on the finish home, exercising the mint-or-split credit path from a
  // remote process.
  run_diff(
      4,
      [] {
        finish(Pragma::kHere, [] {
          x10rt::ByteBuffer args;
          args.put<std::int32_t>(5);
          asyncAtFrame(1, kFnChain, std::move(args));
        });
      },
      /*expect_ran=*/6);
}

TEST(DiffBackendSpmd, LocalFanoutPerPlace) {
  static constexpr int kPlaces = 4;
  run_diff(
      kPlaces,
      [] {
        finish(Pragma::kSpmd, [] {
          for (int p = 1; p < num_places(); ++p) {
            asyncAtFrame(p, kFnLocalFanout);
          }
        });
      },
      /*expect_ran=*/5 * (kPlaces - 1));
}

TEST(DiffBackendDense, RoutedFanout) {
  static constexpr int kPlaces = 6;
  // places_per_node = 2 so dense routing actually relays through masters.
  run_diff(
      kPlaces,
      [] {
        finish(Pragma::kDense, [] {
          for (int p = 0; p < num_places(); ++p) {
            asyncAtFrame(p, kFnBumpNest);
          }
        });
      },
      /*expect_ran=*/2 * kPlaces,
      /*places_per_node=*/2);
}

// --- the socket teardown barrier ---------------------------------------------
//
// Immediates run outside every finish, so the root finish closes with one
// still queued at place 0 and place 0 runs it in its teardown drain. Each
// hop of the relay below sleeps before it sends on, so every other place
// has long reported idle when its frame arrives: 0 -> 2 -> 1 -> 0. A place
// reports 'Q' only while idle, so as long as a hop's frame is in flight or
// its handler still sleeps, the sender's latest report counts the frame
// sent and the receiver's does not. Nothing but that unbalanced channel
// keeps the launcher from releasing 'G' before place 0 runs the last hop.

/// Frame: [hops i32][next place i32]... — sleep, then forward the rest to
/// the next place, or count a run once no hops are left.
void fn_relay(x10rt::ByteBuffer&);
const int kFnRelay = register_task_fn(&fn_relay);
void fn_relay(x10rt::ByteBuffer& args) {
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto hops = args.get<std::int32_t>();
  if (hops == 0) {
    bump_ran();
    return;
  }
  const auto next = args.get<std::int32_t>();
  x10rt::ByteBuffer rest;
  rest.put<std::int32_t>(hops - 1);
  for (std::int32_t i = 1; i < hops; ++i) {
    rest.put<std::int32_t>(args.get<std::int32_t>());
  }
  immediateAtFrame(next, kFnRelay, std::move(rest));
}

TEST(DiffBackendTeardown, LateRelayToAnIdlePlaceRunsBeforeGo) {
  run_diff(
      /*places=*/3,
      [] {
        x10rt::ByteBuffer route;
        for (const std::int32_t w : {3, 2, 1, 0}) route.put<std::int32_t>(w);
        immediateAtFrame(0, kFnRelay, std::move(route));
      },
      /*expect_ran=*/1);
}

// --- native teams under chaos ----------------------------------------------
//
// Each finish protocol hosts the same collective round on the native *and*
// emulated world teams with identical integer-valued inputs.
// Integer-valued doubles make floating-point addition exact in every combine
// order, so the two paths must agree bit for bit — any mismatch means a
// contribution was lost, duplicated, or read from a stale buffer, not a
// rounding artifact. (The ChaosSweepTeamHier suite keeps the name it had
// when it checked the leader-tree mode the native protocol replaced.)

void native_vs_emulated_round(std::atomic<int>& ok, int salt) {
  Team native = Team::world(TeamMode::kNative);
  Team emu = Team::world(TeamMode::kEmulated);
  native.barrier();
  constexpr std::size_t kN = 65;
  std::vector<double> a(kN), b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = b[i] =
        static_cast<double>((native.rank() + 1) * (static_cast<int>(i) + salt));
  }
  bool good = true;
  native.allreduce(a.data(), kN, ReduceOp::kSum);
  emu.allreduce(b.data(), kN, ReduceOp::kSum);
  good = good && std::memcmp(a.data(), b.data(), kN * sizeof(double)) == 0;
  // Reduce to a non-zero root (the fold starts at the root and wraps);
  // non-root buffers are scratch, so only the root's bits are comparable.
  const int root = 1 % native.size();
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = b[i] =
        static_cast<double>((native.rank() + 2) * (static_cast<int>(i) + salt));
  }
  native.reduce(root, a.data(), kN, ReduceOp::kSum);
  emu.reduce(root, b.data(), kN, ReduceOp::kSum);
  if (native.rank() == root) {
    good = good && std::memcmp(a.data(), b.data(), kN * sizeof(double)) == 0;
  }
  if (good) ok.fetch_add(1);
}

TEST(ChaosSweepTeamHier, FanoutProtocolsBitExactVsEmulated) {
  static constexpr int kPlaces = 6;
  sweep(
      kPlaces,
      [] {
        int salt = 1;
        for (Pragma pr : {Pragma::kDefault, Pragma::kAuto, Pragma::kSpmd,
                          Pragma::kDense}) {
          std::atomic<int> ok{0};
          finish(pr, [&] {
            for (int p = 0; p < num_places(); ++p) {
              asyncAt(p, [&ok, salt] { native_vs_emulated_round(ok, salt); });
            }
          });
          ASSERT_EQ(ok.load(), kPlaces) << "pragma " << pragma_name(pr);
          ++salt;
        }
      },
      /*places_per_node=*/4);  // kDense relays through masters 0 and 4
}

TEST(ChaosSweepTeamHier, AsyncHereLocalProtocolsBitExactVsEmulated) {
  static constexpr int kPlaces = 4;
  sweep(
      kPlaces,
      [] {
        // kAsync / kHere allow one remote child per finish; open one finish
        // per place concurrently (as local asyncs) so the collective rounds
        // can rendezvous — blocked finishes pump the scheduler.
        int salt = 10;
        for (Pragma pr : {Pragma::kAsync, Pragma::kHere}) {
          std::atomic<int> ok{0};
          finish(Pragma::kDefault, [&] {
            for (int p = 0; p < num_places(); ++p) {
              async([&ok, p, pr, salt] {
                finish(pr, [&ok, p, salt] {
                  asyncAt(p,
                          [&ok, salt] { native_vs_emulated_round(ok, salt); });
                });
              });
            }
          });
          ASSERT_EQ(ok.load(), kPlaces) << "pragma " << pragma_name(pr);
          ++salt;
        }
        // kLocal cannot spawn remotely; run it around purely local fan-out
        // at every place, then the collective round after it closes.
        std::atomic<int> ok{0};
        finish(Pragma::kSpmd, [&] {
          for (int p = 0; p < num_places(); ++p) {
            asyncAt(p, [&ok] {
              std::atomic<int> n{0};
              finish(Pragma::kLocal, [&] {
                for (int i = 0; i < 4; ++i) async([&n] { n.fetch_add(1); });
              });
              if (n.load() == 4) native_vs_emulated_round(ok, 20);
            });
          }
        });
        ASSERT_EQ(ok.load(), kPlaces);
      });
}

// --- Team and GLB over the socket backend (ISSUE 10) ------------------------
//
// Team mail now rides registered frame tasks and GLB's steal/lifeline/loot
// protocol ships bags through their Ser hooks, so both run under the socket
// backend. The legs below are the structural-equality proof: the same
// collective rounds and the same balancing job on both backends, delay chaos
// armed, books compared cell by cell.

/// One collective round as a frame task: [mode u8]. Every place runs
/// barrier -> allreduce(sum) -> bcast-from-0 on the world team of that mode,
/// checks the values, and bumps "test.ran" on success. In socket mode a
/// kNative team downgrades to the emulated algorithms (effective_mode), and
/// the kDiffKeys books must not notice: mail rides immediates, which are
/// outside every structural counter.
void fn_team_round(x10rt::ByteBuffer& args) {
  const auto mode = static_cast<TeamMode>(args.get<std::uint8_t>());
  Team t = Team::world(mode);
  t.barrier();
  double v = 1.0 + t.rank();
  t.allreduce(&v, 1, ReduceOp::kSum);
  const double want = t.size() * (t.size() + 1) / 2.0;
  std::uint64_t word = t.rank() == 0 ? 0x5eedULL : 0;
  t.bcast(0, &word, 1);
  if (v == want && word == 0x5eedULL) bump_ran();
}
const int kFnTeamRound = register_task_fn(&fn_team_round);

void team_diff_job(TeamMode mode) {
  finish(Pragma::kSpmd, [mode] {
    for (int p = 0; p < num_places(); ++p) {
      x10rt::ByteBuffer args;
      args.put<std::uint8_t>(static_cast<std::uint8_t>(mode));
      asyncAtFrame(p, kFnTeamRound, std::move(args));
    }
  });
}

TEST(DiffBackendTeam, EmulatedCollectivesMatchAcrossBackends) {
  static constexpr int kPlaces = 4;
  run_diff(
      kPlaces, [] { team_diff_job(TeamMode::kEmulated); },
      /*expect_ran=*/kPlaces);
}

TEST(DiffBackendTeam, NativeDowngradesToEmulatedOverSockets) {
  static constexpr int kPlaces = 4;
  run_diff(
      kPlaces, [] { team_diff_job(TeamMode::kNative); },
      /*expect_ran=*/kPlaces);
}

TEST(DiffBackendGlb, CounterBagProcessedTotalsMatchAcrossBackends) {
  // GLB's full structural books are NOT backend-comparable: steal timing and
  // lifeline resuscitations vary with the schedule, and each resuscitation
  // ships a task ("runtime.tasks_shipped" moves). What must hold on *every*
  // backend and seed: each work unit processed exactly once (the summed
  // "glb.processed" counter), the job's own verification, and frame
  // conservation across the socket mesh.
  static constexpr int kPlaces = 4;
  static constexpr std::uint64_t kUnits = 3000;
  for (int s = 0; s < kNumSeeds; ++s) {
    for (const bool socket : {false, true}) {
      SCOPED_TRACE(std::string(socket ? "socket" : "inproc") +
                   " seed index " + std::to_string(s));
      Config cfg = chaos_cfg(kPlaces, kSeeds[s]);
      cfg.trace = false;
      cfg.trace_path.clear();
      cfg.metrics_path.clear();
      if (socket) cfg.backend = BackendKind::kSocket;
      Runtime::run(cfg, [] {
        glb::Glb<glb::CounterBag> balancer{glb::GlbConfig{}};
        balancer.run(glb::CounterBag(0, kUnits));
        std::uint64_t total = 0;
        for (int p = 0; p < num_places(); ++p) {
          total += balancer.stats_at(p).processed;
        }
        if (total == kUnits) bump_ran();
      });
      const auto& m = last_run_metrics();
      const auto ran_it = m.find("test.ran");
      ASSERT_EQ(ran_it == m.end() ? 0 : ran_it->second, 1u)
          << "gathered per-place stats did not sum to the seeded work";
      EXPECT_EQ(m.at("glb.processed"), kUnits)
          << "a work unit was lost or processed twice";
      expect_frames_conserved(m);
      EXPECT_EQ(m.at("finish.snapshots.sent"),
                m.at("finish.snapshots.applied") +
                    m.at("finish.snapshots.stale"));
    }
  }
}

TEST(ChaosSweepTeam, AllreduceSumsEveryRank) {
  static constexpr int kPlaces = 4;
  sweep(kPlaces, [] {
    std::atomic<int> correct{0};
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&correct] {
          Team world = Team::world();
          double v = 1.0 + world.rank();
          world.allreduce(&v, 1, ReduceOp::kSum);
          // 1 + 2 + ... + n.
          const double want = world.size() * (world.size() + 1) / 2.0;
          if (v == want) correct.fetch_add(1);
        });
      }
    });
    ASSERT_EQ(correct.load(), kPlaces);
  });
}

}  // namespace

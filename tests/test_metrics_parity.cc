// Metrics parity (ISSUE satellite c): the MetricsRegistry is the single
// source of truth, and the legacy Scheduler/Transport getters are thin views
// over it — so the two must agree exactly, live (mid-job) and in the
// teardown snapshot. The second half pins exact expected counts for a fixed
// 4-place FINISH_DENSE workload: these numbers are protocol invariants
// (transit-matrix snapshots, dense software routing), not timing accidents,
// so any drift is a behavior change worth noticing.
#include "runtime/api.h"
#include "runtime/metrics.h"
#include "runtime/runtime.h"
#include "x10rt/transport.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

namespace {

using namespace apgas;

// --- registry vs legacy getters -------------------------------------------

TEST(MetricsParity, RegistryMatchesSchedulerGetters) {
  constexpr int kPlaces = 4;
  Config cfg;
  cfg.places = kPlaces;
  Runtime::run(cfg, [&] {
    // Generate some cross-place traffic first.
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [] {
          finish(Pragma::kLocal, [] {
            for (int i = 0; i < 3; ++i) async([] {});
          });
        });
      }
    });
    // The root finish has returned, but late control messages (releases,
    // stale snapshots) can still arrive and bump these counters while we
    // read them. All three only grow, so a getter read bracketed between
    // two registry reads must land inside that window: it proves the
    // registry key and the getter read the same counter even while it moves.
    Runtime& rt = Runtime::get();
    struct Key {
      const char* name;
      std::uint64_t (Scheduler::*getter)() const;
    };
    const Key keys[] = {
        {"activities_executed", &Scheduler::activities_executed},
        {"messages_processed", &Scheduler::messages_processed},
        {"idle_transitions", &Scheduler::idle_transitions},
    };
    for (int p = 0; p < kPlaces; ++p) {
      for (const Key& k : keys) {
        const std::string key =
            "sched.p" + std::to_string(p) + "." + k.name;
        const std::uint64_t first = rt.metrics().value(key);
        const std::uint64_t got = (rt.sched(p).*k.getter)();
        const std::uint64_t second = rt.metrics().value(key);
        EXPECT_LE(first, got) << key;
        EXPECT_LE(got, second) << key;
      }
    }
  });
}

TEST(MetricsParity, RegistryMatchesTransportGetters) {
  Config cfg;
  cfg.places = 4;
  cfg.count_pairs = true;
  Runtime::run(cfg, [&] {
    finish([&] {
      for (int p = 1; p < num_places(); ++p) {
        asyncAt(p, [] { async([] {}); });
      }
    });
    Runtime& rt = Runtime::get();
    const x10rt::Transport& tr = rt.transport();
    for (int t = 0; t < x10rt::kNumMsgTypes; ++t) {
      const auto type = static_cast<x10rt::MsgType>(t);
      const std::string cls = x10rt::msg_type_name(type);
      EXPECT_EQ(rt.metrics().value("transport.msgs." + cls), tr.count(type))
          << cls;
      EXPECT_EQ(rt.metrics().value("transport.bytes." + cls), tr.bytes(type))
          << cls;
    }
    EXPECT_EQ(rt.metrics().value("transport.msgs.total"),
              tr.total_messages());
    EXPECT_EQ(rt.metrics().value("transport.rdma.ops"), tr.rdma_ops());
    EXPECT_EQ(rt.metrics().value("transport.rdma.bytes"), tr.rdma_bytes());
  });
}

TEST(MetricsParity, SchedulerMessageClassTotalsMatchTransportDelivery) {
  // Every message the transport accepted is eventually processed by exactly
  // one scheduler, so at quiescence the per-class dequeue counters equal the
  // per-class send counters.
  Config cfg;
  cfg.places = 4;
  Runtime::run(cfg, [&] {
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [] {});
      }
    });
    Runtime& rt = Runtime::get();
    const x10rt::Transport& tr = rt.transport();
    for (const char* cls : {"task", "control", "collective"}) {
      std::uint64_t sent = 0;
      for (int t = 0; t < x10rt::kNumMsgTypes; ++t) {
        if (cls == std::string(
                       x10rt::msg_type_name(static_cast<x10rt::MsgType>(t)))) {
          sent = tr.count(static_cast<x10rt::MsgType>(t));
        }
      }
      EXPECT_EQ(rt.metrics().value(std::string("sched.msgs.") + cls), sent)
          << cls;
    }
  });
}

TEST(MetricsParity, TeardownSnapshotMatchesLiveValues) {
  Config cfg;
  cfg.places = 3;
  std::uint64_t live_tasks = 0, live_opened = 0;
  Runtime::run(cfg, [&] {
    finish([&] {
      for (int p = 1; p < num_places(); ++p) asyncAt(p, [] {});
    });
    live_tasks = Runtime::get().metrics().value("runtime.tasks_shipped");
    live_opened = Runtime::get().metrics().value("finish.opened");
  });
  const auto& snap = last_run_metrics();
  EXPECT_EQ(snap.at("runtime.tasks_shipped"), live_tasks);
  EXPECT_EQ(snap.at("finish.opened"), live_opened);
}

// --- pinned counts for a fixed FINISH_DENSE workload -----------------------

// The workload: 4 places, 2 places per node (so dense routing really routes:
// place -> node master -> home master -> home), one FINISH_DENSE fan-out of
// one task per place, each task spawning one local child under the same
// finish. All counts below are protocol-determined (verified stable across
// repeated runs; the chaos sweep additionally shows them seed-independent):
//   * tasks shipped: 3 remote asyncAt (place 0's task short-circuits local);
//   * finishes opened: the explicit FINISH_DENSE plus Runtime::run's root;
//   * snapshots: matrix finishes flush at activity granularity — one
//     snapshot per non-home completion: 3 places x 2 activities = 6 sent,
//     all applied, 0 stale (no chaos);
//   * releases: one close/cleanup message per remote place that hosted
//     state under the finish -> 3.
TEST(MetricsParity, PinnedCountsForDenseFanout) {
  Config cfg;
  cfg.places = 4;
  cfg.places_per_node = 2;
  std::atomic<int> ran{0};
  Runtime::run(cfg, [&] {
    finish(Pragma::kDense, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&ran] {
          async([&ran] { ran.fetch_add(1); });
        });
      }
    });
    EXPECT_EQ(ran.load(), 4);
  });
  const auto& m = last_run_metrics();
  EXPECT_EQ(m.at("finish.opened"), 2u);    // the kDense one + the job root
  EXPECT_EQ(m.at("finish.upgrades"), 0u);  // explicit pragma, not kAuto
  EXPECT_EQ(m.at("runtime.tasks_shipped"), 3u);
  EXPECT_EQ(m.at("sched.msgs.task"), 3u);
  EXPECT_EQ(m.at("transport.msgs.task"), 3u);
  EXPECT_EQ(m.at("finish.snapshots.sent"), 6u);
  EXPECT_EQ(m.at("finish.snapshots.applied"), 6u);
  EXPECT_EQ(m.at("finish.snapshots.stale"), 0u);
  EXPECT_EQ(m.at("finish.releases"), 3u);
  EXPECT_EQ(m.at("finish.credit_msgs"), 0u);  // no FINISH_HERE in play
  EXPECT_EQ(m.at("trace.events"), 0u);        // tracing off by default
}

// Same accounting story for the default (transit-matrix) protocol, plus the
// deterministic remote-waiter release: place 1 opens the finish, so closing
// it costs one control-plane release message back to the waiter.
TEST(MetricsParity, PinnedCountsForRemoteRootedFinish) {
  Config cfg;
  cfg.places = 4;
  Runtime::run(cfg, [&] {
    finish([&] {
      asyncAt(1, [] {
        finish([] {
          for (int p = 0; p < num_places(); ++p) {
            if (p != here()) asyncAt(p, [] {});
          }
        });
      });
    });
  });
  const auto& m = last_run_metrics();
  // Outer finish (home 0, one remote task) + inner finish (home 1, three
  // remote tasks) + the job root: 4 shipped tasks in total.
  EXPECT_EQ(m.at("finish.opened"), 3u);
  EXPECT_EQ(m.at("finish.upgrades"), 2u);  // both kAuto finishes upgraded
  EXPECT_EQ(m.at("runtime.tasks_shipped"), 4u);
  EXPECT_EQ(m.at("sched.msgs.task"), 4u);
  // Flush-at-completion sends at least 4: outer contributes 1 (place 1's
  // task), inner 3 (places 0, 2, 3). Whether place 1 also idle-flushes the
  // inner finish's spawn ledger while it waits depends on when its worker
  // goes idle (fin_flush_block), so the total is not pinned; every snapshot
  // sent must still be applied or provably stale.
  EXPECT_GE(m.at("finish.snapshots.sent"), 4u);
  EXPECT_EQ(m.at("finish.snapshots.sent"),
            m.at("finish.snapshots.applied") +
                m.at("finish.snapshots.stale"));
  EXPECT_EQ(m.at("finish.releases"), 4u);  // cleanup per remote host place
}

}  // namespace

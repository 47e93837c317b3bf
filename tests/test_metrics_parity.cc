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

// --- Prometheus exposition --------------------------------------------------

TEST(MetricsParity, PrometheusTextExposesAllMetricClasses) {
  MetricsRegistry reg;
  reg.counter("finish.opened").fetch_add(7, std::memory_order_relaxed);
  reg.add_gauge("transport.pool.hits", [] { return std::uint64_t{3}; });
  Histogram& h = reg.histogram("task.ship_xproc_aligned_ns");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<std::uint64_t>(i));

  const std::string prom = reg.prometheus_text();
  // Dotted names map into the prometheus charset under an apgas_ namespace.
  EXPECT_NE(prom.find("# TYPE apgas_finish_opened counter\n"
                      "apgas_finish_opened 7\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE apgas_transport_pool_hits gauge\n"
                      "apgas_transport_pool_hits 3\n"),
            std::string::npos)
      << prom;
  // Histograms export as summaries: quantile samples plus _sum/_count, and
  // the max as a companion gauge.
  const std::string hn = "apgas_task_ship_xproc_aligned_ns";
  EXPECT_NE(prom.find("# TYPE " + hn + " summary\n"), std::string::npos);
  EXPECT_NE(prom.find(hn + "{quantile=\"0.5\"} "), std::string::npos);
  EXPECT_NE(prom.find(hn + "{quantile=\"0.9\"} "), std::string::npos);
  EXPECT_NE(prom.find(hn + "{quantile=\"0.99\"} "), std::string::npos);
  EXPECT_NE(prom.find(hn + "_count 100\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find(hn + "_sum 5050\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE " + hn + "_max gauge\n"), std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  std::size_t start = 0;
  while (start < prom.size()) {
    std::size_t end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    const std::string line = prom.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_EQ(line.find("apgas_"), 0u) << line;
    EXPECT_NE(line.find_first_of("0123456789", sp), std::string::npos) << line;
  }
}

TEST(MetricsParity, WriteDispatchesOnPromSuffix) {
  MetricsRegistry reg;
  reg.counter("finish.opened").fetch_add(2, std::memory_order_relaxed);
  const std::string path =
      ::testing::TempDir() + "apgas_metrics_test_" +
      std::to_string(::getpid()) + ".prom";
  ASSERT_TRUE(reg.write(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  std::string body;
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(body.find("# TYPE apgas_finish_opened counter"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("apgas_finish_opened 2"), std::string::npos) << body;
}

}  // namespace

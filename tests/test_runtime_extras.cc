// PlaceGroup tree broadcast, atomic/when monitors, clocks, and
// asyncCopy/RDMA rails (paper §2.2, §3.2, §3.3).
#include "runtime/clock.h"
#include "runtime/dist_rail.h"
#include "runtime/monitor.h"
#include "runtime/place_group.h"
#include "runtime/team.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>

namespace {

using namespace apgas;

Config cfg_n(int places) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = 4;
  return cfg;
}

// --- PlaceGroup --------------------------------------------------------------

TEST(PlaceGroup, TreeBroadcastReachesEveryPlaceOnce) {
  std::mutex mu;
  std::vector<int> seen;
  Runtime::run(cfg_n(13), [&] {
    PlaceGroup::world().broadcast([&] {
      std::scoped_lock lock(mu);
      seen.push_back(here());
    });
  });
  std::sort(seen.begin(), seen.end());
  std::vector<int> expect(13);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(seen, expect);
}

TEST(PlaceGroup, FlatBroadcastMatchesTree) {
  std::atomic<int> tree_count{0};
  std::atomic<int> flat_count{0};
  Runtime::run(cfg_n(9), [&] {
    PlaceGroup::world().broadcast([&] { tree_count.fetch_add(1); });
    PlaceGroup::world().broadcast_flat([&] { flat_count.fetch_add(1); });
  });
  EXPECT_EQ(tree_count.load(), 9);
  EXPECT_EQ(flat_count.load(), 9);
}

TEST(PlaceGroup, SubGroupBroadcast) {
  std::mutex mu;
  std::set<int> seen;
  Runtime::run(cfg_n(8), [&] {
    PlaceGroup evens({0, 2, 4, 6});
    evens.broadcast([&] {
      std::scoped_lock lock(mu);
      seen.insert(here());
    });
  });
  EXPECT_EQ(seen, (std::set<int>{0, 2, 4, 6}));
}

TEST(PlaceGroup, FanoutVariants) {
  for (int fanout : {1, 2, 3, 16}) {
    std::atomic<int> count{0};
    Runtime::run(cfg_n(11), [&] {
      PlaceGroup::world().broadcast([&] { count.fetch_add(1); }, fanout);
    });
    EXPECT_EQ(count.load(), 11) << "fanout " << fanout;
  }
}

TEST(PlaceGroup, TreeBroadcastBoundsRootTaskFanout) {
  // §3.2: the spawning tree distributes task-creation overhead; the root
  // sends O(fanout) task messages instead of P-1.
  constexpr int kPlaces = 16;
  Config cfg = cfg_n(kPlaces);
  cfg.count_pairs = true;
  std::uint64_t root_tree_tasks = 0;
  std::uint64_t root_flat_tasks = 0;
  Runtime::run(cfg, [&] {
    auto& tr = Runtime::get().transport();
    tr.reset_stats();
    PlaceGroup::world().broadcast([] {}, /*fanout=*/2);
    std::uint64_t tree = 0;
    for (int d = 1; d < kPlaces; ++d) tree += tr.pair_count(0, d);
    root_tree_tasks = tree;

    tr.reset_stats();
    PlaceGroup::world().broadcast_flat([] {});
    std::uint64_t flat = 0;
    for (int d = 1; d < kPlaces; ++d) flat += tr.pair_count(0, d);
    root_flat_tasks = flat;
  });
  EXPECT_LT(root_tree_tasks, root_flat_tasks);
}

// --- atomic / when -----------------------------------------------------------

TEST(Monitor, AtomicSectionsAreMutuallyExclusive) {
  // The §2.2 average-load idiom: concurrent remote updates through atomic.
  Runtime::run(cfg_n(4), [&] {
    double acc = 0.0;
    GlobalRef<double> ref(&acc);
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [ref] {
          const double load = 0.25 * (here() + 1);
          asyncAt(ref.home(), [ref, load] {
            atomic_do([&] { *ref += load; });
          });
        });
      }
    });
    EXPECT_DOUBLE_EQ(acc, 0.25 * (1 + 2 + 3 + 4));
  });
}

TEST(Monitor, AtomicCountsUnderContention) {
  Config cfg = cfg_n(1);
  cfg.workers_per_place = 4;
  long counter = 0;
  Runtime::run(cfg, [&] {
    finish([&] {
      for (int i = 0; i < 400; ++i) {
        async([&counter] { atomic_do([&counter] { ++counter; }); });
      }
    });
  });
  EXPECT_EQ(counter, 400);
}

TEST(Monitor, WhenBlocksUntilCondition) {
  // The stage advances monotonically within one producer activity: the
  // waiter must observe stage == 3 no matter how the scheduler orders the
  // two activities (the work-stealing deque runs local spawns LIFO — X10
  // guarantees no ordering between sibling asyncs).
  Runtime::run(cfg_n(1), [&] {
    int stage = 0;
    bool consumed = false;
    finish([&] {
      async([&] {
        when([&] { return stage == 3; }, [&] { consumed = true; });
      });
      async([&] {
        atomic_do([&] { stage = 1; });
        atomic_do([&] { stage = 3; });
      });
    });
    EXPECT_TRUE(consumed);
  });
}

TEST(Monitor, WhenProducerConsumerAcrossActivities) {
  Runtime::run(cfg_n(1), [&] {
    std::vector<int> queue;
    int consumed_total = 0;
    finish([&] {
      async([&] {
        for (int i = 0; i < 10; ++i) {
          when([&] { return !queue.empty(); },
               [&] {
                 consumed_total += queue.back();
                 queue.pop_back();
               });
        }
      });
      async([&] {
        for (int i = 1; i <= 10; ++i) {
          atomic_do([&] { queue.push_back(i); });
        }
      });
    });
    EXPECT_EQ(consumed_total, 55);
  });
}

// --- clocks --------------------------------------------------------------------

TEST(Clock, SynchronizesIterationsAcrossPlaces) {
  // The §2.2 clocked-finish example: loop iterations aligned across places.
  constexpr int kPlaces = 4;
  constexpr int kIters = 5;
  Runtime::run(cfg_n(kPlaces), [&] {
    auto clock = Clock::create(kPlaces);
    std::atomic<int> in_iter[kIters] = {};
    std::atomic<bool> skew{false};
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&, clock] {
          for (int i = 0; i < kIters; ++i) {
            // Every participant must observe the same phase within an
            // iteration.
            if (static_cast<int>(clock->phase()) != i) skew.store(true);
            in_iter[i].fetch_add(1);
            clock->advance();
          }
        });
      }
    });
    EXPECT_FALSE(skew.load());
    for (int i = 0; i < kIters; ++i) EXPECT_EQ(in_iter[i].load(), kPlaces);
  });
}

TEST(Clock, PhaseAdvancesExactlyOncePerRound) {
  Runtime::run(cfg_n(3), [&] {
    auto clock = Clock::create(3);
    finish([&] {
      for (int p = 0; p < 3; ++p) {
        asyncAt(p, [clock] {
          clock->advance();
          clock->advance();
        });
      }
    });
    EXPECT_EQ(clock->phase(), 2u);
  });
}

// --- asyncCopy / rails ---------------------------------------------------------

TEST(AsyncCopy, RdmaPathOnCongruentMemory) {
  Runtime::run(cfg_n(2), [&] {
    auto& space = Runtime::get().congruent();
    auto arr = space.alloc<double>(256);
    double* mine = space.at_place(0, arr);
    std::iota(mine, mine + 256, 0.0);

    auto& tr = Runtime::get().transport();
    const auto data_msgs_before = tr.count(x10rt::MsgType::kData);
    finish([&] {
      async_copy(mine, global_rail(arr, 1), 0, 256);
    });
    double* theirs = space.at_place(1, arr);
    for (int i = 0; i < 256; ++i) ASSERT_DOUBLE_EQ(theirs[i], i);
    EXPECT_GT(tr.rdma_ops(), 0u);
    EXPECT_EQ(tr.count(x10rt::MsgType::kData), data_msgs_before)
        << "registered memory must take the RDMA path, not the fifo";
  });
}

TEST(AsyncCopy, FifoPathOnUnregisteredMemory) {
  Runtime::run(cfg_n(2), [&] {
    std::vector<int> src(64);
    std::iota(src.begin(), src.end(), 100);
    std::vector<int> dst(64, 0);
    GlobalRail<int> remote = at(1, [&dst] {
      return make_global_rail(dst.data(), dst.size());
    });
    auto& tr = Runtime::get().transport();
    const auto rdma_before = tr.rdma_ops();
    finish([&] { async_copy(src.data(), remote, 0, 64); });
    EXPECT_EQ(dst, src);
    EXPECT_EQ(tr.rdma_ops(), rdma_before);
    EXPECT_GT(tr.count(x10rt::MsgType::kData), 0u);
  });
}

TEST(AsyncCopy, GetPathReadsRemote) {
  Runtime::run(cfg_n(3), [&] {
    auto& space = Runtime::get().congruent();
    auto arr = space.alloc<double>(128);
    at(2, [&space, arr] {
      double* p = space.at_place(2, arr);
      for (int i = 0; i < 128; ++i) p[i] = i * 2.0;
    });
    std::vector<double> local(128, -1.0);
    finish([&] { async_copy(global_rail(arr, 2), 0, local.data(), 128); });
    for (int i = 0; i < 128; ++i) ASSERT_DOUBLE_EQ(local[i], i * 2.0);
  });
}

TEST(AsyncCopy, OverlapsWithComputationUnderOneFinish) {
  // §2.2: asyncCopy inside finish overlaps communication and computation.
  Runtime::run(cfg_n(2), [&] {
    auto& space = Runtime::get().congruent();
    auto arr = space.alloc<std::uint64_t>(1 << 14);
    auto* src = space.at_place(0, arr);
    for (std::size_t i = 0; i < (1u << 14); ++i) src[i] = i;
    long computed = 0;
    finish([&] {
      async_copy(src, global_rail(arr, 1), 0, 1 << 14);
      for (int i = 0; i < 1000; ++i) computed += i;  // while sending
    });
    EXPECT_EQ(computed, 499500);
    EXPECT_EQ(space.at_place(1, arr)[12345], 12345u);
  });
}

TEST(AsyncCopy, ManyConcurrentCopies) {
  Runtime::run(cfg_n(4), [&] {
    auto& space = Runtime::get().congruent();
    auto arr = space.alloc<std::uint64_t>(4 * 1024);
    auto* mine = space.at_place(0, arr);
    for (int i = 0; i < 4096; ++i) mine[i] = static_cast<std::uint64_t>(i);
    finish([&] {
      for (int p = 1; p < 4; ++p) {
        for (int chunk = 0; chunk < 4; ++chunk) {
          async_copy(mine + chunk * 1024, global_rail(arr, p),
                     static_cast<std::size_t>(chunk) * 1024, 1024);
        }
      }
    });
    for (int p = 1; p < 4; ++p) {
      auto* theirs = space.at_place(p, arr);
      for (int i = 0; i < 4096; ++i) {
        ASSERT_EQ(theirs[i], static_cast<std::uint64_t>(i));
      }
    }
  });
}

TEST(Rails, GupsRemoteXorThroughRail) {
  Runtime::run(cfg_n(2), [&] {
    auto& space = Runtime::get().congruent();
    auto table = space.alloc<std::uint64_t>(16);
    auto* remote = space.at_place(1, table);
    for (int i = 0; i < 16; ++i) remote[i] = 0;
    auto rail = global_rail(table, 1);
    remote_xor(rail, 5, 0xabcULL);
    remote_xor(rail, 5, 0xabcULL);
    remote_xor(rail, 7, 0x111ULL);
    remote_add(rail, 3, 4);
    EXPECT_EQ(remote[5], 0u);  // xor twice cancels
    EXPECT_EQ(remote[7], 0x111ULL);
    EXPECT_EQ(remote[3], 4u);
  });
}

// --- Config::from_env / apply_env (ISSUE 3 satellite) ------------------------

class ConfigEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : kVars) {
      const char* v = std::getenv(name);
      saved_.emplace_back(name, v ? std::optional<std::string>(v)
                                  : std::nullopt);
      ::unsetenv(name);
    }
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value) {
        ::setenv(name.c_str(), value->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }
  static constexpr const char* kVars[] = {
      "APGAS_PLACES",          "APGAS_WORKERS_PER_PLACE",
      "APGAS_PLACES_PER_NODE", "APGAS_CHAOS_SEED",
      "APGAS_CHAOS_DELAY",     "APGAS_WATCHDOG_MS",
      "APGAS_TRACE_CAP"};

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST_F(ConfigEnv, UnsetVariablesLeaveDefaults) {
  const Config defaults;
  const Config cfg = Config::from_env();
  EXPECT_EQ(cfg.places, defaults.places);
  EXPECT_EQ(cfg.workers_per_place, defaults.workers_per_place);
  EXPECT_EQ(cfg.places_per_node, defaults.places_per_node);
  EXPECT_EQ(cfg.chaos.seed, defaults.chaos.seed);
  EXPECT_EQ(cfg.trace_capacity, defaults.trace_capacity);
}

TEST_F(ConfigEnv, OverridesEveryPerfKnob) {
  ::setenv("APGAS_PLACES", "6", 1);
  ::setenv("APGAS_WORKERS_PER_PLACE", "2", 1);
  ::setenv("APGAS_PLACES_PER_NODE", "7", 1);
  ::setenv("APGAS_CHAOS_SEED", "2048", 1);
  ::setenv("APGAS_TRACE_CAP", "4096", 1);
  const Config cfg = Config::from_env();
  EXPECT_EQ(cfg.places, 6);
  EXPECT_EQ(cfg.workers_per_place, 2);
  EXPECT_EQ(cfg.places_per_node, 7);
  EXPECT_EQ(cfg.chaos.seed, 2048u);
  EXPECT_EQ(cfg.trace_capacity, 4096u);
}

TEST_F(ConfigEnv, AppliesOnTopOfExistingConfig) {
  ::setenv("APGAS_TRACE_CAP", "12", 1);
  Config cfg;
  cfg.places = 3;
  cfg.places_per_node = 5;
  Config::apply_env(cfg);
  EXPECT_EQ(cfg.trace_capacity, 12u);    // overridden
  EXPECT_EQ(cfg.places, 3);              // untouched
  EXPECT_EQ(cfg.places_per_node, 5);
}

// A set-but-malformed variable is a misconfiguration, not a default: the
// parser aborts naming the offending variable rather than silently running
// the whole job with a knob the operator thinks they changed.
using ConfigEnvDeath = ConfigEnv;

TEST_F(ConfigEnvDeath, AbortsOnNonNumeric) {
  ::setenv("APGAS_PLACES_PER_NODE", "not-a-number", 1);
  EXPECT_DEATH({ (void)Config::from_env(); }, "APGAS_PLACES_PER_NODE");
}

TEST_F(ConfigEnvDeath, AbortsOnNegative) {
  ::setenv("APGAS_CHAOS_SEED", "-4", 1);
  EXPECT_DEATH({ (void)Config::from_env(); }, "APGAS_CHAOS_SEED");
}

TEST_F(ConfigEnvDeath, AbortsOnEmpty) {
  ::setenv("APGAS_PLACES", "", 1);
  EXPECT_DEATH({ (void)Config::from_env(); }, "APGAS_PLACES");
}

TEST_F(ConfigEnvDeath, AbortsOnTrailingGarbage) {
  ::setenv("APGAS_WATCHDOG_MS", "12trailing", 1);
  EXPECT_DEATH({ (void)Config::from_env(); }, "APGAS_WATCHDOG_MS");
}

TEST_F(ConfigEnvDeath, AbortsOnOverflow) {
  // Far past INT64_MAX: strtoll sets ERANGE.
  ::setenv("APGAS_CHAOS_SEED", "999999999999999999999999999999", 1);
  EXPECT_DEATH({ (void)Config::from_env(); }, "APGAS_CHAOS_SEED");
}

TEST_F(ConfigEnvDeath, AbortsOnProbabilityOutOfRange) {
  ::setenv("APGAS_CHAOS_DELAY", "1.5", 1);
  EXPECT_DEATH({ (void)Config::from_env(); }, "APGAS_CHAOS_DELAY");
}

TEST_F(ConfigEnvDeath, AbortsOnNonNumericTraceCapacity) {
  ::setenv("APGAS_TRACE_CAP", "abc", 1);
  EXPECT_DEATH({ (void)Config::from_env(); }, "APGAS_TRACE_CAP");
}

}  // namespace

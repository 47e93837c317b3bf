// Multiple workers per place (X10_NTHREADS > 1). The paper's runs use one
// worker per place, but the runtime supports more; these tests exercise the
// work-stealing deques and the remaining locked paths (finish state, remote
// blocks, monitors, team mailboxes) under real intra-place parallelism,
// including a steal-storm stress test and a chaos sweep of all six finish
// protocols at four workers per place. The whole binary carries the `tsan`
// ctest label (see CMakePresets.json) so the lock-free deque is
// TSan-checked in tier-1.
#include "runtime/api.h"
#include "runtime/dist_rail.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"
#include "runtime/team.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

namespace {

using namespace apgas;

Config cfg_w(int places, int workers) {
  Config cfg;
  cfg.places = places;
  cfg.workers_per_place = workers;
  cfg.places_per_node = 4;
  return cfg;
}

class WorkerCounts : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Workers, WorkerCounts, ::testing::Values(2, 4));

TEST_P(WorkerCounts, LocalFinishUnderContention) {
  std::atomic<int> n{0};
  Runtime::run(cfg_w(1, GetParam()), [&] {
    finish([&] {
      for (int i = 0; i < 500; ++i) async([&n] { n.fetch_add(1); });
    });
  });
  EXPECT_EQ(n.load(), 500);
}

TEST_P(WorkerCounts, DistributedFinishUnderContention) {
  std::atomic<int> n{0};
  Runtime::run(cfg_w(3, GetParam()), [&] {
    finish([&] {
      for (int i = 0; i < 300; ++i) {
        asyncAt(i % num_places(), [&n] {
          async([&n] { n.fetch_add(1); });
          n.fetch_add(1);
        });
      }
    });
  });
  EXPECT_EQ(n.load(), 600);
}

TEST_P(WorkerCounts, ConcurrentFinishesFromSiblingWorkers) {
  // Two workers at one place can each be blocked in their own finish wait;
  // both must make progress (each pumps the shared inbox).
  std::atomic<int> n{0};
  Runtime::run(cfg_w(2, GetParam()), [&] {
    finish([&] {
      for (int lane = 0; lane < 4; ++lane) {
        async([&n] {
          finish([&n] {
            asyncAt(1, [&n] { n.fetch_add(1); });
          });
          n.fetch_add(1);
        });
      }
    });
  });
  EXPECT_EQ(n.load(), 8);
}

TEST_P(WorkerCounts, MonitorsSerializeAcrossWorkers) {
  long counter = 0;
  Runtime::run(cfg_w(1, GetParam()), [&] {
    finish([&] {
      for (int i = 0; i < 600; ++i) {
        async([&counter] { atomic_do([&counter] { ++counter; }); });
      }
    });
  });
  EXPECT_EQ(counter, 600);
}

TEST_P(WorkerCounts, RemoteOpsFromParallelWorkers) {
  Config cfg = cfg_w(2, GetParam());
  cfg.congruent_bytes = 4u << 20;
  Runtime::run(cfg, [&] {
    auto& space = Runtime::get().congruent();
    auto cell = space.alloc<std::uint64_t>(1);
    *space.at_place(1, cell) = 0;
    finish([&] {
      for (int i = 0; i < 400; ++i) {
        async([cell] { remote_add(global_rail(cell, 1), 0, 1); });
      }
    });
    EXPECT_EQ(*space.at_place(1, cell), 400u);
  });
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TEST(RemoteAtomics, EveryWorkerOfEveryPlaceMatchesSequentialReplay) {
  // Every worker of every place fires remote XORs and adds at random words
  // of two tables spread over all places — the RandomAccess pattern — while
  // another activity registers new ranges. The RDMA counters must come out
  // exact and each table must equal a sequential replay of the streams
  // (XOR and add each commute, so the order of updates cannot matter).
  constexpr int kPlaces = 4;
  constexpr int kWorkers = 2;
  constexpr std::size_t kWords = 64;
  constexpr int kOps = 2000;
  constexpr int kFreshPerPlace = 2;
  Config cfg = cfg_w(kPlaces, kWorkers);
  cfg.congruent_bytes = 1u << 20;
  Runtime::run(cfg, [&] {
    auto& space = Runtime::get().congruent();
    auto& tr = Runtime::get().transport();
    const auto xors = space.alloc<std::uint64_t>(kWords);
    const auto adds = space.alloc<std::uint64_t>(kWords);
    for (int q = 0; q < kPlaces; ++q) {
      std::fill_n(space.at_place(q, xors), kWords, 0);
      std::fill_n(space.at_place(q, adds), kWords, 0);
    }
    std::vector<std::uint64_t> fresh(kPlaces * kFreshPerPlace, 0);
    std::atomic<int> published{0};
    const std::uint64_t ops0 = tr.rdma_ops();
    const std::uint64_t bytes0 = tr.rdma_bytes();
    finish([&] {
      async([&] {
        for (int i = 0; i < kPlaces * kFreshPerPlace; ++i) {
          tr.register_range(i % kPlaces, &fresh[static_cast<std::size_t>(i)],
                            sizeof(std::uint64_t));
          published.store(i + 1, std::memory_order_release);
        }
      });
      for (int p = 0; p < kPlaces; ++p) {
        for (int w = 0; w < kWorkers; ++w) {
          const auto seed = static_cast<std::uint64_t>(p * kWorkers + w);
          asyncAt(p, [&, seed] {
            const std::uint64_t unregistered = 0;
            std::uint64_t rng = seed;
            for (int i = 0; i < kOps; ++i) {
              const std::uint64_t r = splitmix64(rng);
              const auto dst = static_cast<int>(r % kPlaces);
              const std::size_t word = (r >> 8) % kWords;
              if ((r >> 32) & 1) {
                remote_xor(global_rail(xors, dst), word, r);
              } else {
                remote_add(global_rail(adds, dst), word, r);
              }
              // A miss scans every slot published so far, including one
              // the registering activity may be filling right now.
              EXPECT_FALSE(tr.is_registered(dst, &unregistered,
                                            sizeof(unregistered)));
              // A range whose registration this reader has seen published
              // must be visible to it.
              const int seen = published.load(std::memory_order_acquire);
              if (seen > 0) {
                const int k = i % seen;
                EXPECT_TRUE(tr.is_registered(
                    k % kPlaces, &fresh[static_cast<std::size_t>(k)],
                    sizeof(std::uint64_t)));
              }
            }
          });
        }
      }
    });
    const std::uint64_t total = std::uint64_t{kPlaces} * kWorkers * kOps;
    EXPECT_EQ(tr.rdma_ops() - ops0, total);
    EXPECT_EQ(tr.rdma_bytes() - bytes0, total * sizeof(std::uint64_t));

    std::vector<std::uint64_t> want_xor(kPlaces * kWords, 0);
    std::vector<std::uint64_t> want_add(kPlaces * kWords, 0);
    for (int s = 0; s < kPlaces * kWorkers; ++s) {
      std::uint64_t rng = static_cast<std::uint64_t>(s);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t r = splitmix64(rng);
        const std::size_t slot = (r % kPlaces) * kWords + (r >> 8) % kWords;
        if ((r >> 32) & 1) {
          want_xor[slot] ^= r;
        } else {
          want_add[slot] += r;
        }
      }
    }
    for (int q = 0; q < kPlaces; ++q) {
      const auto off = static_cast<std::size_t>(q) * kWords;
      EXPECT_TRUE(std::equal(want_xor.begin() + off,
                             want_xor.begin() + off + kWords,
                             space.at_place(q, xors)))
          << "XOR table differs at place " << q;
      EXPECT_TRUE(std::equal(want_add.begin() + off,
                             want_add.begin() + off + kWords,
                             space.at_place(q, adds)))
          << "add table differs at place " << q;
    }
  });
}

TEST(StealStorm, SingleProducerManyThieves) {
  // One producer activity spawns 100k tasks into its own deque; the other
  // three workers can only make progress by stealing from its top. Asserts
  // every task ran exactly once and that stealing actually happened (the
  // counter is also how the bench's acceptance criterion is audited).
  constexpr int kTasks = 100000;
  std::atomic<long> ran{0};
  Runtime::run(cfg_w(1, 4), [&] {
    finish([&] {
      async([&ran] {
        for (int i = 0; i < kTasks; ++i) {
          async([&ran] {
            // A little private work so the producer cannot outrun thieves.
            volatile int sink = 0;
            for (int k = 0; k < 16; ++k) sink = sink + k;
            ran.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    });
    EXPECT_EQ(ran.load(), kTasks);
  });
  const auto& m = last_run_metrics();
  EXPECT_EQ(ran.load(), kTasks);
  ASSERT_NE(m.find("sched.p0.steals"), m.end());
  EXPECT_GT(m.at("sched.p0.steals"), 0u);
}

TEST(StealStorm, NestedSpawnsAcrossWorkers) {
  // Recursive fan-out: stolen tasks spawn into the thief's own deque, so
  // every worker is simultaneously producer and victim.
  std::atomic<long> ran{0};
  Runtime::run(cfg_w(1, 4), [&] {
    finish([&] {
      for (int i = 0; i < 64; ++i) {
        async([&ran] {
          for (int j = 0; j < 64; ++j) {
            async([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          }
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  });
  EXPECT_EQ(ran.load(), 64 * 64 + 64);
}

// --- chaos sweep at four workers per place ----------------------------------
// The single-worker sweep lives in test_chaos_sweep.cc; this one re-runs a
// compact workload for each of the six finish protocols with message chaos
// *and* intra-place work stealing active at once.

Config chaos4_cfg(std::uint64_t seed, int places = 4) {
  Config cfg;
  cfg.places = places;
  cfg.workers_per_place = 4;
  cfg.places_per_node = 2;  // dense routing really relays
  cfg.chaos.delay_prob = 0.3;
  cfg.chaos.seed = seed;
  return cfg;
}

constexpr std::uint64_t kChaosSeeds[] = {0x1ULL, 0xdeadbeefULL,
                                         0x9e3779b97f4a7c15ULL};

class ChaosFourWorkers : public ::testing::TestWithParam<Pragma> {};
INSTANTIATE_TEST_SUITE_P(Protocols, ChaosFourWorkers,
                         ::testing::Values(Pragma::kLocal, Pragma::kAsync,
                                           Pragma::kHere, Pragma::kSpmd,
                                           Pragma::kDense, Pragma::kDefault),
                         [](const auto& info) {
                           switch (info.param) {
                             case Pragma::kLocal: return "Local";
                             case Pragma::kAsync: return "Async";
                             case Pragma::kHere: return "Here";
                             case Pragma::kSpmd: return "Spmd";
                             case Pragma::kDense: return "Dense";
                             case Pragma::kDefault: return "Default";
                             default: return "Auto";
                           }
                         });

TEST_P(ChaosFourWorkers, ProtocolSurvivesChaosAndStealing) {
  const Pragma pragma = GetParam();
  for (std::uint64_t seed : kChaosSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::atomic<int> ran{0};
    int expected = 0;
    const Config cfg = chaos4_cfg(seed);
    Runtime::run(cfg, [&] {
      switch (pragma) {
        case Pragma::kLocal:
          finish(Pragma::kLocal, [&] {
            for (int i = 0; i < 64; ++i) async([&ran] { ran.fetch_add(1); });
          });
          expected = 64;
          break;
        case Pragma::kAsync:
          for (int i = 0; i < 8; ++i) {
            finish(Pragma::kAsync, [&] {
              asyncAt(1 + i % 3, [&ran] { ran.fetch_add(1); });
            });
          }
          expected = 8;
          break;
        case Pragma::kHere:
          finish(Pragma::kHere, [&] {
            asyncAt(1, [&ran] {
              ran.fetch_add(1);
              asyncAt(2, [&ran] {
                ran.fetch_add(1);
                asyncAt(0, [&ran] { ran.fetch_add(1); });
              });
            });
          });
          expected = 3;
          break;
        case Pragma::kSpmd:
          finish(Pragma::kSpmd, [&] {
            for (int p = 1; p < num_places(); ++p) {
              asyncAt(p, [&ran] {
                finish(Pragma::kLocal, [&] {
                  for (int i = 0; i < 8; ++i) {
                    async([&ran] { ran.fetch_add(1); });
                  }
                });
              });
            }
          });
          expected = 8 * 3;
          break;
        case Pragma::kDense:
        case Pragma::kDefault:
        default:
          finish(pragma, [&] {
            for (int p = 0; p < num_places(); ++p) {
              asyncAt(p, [&ran] {
                ran.fetch_add(1);
                async([&ran] { ran.fetch_add(1); });
              });
            }
          });
          expected = 2 * 4;
          break;
      }
      ASSERT_EQ(ran.load(), expected);
    });
    // Conservation at teardown must hold under chaos + stealing.
    const auto& m = last_run_metrics();
    EXPECT_EQ(m.at("finish.snapshots.sent"),
              m.at("finish.snapshots.applied") + m.at("finish.snapshots.stale"));
    EXPECT_EQ(m.at("runtime.tasks_shipped"), m.at("sched.msgs.task"));
  }
}

TEST_P(WorkerCounts, RepeatedSplitDerivesStableIds) {
  // Regression (ISSUE 5): Team::split read the parent's op count without the
  // member lock while collectives bump it via next_seq() — and with work
  // stealing, consecutive collectives of one logical rank can run on
  // different worker threads, so the unlocked read had no happens-before
  // edge to the last locked increment. The fix reads the count under the
  // lock *before* the allgather and asserts every member entered the split
  // at the same count. Repeated rounds with live collective traffic between
  // splits give TSan the interleavings to check.
  static constexpr int kPlaces = 4;
  static constexpr int kRounds = 8;
  std::atomic<int> ok{0};
  Runtime::run(cfg_w(kPlaces, GetParam()), [&ok] {
    finish(Pragma::kSpmd, [&ok] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&ok] {
          Team world = Team::world();
          for (int r = 0; r < kRounds; ++r) {
            world.barrier();  // bumps op_seq right before split reads it
            Team half = world.split(world.rank() % 2, world.rank());
            double v = 1.0;
            half.allreduce(&v, 1, ReduceOp::kSum);
            if (static_cast<int>(v) == half.size()) ok.fetch_add(1);
            world.barrier();
          }
        });
      }
    });
  });
  EXPECT_EQ(ok.load(), kPlaces * kRounds);
}

TEST_P(WorkerCounts, HierarchicalCollectivesStressWithRepeatedSplit) {
  // TSan stress for the native protocol (the test keeps the name it had
  // when it stressed the leader-tree mode): barrier/bcast/allreduce back to
  // back at multiple workers per place. Work stealing means consecutive
  // collectives of one logical rank run on different worker threads, so the
  // epochs in each member's slot and the published buffers get real
  // cross-thread interleavings; repeated split gives the child team fresh
  // slots every round and runs collectives on it at once.
  static constexpr int kPlaces = 6;
  static constexpr int kRounds = 6;
  std::atomic<int> ok{0};
  Runtime::run(cfg_w(kPlaces, GetParam()), [&ok] {
    finish(Pragma::kSpmd, [&ok] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&ok] {
          Team world = Team::world(TeamMode::kNative);
          for (int r = 0; r < kRounds; ++r) {
            bool good = true;
            world.barrier();
            const int root = r % world.size();
            std::vector<double> buf(200,
                                    world.rank() == root ? r + 0.5 : 0.0);
            world.bcast(root, buf.data(), buf.size());
            for (double v : buf) good = good && v == r + 0.5;
            long acc = world.rank() + r;
            world.allreduce(&acc, 1, ReduceOp::kSum);
            good = good && acc == 15 + static_cast<long>(kPlaces) * r;
            // Split into halves; the child must run collectives at once.
            Team half = world.split(world.rank() % 2, world.rank());
            good = good && half.mode() == TeamMode::kNative;
            std::vector<long> sub(40, half.rank());
            half.allreduce(sub.data(), sub.size(), ReduceOp::kSum);
            const long want =
                static_cast<long>(half.size()) * (half.size() - 1) / 2;
            for (long v : sub) good = good && v == want;
            world.barrier();
            if (good) ok.fetch_add(1);
          }
        });
      }
    });
  });
  EXPECT_EQ(ok.load(), kPlaces * kRounds);
}

TEST_P(WorkerCounts, BlockingAtFromSiblingWorkers) {
  std::atomic<long> sum{0};
  Runtime::run(cfg_w(3, GetParam()), [&] {
    finish([&] {
      for (int i = 0; i < 30; ++i) {
        async([&sum, i] {
          sum.fetch_add(at((i % 2) + 1, [] { return here(); }));
        });
      }
    });
  });
  EXPECT_EQ(sum.load(), 15 * 1 + 15 * 2);
}

}  // namespace

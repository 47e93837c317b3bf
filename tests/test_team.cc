// Team collectives under the emulated (point-to-point) and native
// (shared-memory "hardware") paths — the paper §3.3 split plus
// docs/collectives.md.
#include "runtime/team.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

namespace {

using namespace apgas;

Config cfg_n(int places) {
  Config cfg;
  cfg.places = places;
  return cfg;
}

class TeamModes : public ::testing::TestWithParam<TeamMode> {};

INSTANTIATE_TEST_SUITE_P(AllModes, TeamModes,
                         ::testing::Values(TeamMode::kEmulated,
                                           TeamMode::kNative),
                         [](const auto& info) {
                           return info.param == TeamMode::kNative
                                      ? "Native"
                                      : "Emulated";
                         });

TEST_P(TeamModes, BarrierSynchronizesAllPlaces) {
  const TeamMode mode = GetParam();
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  Runtime::run(cfg_n(6), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&, mode] {
          Team t = Team::world(mode);
          before.fetch_add(1);
          t.barrier();
          if (before.load() != num_places()) violated.store(true);
          t.barrier();
        });
      }
    });
  });
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(before.load(), 6);
}

TEST_P(TeamModes, BroadcastFromEveryRoot) {
  const TeamMode mode = GetParam();
  Runtime::run(cfg_n(5), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [mode] {
          Team t = Team::world(mode);
          for (int root = 0; root < t.size(); ++root) {
            std::vector<double> buf(8, t.rank() == root ? root * 1.5 : -1.0);
            t.bcast(root, buf.data(), buf.size());
            for (double v : buf) EXPECT_DOUBLE_EQ(v, root * 1.5);
          }
        });
      }
    });
  });
}

TEST_P(TeamModes, AllreduceSumMinMax) {
  const TeamMode mode = GetParam();
  Runtime::run(cfg_n(7), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [mode] {
          Team t = Team::world(mode);
          const int n = t.size();
          const int r = t.rank();

          std::vector<long> sum{static_cast<long>(r), 10};
          t.allreduce(sum.data(), 2, ReduceOp::kSum);
          EXPECT_EQ(sum[0], static_cast<long>(n) * (n - 1) / 2);
          EXPECT_EQ(sum[1], 10L * n);

          double mn = 100.0 - r;
          t.allreduce(&mn, 1, ReduceOp::kMin);
          EXPECT_DOUBLE_EQ(mn, 100.0 - (n - 1));

          double mx = static_cast<double>(r);
          t.allreduce(&mx, 1, ReduceOp::kMax);
          EXPECT_DOUBLE_EQ(mx, static_cast<double>(n - 1));
        });
      }
    });
  });
}

TEST_P(TeamModes, AlltoallPermutesBlocks) {
  const TeamMode mode = GetParam();
  Runtime::run(cfg_n(4), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [mode] {
          Team t = Team::world(mode);
          const int n = t.size();
          constexpr std::size_t kBlock = 3;
          std::vector<int> send(kBlock * n);
          for (int d = 0; d < n; ++d) {
            for (std::size_t i = 0; i < kBlock; ++i) {
              send[d * kBlock + i] = t.rank() * 1000 + d * 10 + static_cast<int>(i);
            }
          }
          std::vector<int> recv(kBlock * n, -1);
          t.alltoall(send.data(), recv.data(), kBlock);
          for (int s = 0; s < n; ++s) {
            for (std::size_t i = 0; i < kBlock; ++i) {
              EXPECT_EQ(recv[s * kBlock + i],
                        s * 1000 + t.rank() * 10 + static_cast<int>(i));
            }
          }
        });
      }
    });
  });
}

TEST_P(TeamModes, AllgatherCollectsRankData) {
  const TeamMode mode = GetParam();
  Runtime::run(cfg_n(6), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [mode] {
          Team t = Team::world(mode);
          const int mine = t.rank() * 7;
          std::vector<int> all(static_cast<std::size_t>(t.size()), -1);
          t.allgather(&mine, all.data(), 1);
          for (int r = 0; r < t.size(); ++r) EXPECT_EQ(all[r], r * 7);
        });
      }
    });
  });
}

TEST_P(TeamModes, RepeatedCollectivesStaySequenced) {
  const TeamMode mode = GetParam();
  Runtime::run(cfg_n(4), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [mode] {
          Team t = Team::world(mode);
          for (int iter = 0; iter < 20; ++iter) {
            long v = iter + t.rank();
            t.allreduce(&v, 1, ReduceOp::kSum);
            const long expect =
                static_cast<long>(t.size()) * iter +
                static_cast<long>(t.size()) * (t.size() - 1) / 2;
            ASSERT_EQ(v, expect) << "iteration " << iter;
          }
        });
      }
    });
  });
}

TEST(Team, SplitByColor) {
  Runtime::run(cfg_n(6), [&] {
    std::atomic<int> even_sum{0};
    std::atomic<int> odd_sum{0};
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&] {
          Team world = Team::world();
          const int color = world.rank() % 2;
          Team sub = world.split(color, world.rank());
          EXPECT_EQ(sub.size(), 3);
          // Ranks within the sub-team are ordered by key.
          long v = 1;
          sub.allreduce(&v, 1, ReduceOp::kSum);
          EXPECT_EQ(v, 3);
          (color == 0 ? even_sum : odd_sum).fetch_add(sub.rank());
        });
      }
    });
    EXPECT_EQ(even_sum.load(), 0 + 1 + 2);
    EXPECT_EQ(odd_sum.load(), 0 + 1 + 2);
  });
}

TEST(Team, RowColumnSplitLikeHpl) {
  // The 2D process-grid sub-teams HPL needs (row and column broadcasts).
  Runtime::run(cfg_n(4), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [] {
          Team world = Team::world();
          const int r = world.rank();
          const int row = r / 2;
          const int col = r % 2;
          Team row_team = world.split(row, col);
          Team col_team = world.split(100 + col, row);
          EXPECT_EQ(row_team.size(), 2);
          EXPECT_EQ(col_team.size(), 2);
          double v = r == 0 ? 42.0 : 0.0;
          // Broadcast along row 0 then column teams: all places end with 42.
          if (row == 0) row_team.bcast(0, &v, 1);
          col_team.bcast(0, &v, 1);
          EXPECT_DOUBLE_EQ(v, 42.0);
        });
      }
    });
  });
}

TEST(Team, NativeReduceFoldsInFixedOrder) {
  // Sums of these contributions depend on the association: folded in rank
  // order, ((1e16 + 1) - 1e16) + 1 == 1 (the first + 1 rounds away), while
  // the emulated binomial tree computes (1e16 + 1) + (-1e16 + 1) == 0. The
  // native fold order (root, root+1, ... wrapping) is documented, so every
  // repeat must give its bits whatever order the peers arrive in.
  static constexpr double kIn[] = {1e16, 1.0, -1e16, 1.0};
  auto fold_from = [](int root) {
    double acc = kIn[root];
    for (int k = 1; k < 4; ++k) acc += kIn[(root + k) % 4];
    return acc;
  };
  const double want0 = fold_from(0);
  const double want2 = fold_from(2);
  ASSERT_EQ(want0, 1.0);
  ASSERT_EQ(want2, 1.0);  // ((-1e16 + 1) + 1e16) + 1: the first + 1 rounds away
  std::atomic<int> mismatches{0};
  Runtime::run(cfg_n(4), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&] {
          Team t = Team::world(TeamMode::kNative);
          const double mine = kIn[t.rank()];
          for (int rep = 0; rep < 50; ++rep) {
            double v = mine;
            t.allreduce(&v, 1, ReduceOp::kSum);
            if (std::memcmp(&v, &want0, sizeof v) != 0) mismatches.fetch_add(1);
            double r0 = mine;
            t.reduce(0, &r0, 1, ReduceOp::kSum);
            if (t.rank() == 0 && std::memcmp(&r0, &want0, sizeof r0) != 0) {
              mismatches.fetch_add(1);
            }
            double r2 = mine;
            t.reduce(2, &r2, 1, ReduceOp::kSum);
            if (t.rank() == 2 && std::memcmp(&r2, &want2, sizeof r2) != 0) {
              mismatches.fetch_add(1);
            }
          }
        });
      }
    });
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Team, NativeBackToBackMixedOpsWithRotatingRoots) {
  // Every op kind back to back with the root moving every round: a member
  // republishes its slot while slower peers may still be in the previous
  // op, so a reader that latched a stale buffer would see a wrong value.
  Runtime::run(cfg_n(5), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [] {
          Team t = Team::world(TeamMode::kNative);
          const int n = t.size();
          const int me = t.rank();
          for (int iter = 0; iter < 25; ++iter) {
            const int root = iter % n;
            std::vector<long> buf(33, me == root ? iter : -1);
            t.bcast(root, buf.data(), buf.size());
            for (long v : buf) ASSERT_EQ(v, iter);
            std::vector<long> blocks(static_cast<std::size_t>(n) * 2);
            for (std::size_t i = 0; i < blocks.size(); ++i) {
              blocks[i] = iter * 100 + static_cast<long>(i);
            }
            long got[2] = {-1, -1};
            t.scatter(root, blocks.data(), got, 2);
            ASSERT_EQ(got[0], iter * 100 + 2 * me);
            ASSERT_EQ(got[1], iter * 100 + 2 * me + 1);
            std::vector<long> all(static_cast<std::size_t>(n) * 2, -1);
            t.gather(root, got, me == root ? all.data() : nullptr, 2);
            if (me == root) {
              ASSERT_EQ(all, blocks);
            }
            t.barrier();
            long v = iter + me;
            t.reduce(root, &v, 1, ReduceOp::kMax);
            if (me == root) {
              ASSERT_EQ(v, iter + n - 1);
            }
            long s = iter + me;
            t.allreduce(&s, 1, ReduceOp::kSum);
            ASSERT_EQ(s, static_cast<long>(n) * iter + n * (n - 1) / 2);
          }
        });
      }
    });
  });
}

TEST(Team, NativeSplitAndLargePayloads) {
  // A split-derived team keeps kNative and gets slots of its own; payloads
  // far past one cache block move single-copy from a non-zero root.
  Runtime::run(cfg_n(6), [&] {
    finish(Pragma::kSpmd, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [] {
          Team world = Team::world(TeamMode::kNative);
          Team sub = world.split(world.rank() % 2, world.rank());
          EXPECT_EQ(sub.mode(), TeamMode::kNative);
          ASSERT_EQ(sub.size(), 3);
          const std::size_t n = 10'000;  // 80 KB
          std::vector<double> buf(n);
          for (std::size_t i = 0; i < n; ++i) {
            buf[i] = sub.rank() == 2 ? static_cast<double>(i) : -1.0;
          }
          sub.bcast(2, buf.data(), n);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(buf[i], static_cast<double>(i));
          }
          std::vector<long> acc(1001, world.rank());
          world.allreduce(acc.data(), acc.size(), ReduceOp::kSum);
          for (long v : acc) ASSERT_EQ(v, 15);  // 0+1+...+5
          std::vector<long> part(1001, sub.rank());
          sub.allreduce(part.data(), part.size(), ReduceOp::kSum);
          for (long v : part) ASSERT_EQ(v, 3);  // 0+1+2
        });
      }
    });
  });
}

TEST(Team, EmulatedUsesMessagesNativeDoesNot) {
  std::uint64_t emulated_msgs = 0;
  std::uint64_t native_msgs = 0;
  for (TeamMode mode : {TeamMode::kEmulated, TeamMode::kNative}) {
    Runtime::run(cfg_n(6), [&] {
      auto& tr = Runtime::get().transport();
      finish(Pragma::kSpmd, [&] {
        for (int p = 0; p < num_places(); ++p) {
          asyncAt(p, [mode] {
            Team t = Team::world(mode);
            t.barrier();
            double v = 1.0;
            t.allreduce(&v, 1, ReduceOp::kSum);
          });
        }
      });
      const auto count = tr.count(x10rt::MsgType::kCollective);
      (mode == TeamMode::kEmulated ? emulated_msgs : native_msgs) = count;
    });
  }
  EXPECT_GT(emulated_msgs, 0u);
  EXPECT_EQ(native_msgs, 0u);  // the "hardware" path bypasses the fifo
}

}  // namespace

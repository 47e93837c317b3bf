// Hardening: failure injection (exceptions from every spawn context),
// transport determinism and scale edges, scheduler reentrancy limits, and
// misuse guards the runtime promises to catch.
#include "runtime/api.h"
#include "runtime/dist_rail.h"
#include "runtime/monitor.h"
#include "runtime/place_group.h"
#include "runtime/team.h"
#include "x10rt/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

namespace {

using namespace apgas;

Config cfg_n(int places, double chaos = 0.0) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = 4;
  cfg.chaos.delay_prob = chaos;
  return cfg;
}

// --- exception propagation from every context -----------------------------------

TEST(Hardening, ExceptionFromNestedRemoteActivity) {
  bool caught = false;
  Runtime::run(cfg_n(4), [&] {
    try {
      finish([&] {
        asyncAt(1, [] {
          asyncAt(2, [] {
            asyncAt(3, [] { throw std::runtime_error("deep"); });
          });
        });
      });
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "deep";
    }
  });
  EXPECT_TRUE(caught);
}

TEST(Hardening, SiblingsCompleteWhenOneThrows) {
  // finish waits for ALL activities even when one throws (X10 semantics).
  std::atomic<int> completed{0};
  bool caught = false;
  Runtime::run(cfg_n(3), [&] {
    try {
      finish([&] {
        for (int p = 0; p < num_places(); ++p) {
          asyncAt(p, [&completed] { completed.fetch_add(1); });
        }
        asyncAt(1, [] { throw std::logic_error("one bad apple"); });
      });
    } catch (const std::logic_error&) {
      caught = true;
    }
  });
  EXPECT_TRUE(caught);
  EXPECT_EQ(completed.load(), 3);
}

TEST(Hardening, BodyExceptionStillWaitsForChildren) {
  std::atomic<bool> child_ran{false};
  bool caught = false;
  Runtime::run(cfg_n(2), [&] {
    try {
      finish([&] {
        asyncAt(1, [&child_ran] { child_ran.store(true); });
        throw std::runtime_error("body threw");
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
  });
  EXPECT_TRUE(caught);
  EXPECT_TRUE(child_ran.load()) << "finish must quiesce before rethrowing";
}

TEST(Hardening, ExceptionUnderEveryProtocol) {
  for (Pragma pragma :
       {Pragma::kAsync, Pragma::kSpmd, Pragma::kDefault, Pragma::kDense}) {
    bool caught = false;
    Runtime::run(cfg_n(3), [&] {
      try {
        finish(pragma, [&] {
          asyncAt(2, [] { throw std::runtime_error("proto"); });
        });
      } catch (const std::runtime_error&) {
        caught = true;
      }
    });
    EXPECT_TRUE(caught) << "pragma " << static_cast<int>(pragma);
  }
}

TEST(Hardening, ExceptionUnderHereProtocolChains) {
  bool caught = false;
  Runtime::run(cfg_n(3), [&] {
    const int h = here();
    try {
      finish(Pragma::kHere, [&] {
        asyncAt(1, [h] {
          asyncAt(h, [] { throw std::runtime_error("on the way home"); });
        });
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
  });
  EXPECT_TRUE(caught);
}

TEST(Hardening, ExceptionsWithChaosStillDeliver) {
  bool caught = false;
  std::atomic<int> survivors{0};
  Runtime::run(cfg_n(5, 0.4), [&] {
    try {
      finish([&] {
        for (int p = 0; p < num_places(); ++p) {
          asyncAt(p, [&survivors, p] {
            if (p == 3) throw std::runtime_error("chaotic");
            survivors.fetch_add(1);
          });
        }
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
  });
  EXPECT_TRUE(caught);
  EXPECT_EQ(survivors.load(), 4);
}

// --- transport determinism and edges ---------------------------------------------

TEST(Hardening, ChaosIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    x10rt::TransportConfig cfg;
    cfg.places = 2;
    cfg.chaos.delay_prob = 0.6;
    cfg.chaos.seed = seed;
    x10rt::Transport tr(cfg);
    std::vector<int> order;
    const int h = tr.register_am(
        [&order](x10rt::ByteBuffer& buf) { order.push_back(buf.get<int>()); });
    for (int i = 0; i < 50; ++i) {
      x10rt::ByteBuffer payload;
      payload.put(i);
      x10rt::Message m;
      m.src = 0;
      m.handler = h;
      m.payload = payload.take_data();
      tr.send(1, std::move(m));
    }
    while (order.size() < 50) {
      if (auto m = tr.poll(1)) tr.dispatch(*m);
    }
    return order;
  };
  EXPECT_EQ(run_once(7), run_once(7)) << "same seed, same delivery order";
  EXPECT_NE(run_once(7), run_once(8)) << "different seed, different order";
}

TEST(Hardening, SixtyFourPlacesQuiesce) {
  std::atomic<int> n{0};
  Config cfg = cfg_n(64);
  cfg.places_per_node = 8;
  Runtime::run(cfg, [&] {
    finish(Pragma::kDense, [&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&n] { n.fetch_add(1); });
      }
    });
  });
  EXPECT_EQ(n.load(), 64);
}

TEST(Hardening, ZeroByteAndHugeCopies) {
  Config cfg = cfg_n(2);
  cfg.congruent_bytes = 64u << 20;
  Runtime::run(cfg, [&] {
    auto& space = Runtime::get().congruent();
    auto arr = space.alloc<std::uint64_t>(4u << 20 >> 3);
    auto* src = space.at_place(0, arr);
    const std::size_t n = arr.count;
    for (std::size_t i = 0; i < n; ++i) src[i] = i;
    finish([&] {
      async_copy(src, global_rail(arr, 1), 0, n);  // 4 MiB in one put
    });
    EXPECT_EQ(space.at_place(1, arr)[n - 1], n - 1);
  });
}

// --- scheduler reentrancy ---------------------------------------------------------

TEST(Hardening, BlockingAtInsideBlockingAt) {
  Runtime::run(cfg_n(3), [&] {
    const int v = at(1, [] {
      return at(2, [] {
        return at(0, [] { return 7; });
      });
    });
    EXPECT_EQ(v, 7);
  });
}

TEST(Hardening, MutualBlockingAtsDoNotDeadlock) {
  // Both places simultaneously evaluate at() targeting each other; the
  // cooperative scheduler must service the peer's request while waiting.
  std::atomic<int> sum{0};
  Runtime::run(cfg_n(2), [&] {
    finish([&] {
      asyncAt(0, [&sum] { sum.fetch_add(at(1, [] { return 10; })); });
      asyncAt(1, [&sum] { sum.fetch_add(at(0, [] { return 3; })); });
    });
  });
  EXPECT_EQ(sum.load(), 13);
}

TEST(Hardening, CollectiveWhileFinishTrafficFlows) {
  // Teams and finish protocols share the scheduler; interleave both.
  Runtime::run(cfg_n(4), [&] {
    std::atomic<int> n{0};
    finish([&] {
      // Background task storm.
      for (int i = 0; i < 200; ++i) {
        asyncAt(i % num_places(), [&n] { n.fetch_add(1); });
      }
      // Simultaneously, a full SPMD collective round.
      finish(Pragma::kSpmd, [&] {
        for (int p = 0; p < num_places(); ++p) {
          asyncAt(p, [] {
            Team t = Team::world();
            long v = 1;
            t.allreduce(&v, 1, ReduceOp::kSum);
            EXPECT_EQ(v, t.size());
          });
        }
      });
    });
    EXPECT_EQ(n.load(), 200);
  });
}

// --- monitor edge cases -------------------------------------------------------------

TEST(Hardening, WhenConditionSeesOnlyAtomicWrites) {
  // The condition is evaluated under the place lock, so it can never
  // observe a torn multi-field update made inside atomic_do.
  Runtime::run(cfg_n(1), [&] {
    struct Pair {
      int a = 0;
      int b = 0;
    } pair;
    bool consistent = true;
    finish([&] {
      async([&] {
        for (int i = 1; i <= 50; ++i) {
          atomic_do([&, i] {
            pair.a = i;
            pair.b = i;
          });
        }
      });
      async([&] {
        when([&] { return pair.a >= 50; },
             [&] { consistent = pair.a == pair.b; });
      });
    });
    EXPECT_TRUE(consistent);
  });
}

TEST(Hardening, AtomicDoFromRemoteActivities) {
  Runtime::run(cfg_n(4), [&] {
    int counter = 0;
    GlobalRef<int> ref(&counter);
    finish([&] {
      for (int i = 0; i < 100; ++i) {
        asyncAt(i % num_places(), [ref] {
          asyncAt(ref.home(), [ref] { atomic_do([&] { ++*ref; }); });
        });
      }
    });
    EXPECT_EQ(counter, 100);
  });
}

}  // namespace

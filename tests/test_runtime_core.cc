#include "runtime/api.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <vector>

namespace {

using namespace apgas;

Config small_cfg(int places) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = 4;
  return cfg;
}

TEST(RuntimeCore, MainRunsAtPlaceZero) {
  int seen_place = -1;
  int seen_places = 0;
  Runtime::run(small_cfg(3), [&] {
    seen_place = here();
    seen_places = num_places();
  });
  EXPECT_EQ(seen_place, 0);
  EXPECT_EQ(seen_places, 3);
}

TEST(RuntimeCore, LocalAsyncsCompleteUnderFinish) {
  std::atomic<int> count{0};
  Runtime::run(small_cfg(1), [&] {
    finish([&] {
      for (int i = 0; i < 100; ++i) {
        async([&count] { count.fetch_add(1); });
      }
    });
    EXPECT_EQ(count.load(), 100);
  });
}

TEST(RuntimeCore, FibonacciRecursiveParallelDecomposition) {
  // The paper's §2.2 fib example: nested finish/async.
  std::function<int(int)> fib = [&fib](int n) -> int {
    if (n < 2) return n;
    int f1 = 0;
    int f2 = 0;
    finish([&] {
      async([&f1, n, &fib] { f1 = fib(n - 1); });
      f2 = fib(n - 2);
    });
    return f1 + f2;
  };
  int result = 0;
  Runtime::run(small_cfg(1), [&] { result = fib(12); });
  EXPECT_EQ(result, 144);
}

TEST(RuntimeCore, AsyncAtRunsAtTargetPlace) {
  std::atomic<int> sum{0};
  Runtime::run(small_cfg(4), [&] {
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&sum] { sum.fetch_add(here() + 1); });
      }
    });
  });
  EXPECT_EQ(sum.load(), 1 + 2 + 3 + 4);
}

TEST(RuntimeCore, StartupIdiom) {
  // §2.2: one activity per place for startup, finish ensures completion.
  std::vector<int> initialized;
  std::mutex mu;
  Runtime::run(small_cfg(6), [&] {
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&] {
          std::scoped_lock lock(mu);
          initialized.push_back(here());
        });
      }
    });
    EXPECT_EQ(initialized.size(), 6u);
  });
  std::sort(initialized.begin(), initialized.end());
  EXPECT_EQ(initialized, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(RuntimeCore, BlockingAtReturnsValue) {
  Runtime::run(small_cfg(3), [&] {
    const int v = at(2, [] { return here() * 10; });
    EXPECT_EQ(v, 20);
    const std::string s = at(1, [] { return std::string("from 1"); });
    EXPECT_EQ(s, "from 1");
  });
}

TEST(RuntimeCore, BlockingAtVoidForm) {
  std::atomic<int> touched{-1};
  Runtime::run(small_cfg(2), [&] {
    at(1, [&touched] { touched.store(here()); });
    EXPECT_EQ(touched.load(), 1);
  });
}

TEST(RuntimeCore, BlockingAtSamePlaceRunsInline) {
  Runtime::run(small_cfg(2), [&] {
    EXPECT_EQ(at(0, [] { return 7; }), 7);
  });
}

TEST(RuntimeCore, NestedRemoteSpawnsTrackedTransitively) {
  // finish must observe activities spawned by remote activities (the general
  // distributed termination-detection case).
  std::atomic<int> count{0};
  Runtime::run(small_cfg(4), [&] {
    finish([&] {
      asyncAt(1, [&count] {
        count.fetch_add(1);
        asyncAt(2, [&count] {
          count.fetch_add(1);
          asyncAt(3, [&count] {
            count.fetch_add(1);
            asyncAt(0, [&count] { count.fetch_add(1); });
          });
        });
      });
    });
    EXPECT_EQ(count.load(), 4);
  });
}

TEST(RuntimeCore, FanOutFanInAcrossPlaces) {
  std::atomic<long> total{0};
  Runtime::run(small_cfg(4), [&] {
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&total] {
          for (int i = 0; i < 10; ++i) {
            async([&total] { total.fetch_add(1); });
          }
        });
      }
    });
    EXPECT_EQ(total.load(), 40);
  });
}

TEST(RuntimeCore, GlobalRefDereferencesAtHome) {
  Runtime::run(small_cfg(2), [&] {
    double acc = 0.0;
    GlobalRef<double> ref(&acc);
    EXPECT_EQ(ref.home(), 0);
    // The §2.2 average-load idiom: remote places send updates home.
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [ref] {
          const double load = 1.5;
          asyncAt(ref.home(), [ref, load] { *ref += load; });
        });
      }
    });
    EXPECT_DOUBLE_EQ(acc, 3.0);
  });
}

TEST(RuntimeCore, PlaceLocalIsolatesPerPlaceState) {
  Runtime::run(small_cfg(4), [&] {
    PlaceLocal<int> counter;
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&counter] { counter.init_here(here() * 100); });
      }
    });
    finish([&] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAt(p, [&counter, p] { EXPECT_EQ(counter.local(), p * 100); });
      }
    });
  });
}

TEST(RuntimeCore, ExceptionsFromLocalAsyncPropagate) {
  bool caught = false;
  Runtime::run(small_cfg(1), [&] {
    try {
      finish([&] {
        async([] { throw std::runtime_error("boom"); });
      });
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  });
  EXPECT_TRUE(caught);
}

TEST(RuntimeCore, ExceptionsFromRemoteAsyncPropagate) {
  bool caught = false;
  Runtime::run(small_cfg(3), [&] {
    try {
      finish([&] {
        asyncAt(2, [] { throw std::logic_error("remote boom"); });
      });
    } catch (const std::logic_error&) {
      caught = true;
    }
  });
  EXPECT_TRUE(caught);
}

TEST(RuntimeCore, ExceptionsFromBlockingAtPropagate) {
  bool caught = false;
  Runtime::run(small_cfg(2), [&] {
    try {
      (void)at(1, []() -> int { throw std::runtime_error("eval boom"); });
    } catch (const std::runtime_error&) {
      caught = true;
    }
  });
  EXPECT_TRUE(caught);
}

TEST(RuntimeCore, SequentialFinishesReusePlaces) {
  // Many back-to-back finishes exercise registration/release.
  std::atomic<int> total{0};
  Runtime::run(small_cfg(3), [&] {
    for (int round = 0; round < 50; ++round) {
      finish([&] {
        for (int p = 0; p < num_places(); ++p) {
          asyncAt(p, [&total] { total.fetch_add(1); });
        }
      });
    }
    EXPECT_EQ(total.load(), 150);
  });
}

TEST(RuntimeCore, CongruentAllocationIsSymmetric) {
  Runtime::run(small_cfg(3), [&] {
    auto& space = Runtime::get().congruent();
    auto a = space.alloc<double>(128);
    auto b = space.alloc<double>(64);
    EXPECT_NE(a.offset, b.offset);
    // Same offset valid at every place; arenas registered with transport.
    for (int p = 0; p < num_places(); ++p) {
      double* addr = space.at_place(p, a);
      EXPECT_TRUE(Runtime::get().transport().is_registered(p, addr,
                                                           a.bytes()));
    }
  });
}

TEST(RuntimeCore, CongruentTlbAccountingPrefersLargePages) {
  Config cfg = small_cfg(1);
  cfg.congruent_bytes = 32u << 20;
  cfg.congruent_large_pages = false;
  std::size_t small_entries = 0;
  Runtime::run(cfg, [&] {
    auto& space = Runtime::get().congruent();
    space.alloc<std::byte>(20u << 20);
    small_entries = space.tlb_entries();
  });
  cfg.congruent_large_pages = true;
  std::size_t large_entries = 0;
  Runtime::run(cfg, [&] {
    auto& space = Runtime::get().congruent();
    space.alloc<std::byte>(20u << 20);
    large_entries = space.tlb_entries();
  });
  EXPECT_GT(small_entries, 1000u);
  EXPECT_LE(large_entries, 2u);
}

TEST(RuntimeCore, MultipleWorkersPerPlace) {
  Config cfg = small_cfg(2);
  cfg.workers_per_place = 3;
  std::atomic<int> count{0};
  Runtime::run(cfg, [&] {
    finish([&] {
      for (int i = 0; i < 60; ++i) {
        asyncAt(i % num_places(), [&count] { count.fetch_add(1); });
      }
    });
  });
  EXPECT_EQ(count.load(), 60);
}

TEST(RuntimeCore, RunUntilNeverCallsASatisfiedPredicateAgain) {
  // A predicate may consume what it waits for (Team::recv_bytes takes its
  // mail), so run_until must return on the call that saw it true: a second
  // call would find nothing and wait forever. The sweep moves the first true
  // call across the spin rounds and into the park path.
  Runtime::run(small_cfg(1), [] {
    for (int n = 1; n <= 64; ++n) {
      int calls = 0;
      int calls_after_true = 0;
      Runtime::get().sched(here()).run_until([&] {
        if (calls >= n) {
          ++calls_after_true;
          return true;
        }
        return ++calls == n;
      });
      EXPECT_EQ(calls_after_true, 0) << "first true on call " << n;
    }
  });
}

TEST(RuntimeCore, BackToBackRuntimes) {
  for (int i = 0; i < 3; ++i) {
    std::atomic<int> n{0};
    Runtime::run(small_cfg(2), [&] {
      finish([&] { asyncAt(1, [&n] { n.fetch_add(1); }); });
    });
    EXPECT_EQ(n.load(), 1);
  }
}

}  // namespace

// Wire-serializable remote tasks (ISSUE 10): the Ser<T> trait, the typed
// RemoteFn/RemoteGet/asyncAtArgs/atArgs wrappers, the wire exception codec,
// the local/wire frame-argument parity contract (satellite b), and the
// pre-bookkeeping closure-boundary abort (satellite a).
#include "runtime/api.h"
#include "runtime/metrics.h"
#include "runtime/task_registry.h"
#include "x10rt/serialization.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace {

using namespace apgas;

// --- Ser<T> trait round-trips ------------------------------------------------

TEST(SerTrait, TriviallyCopyableFastPath) {
  x10rt::ByteBuffer b;
  struct Pod {
    int a;
    double d;
  };
  x10rt::ser_put(b, 42, 3.5, Pod{7, 2.25});
  EXPECT_EQ(x10rt::ser_get<int>(b), 42);
  EXPECT_EQ(x10rt::ser_get<double>(b), 3.5);
  const Pod p = x10rt::ser_get<Pod>(b);
  EXPECT_EQ(p.a, 7);
  EXPECT_EQ(p.d, 2.25);
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(SerTrait, StringsAndVectors) {
  x10rt::ByteBuffer b;
  const std::string s = "finish/async";
  const std::vector<int> v{1, 2, 3, 5, 8};
  x10rt::ser_put(b, s, v);
  EXPECT_EQ(x10rt::ser_get<std::string>(b), s);
  EXPECT_EQ(x10rt::ser_get<std::vector<int>>(b), v);
}

TEST(SerTrait, NestedComposites) {
  // Non-trivially-copyable elements recurse through the trait: vectors of
  // strings, vectors of pairs, tuples mixing all of it.
  x10rt::ByteBuffer b;
  const std::vector<std::string> names{"glb", "team", "at"};
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges{
      {0, 10}, {20, 30}};
  const std::tuple<int, std::string, std::vector<int>> t{
      -5, "nested", {9, 8, 7}};
  x10rt::ser_put(b, names, ranges, t);
  EXPECT_EQ(x10rt::ser_get<std::vector<std::string>>(b), names);
  const auto r =
      x10rt::ser_get<std::vector<std::pair<std::uint64_t, std::uint64_t>>>(b);
  EXPECT_EQ(r, ranges);
  const auto got = x10rt::ser_get<std::remove_const_t<decltype(t)>>(b);
  EXPECT_EQ(got, t);
  EXPECT_EQ(b.remaining(), 0u);
}

struct Hooked {
  int x = 0;
  std::string tag;
  void ser_put(x10rt::ByteBuffer& b) const {
    b.put(x);
    b.put_string(tag);
  }
  static Hooked ser_get(x10rt::ByteBuffer& b) {
    Hooked h;
    h.x = b.get<int>();
    h.tag = b.get_string();
    return h;
  }
};

TEST(SerTrait, UserHooksAndComposition) {
  x10rt::ByteBuffer b;
  const std::vector<Hooked> hs{{1, "one"}, {2, "two"}};
  x10rt::Ser<std::vector<Hooked>>::put(b, hs);
  const auto got = x10rt::Ser<std::vector<Hooked>>::get(b);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].x, 2);
  EXPECT_EQ(got[1].tag, "two");
}

// --- wire exception codec (FrameCodec family; runtime.h free functions) -----

std::exception_ptr roundtrip(std::exception_ptr ep) {
  x10rt::ByteBuffer b;
  wire_encode_exception(b, ep);
  return wire_decode_exception(b);
}

TEST(FrameCodecException, StandardTypesSurviveTheWire) {
  EXPECT_THROW(
      std::rethrow_exception(roundtrip(
          std::make_exception_ptr(std::invalid_argument("bad arg")))),
      std::invalid_argument);
  EXPECT_THROW(std::rethrow_exception(roundtrip(
                   std::make_exception_ptr(std::out_of_range("oops")))),
               std::out_of_range);
  EXPECT_THROW(std::rethrow_exception(
                   roundtrip(std::make_exception_ptr(std::bad_alloc()))),
               std::bad_alloc);
  try {
    std::rethrow_exception(roundtrip(
        std::make_exception_ptr(std::runtime_error("place 2 exploded"))));
    FAIL() << "did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "place 2 exploded");
  }
}

struct WeirdError {};  // no std ancestry: must degrade, not vanish

TEST(FrameCodecException, UnknownTypesDegradeToRuntimeError) {
  EXPECT_THROW(std::rethrow_exception(
                   roundtrip(std::make_exception_ptr(WeirdError{}))),
               std::runtime_error);
}

// --- typed remote tasks ------------------------------------------------------

std::atomic<long> g_sum{0};
std::mutex g_log_mu;
std::vector<std::string> g_log;

void add_task(int k, std::vector<long> vs, std::string who) {
  long s = k;
  for (long v : vs) s += v;
  g_sum.fetch_add(s);
  std::scoped_lock lock(g_log_mu);
  g_log.push_back(who);
}
// Registered at namespace scope: pre-main, hence pre-fork (the contract that
// keeps ids identical across place processes).
const RemoteFn<int, std::vector<long>, std::string> kAddTask{&add_task};

std::uint64_t mul_get(std::uint64_t a, std::uint64_t b) { return a * b; }
const RemoteGet<std::uint64_t, std::uint64_t, std::uint64_t> kMulGet{&mul_get};

std::string greet_get(std::string name, int excitement) {
  if (excitement < 0) throw std::invalid_argument("negative excitement");
  return "hello " + name + std::string(static_cast<std::size_t>(excitement),
                                       '!');
}
const RemoteGet<std::string, std::string, int> kGreetGet{&greet_get};

TEST(RemoteArgs, AsyncAtArgsRunsEverywhere) {
  Config cfg;
  cfg.places = 4;
  Runtime::run(cfg, [] {
    g_sum.store(0);
    {
      std::scoped_lock lock(g_log_mu);
      g_log.clear();
    }
    finish([] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAtArgs(p, kAddTask, 10, std::vector<long>{1, 2, 3},
                    std::string("p") + std::to_string(p));
      }
    });
    EXPECT_EQ(g_sum.load(), 4 * 16);
    std::scoped_lock lock(g_log_mu);
    EXPECT_EQ(g_log.size(), 4u);
  });
}

TEST(RemoteArgs, AtArgsReturnsTypedValues) {
  Config cfg;
  cfg.places = 3;
  Runtime::run(cfg, [] {
    EXPECT_EQ(atArgs(1, kMulGet, std::uint64_t{6}, std::uint64_t{7}), 42u);
    EXPECT_EQ(atArgs(2, kGreetGet, std::string("world"), 3), "hello world!!!");
    // Self-target works too (still routed uniformly).
    EXPECT_EQ(atArgs(0, kMulGet, std::uint64_t{9}, std::uint64_t{9}), 81u);
  });
}

TEST(RemoteArgs, AtArgsPropagatesRemoteExceptions) {
  Config cfg;
  cfg.places = 2;
  Runtime::run(cfg, [] {
    try {
      (void)atArgs(1, kGreetGet, std::string("x"), -1);
      FAIL() << "remote exception did not propagate";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "negative excitement");
    }
  });
}

// --- local/wire frame-argument parity (satellite b) --------------------------
//
// The convention: a frame task sees exactly the unread suffix
// [position(), size()) of the buffer it was spawned with — whether the spawn
// stayed local (asyncAtFrame's in-place fast path) or crossed the transport.
// Before the fix, the local path handed over take_data() with the *consumed
// prefix still attached*, so a handler's reads were offset by however much
// the spawner had already consumed.

std::mutex g_seen_mu;
std::vector<std::pair<std::size_t, std::string>> g_seen;  // (remaining, body)

void parity_task(x10rt::ByteBuffer& args) {
  const std::size_t remaining = args.remaining();
  const std::string body = args.get_string();
  std::scoped_lock lock(g_seen_mu);
  g_seen.emplace_back(remaining, body);
}
const int kParityTask = register_task_fn(&parity_task);

TEST(FrameCursorParity, LocalAndWirePathsSeeTheSameBytes) {
  Config cfg;
  cfg.places = 2;
  Runtime::run(cfg, [] {
    {
      std::scoped_lock lock(g_seen_mu);
      g_seen.clear();
    }
    finish([] {
      for (int p = 0; p < num_places(); ++p) {
        // Simulate a dispatcher that consumed a routing prefix before
        // forwarding the rest of the frame.
        x10rt::ByteBuffer b;
        b.put<std::uint32_t>(0xabcd1234);
        b.put_string("payload-after-prefix");
        const auto prefix = b.get<std::uint32_t>();
        ASSERT_EQ(prefix, 0xabcd1234u);
        asyncAtFrame(p, kParityTask, std::move(b));
      }
    });
    std::scoped_lock lock(g_seen_mu);
    ASSERT_EQ(g_seen.size(), 2u);
    // Identical remaining byte count and identical decoded body on the
    // local (p == here()) and wire (p != here()) deliveries.
    EXPECT_EQ(g_seen[0].first, g_seen[1].first);
    EXPECT_EQ(g_seen[0].second, "payload-after-prefix");
    EXPECT_EQ(g_seen[1].second, "payload-after-prefix");
  });
}

// --- in-process forms: boxed closures and boxed exceptions -------------------
//
// Closure asyncAt/at box the closure into the args of the reserved
// local-closure task function, and in-process finish exceptions box the
// exception_ptr into an am_exception frame. Both boxes are freed by the one
// dispatch of their message, which owns the bytes outright: a box must run
// exactly once however chaos reorders its message.

TEST(ClosureBoundary, DelayChaosRunsEveryBoxedClosureExactlyOnce) {
  constexpr int kSpawns = 2000;
  Config cfg;
  cfg.places = 4;
  cfg.chaos.delay_prob = 0.3;
  cfg.chaos.seed = 0xc105eULL;
  std::vector<std::atomic<int>> runs(kSpawns);
  Runtime::run(cfg, [&runs] {
    finish([&runs] {
      for (int i = 0; i < kSpawns; ++i) {
        asyncAt(1 + i % 3, [&runs, i] { runs[i].fetch_add(1); });
      }
    });
  });
  int wrong = 0;
  for (int i = 0; i < kSpawns; ++i) {
    if (runs[i].load() != 1) ++wrong;
  }
  EXPECT_EQ(wrong, 0) << "closure bodies not run exactly once";
  const auto& m = last_run_metrics();
  EXPECT_EQ(m.at("runtime.tasks_shipped"), m.at("sched.msgs.task"));
}

struct UserError {
  int code;
  std::string where;
};

TEST(ClosureBoundary, UserExceptionTypeSurvivesRemoteFinish) {
  // No std::exception ancestry: the wire codec could only degrade this to
  // std::runtime_error, so catching the exact type proves the in-process
  // path shipped the original exception_ptr.
  Config cfg;
  cfg.places = 3;
  Runtime::run(cfg, [] {
    bool caught = false;
    try {
      finish([] {
        asyncAt(2, [] { throw UserError{42, "place 2"}; });
      });
    } catch (const UserError& e) {
      caught = true;
      EXPECT_EQ(e.code, 42);
      EXPECT_EQ(e.where, "place 2");
    }
    EXPECT_TRUE(caught);
  });
}

// --- closure-boundary abort (satellite a) ------------------------------------
//
// Closures cannot cross a process boundary; the check now runs BEFORE any
// finish bookkeeping (prepare_remote_spawn), so the job dies with a pointed
// diagnostic instead of corrupting the credit/completion books first. The
// place process aborts; the supervising parent fail-fasts with exit 1; the
// grandchild's stderr (shared fd) carries the message gtest matches on.

TEST(ClosureBoundaryDeathTest, AsyncAtAcrossProcessesAbortsWithDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Config cfg;
        cfg.places = 2;
        cfg.backend = BackendKind::kSocket;
        Runtime::run(cfg, [] {
          finish([] { asyncAt(1, [] {}); });
        });
      },
      "cannot cross a process boundary");
}

TEST(ClosureBoundaryDeathTest, BlockingAtAcrossProcessesAbortsWithDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Config cfg;
        cfg.places = 2;
        cfg.backend = BackendKind::kSocket;
        Runtime::run(cfg, [] { at(1, [] {}); });
      },
      "cannot cross a process boundary");
}

}  // namespace

#include "x10rt/transport.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "x10rt/socket_backend.h"

namespace {

using x10rt::Message;
using x10rt::MsgType;
using x10rt::Transport;
using x10rt::TransportConfig;

TransportConfig make_cfg(int places, bool count_pairs = false,
                         int dma_threads = 1) {
  TransportConfig cfg;
  cfg.places = places;
  cfg.count_pairs = count_pairs;
  cfg.dma_threads = dma_threads;
  return cfg;
}

// Test-side closures in the one message form: make_msg parks a body in a
// table owned by this test binary and builds a message for handler
// kRunClosure whose payload is the body's index. Transports carrying
// make_msg traffic are ClosureTransports, which register that handler first
// so its id is kRunClosure. Like the runtime's boxed closures, the handler
// refuses a message from another process: the index means nothing there.
constexpr int kRunClosure = 0;

std::mutex g_bodies_mu;
std::deque<std::function<void()>> g_bodies;  // push_back keeps references

void run_closure(x10rt::ByteBuffer& buf) {
  const int peer = Transport::dispatch_peer();
  if (peer >= 0) {
    std::fprintf(stderr,
                 "closure from place %d cannot cross a process boundary\n",
                 peer);
    std::abort();
  }
  const auto idx = buf.get<std::uint64_t>();
  std::function<void()>* body;
  {
    std::scoped_lock lock(g_bodies_mu);
    body = &g_bodies[idx];
  }
  (*body)();
}

struct ClosureTransport : Transport {
  explicit ClosureTransport(TransportConfig cfg) : Transport(std::move(cfg)) {
    const int h = register_am(&run_closure);
    EXPECT_EQ(h, kRunClosure);
  }
};

Message make_msg(int src, std::function<void()> fn,
                 MsgType t = MsgType::kOther, std::size_t bytes = 0) {
  x10rt::ByteBuffer payload;
  {
    std::scoped_lock lock(g_bodies_mu);
    payload.put(static_cast<std::uint64_t>(g_bodies.size()));
    g_bodies.push_back(std::move(fn));
  }
  Message m;
  m.handler = kRunClosure;
  m.payload = payload.take_data();
  m.type = t;
  m.bytes = bytes;
  m.src = src;
  return m;
}

TEST(Transport, DeliversInFifoOrderWithoutChaos) {
  ClosureTransport tr(make_cfg(2));
  std::vector<int> seen;
  for (int i = 0; i < 10; ++i) {
    tr.send(1, make_msg(0, [&seen, i] { seen.push_back(i); }));
  }
  while (auto m = tr.poll(1)) tr.dispatch(*m);
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(seen, expect);
}

TEST(Transport, PollEmptyReturnsNullopt) {
  ClosureTransport tr(make_cfg(1));
  EXPECT_FALSE(tr.poll(0).has_value());
}

TEST(Transport, ChaosDeliversEverythingEventually) {
  TransportConfig cfg = make_cfg(2);
  cfg.chaos.delay_prob = 0.7;
  ClosureTransport tr(cfg);
  std::set<int> seen;
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    tr.send(1, make_msg(0, [&seen, i] { seen.insert(i); }));
  }
  // Polling drains both the queue and, when empty, the delayed pool.
  for (int guard = 0; guard < 100000 && seen.size() < kN; ++guard) {
    if (auto m = tr.poll(1)) tr.dispatch(*m);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kN));
}

TEST(Transport, ChaosActuallyReorders) {
  TransportConfig cfg = make_cfg(2);
  cfg.chaos.delay_prob = 0.7;
  ClosureTransport tr(cfg);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    tr.send(1, make_msg(0, [&order, i] { order.push_back(i); }));
  }
  while (order.size() < 100) {
    if (auto m = tr.poll(1)) tr.dispatch(*m);
  }
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NE(order, sorted) << "chaos config should have shuffled delivery";
}

TEST(Transport, CountsMessagesByType) {
  ClosureTransport tr(make_cfg(2));
  tr.send(1, make_msg(0, [] {}, MsgType::kControl, 16));
  tr.send(1, make_msg(0, [] {}, MsgType::kControl, 24));
  tr.send(1, make_msg(0, [] {}, MsgType::kTask, 64));
  EXPECT_EQ(tr.count(MsgType::kControl), 2u);
  EXPECT_EQ(tr.bytes(MsgType::kControl), 40u);
  EXPECT_EQ(tr.count(MsgType::kTask), 1u);
  EXPECT_EQ(tr.total_messages(), 3u);
  tr.reset_stats();
  EXPECT_EQ(tr.total_messages(), 0u);
}

TEST(Transport, PairCountsAndOutDegree) {
  TransportConfig cfg = make_cfg(4, /*count_pairs=*/true);
  ClosureTransport tr(cfg);
  tr.send(1, make_msg(0, [] {}));
  tr.send(2, make_msg(0, [] {}));
  tr.send(2, make_msg(0, [] {}));
  tr.send(3, make_msg(1, [] {}));
  EXPECT_EQ(tr.pair_count(0, 2), 2u);
  EXPECT_EQ(tr.pair_count(0, 1), 1u);
  EXPECT_EQ(tr.pair_count(1, 3), 1u);
  EXPECT_EQ(tr.max_out_degree(), 2);  // place 0 reached {1, 2}
}

TEST(Transport, RegisteredMemoryChecks) {
  ClosureTransport tr(make_cfg(3));
  std::vector<std::uint64_t> table(8, 0);
  tr.register_range(1, table.data(), table.size() * sizeof(std::uint64_t));
  EXPECT_TRUE(tr.is_registered(1, table.data(), 8));
  EXPECT_TRUE(tr.is_registered(1, &table[7], sizeof(std::uint64_t)));
  EXPECT_FALSE(tr.is_registered(0, table.data(), 8));
  EXPECT_FALSE(tr.is_registered(1, table.data(), 1000));

  // The last byte of a range is in; one byte past it is out, alone or as
  // the tail of an access that starts inside.
  const auto* bytes = reinterpret_cast<const std::byte*>(table.data());
  const std::size_t n = table.size() * sizeof(std::uint64_t);
  EXPECT_TRUE(tr.is_registered(1, bytes + n - 1, 1));
  EXPECT_FALSE(tr.is_registered(1, bytes + n, 1));
  EXPECT_FALSE(tr.is_registered(1, bytes + n - 1, 2));
  EXPECT_FALSE(tr.is_registered(1, bytes - 1, 1));

  // A second range at the same place works alongside the first; a range
  // registered at another place matches only there.
  std::vector<std::uint64_t> second(4, 0);
  std::vector<std::uint64_t> elsewhere(4, 0);
  tr.register_range(1, second.data(), second.size() * sizeof(std::uint64_t));
  tr.register_range(2, elsewhere.data(),
                    elsewhere.size() * sizeof(std::uint64_t));
  EXPECT_TRUE(tr.is_registered(1, table.data(), n));
  EXPECT_TRUE(tr.is_registered(1, &second[3], sizeof(std::uint64_t)));
  EXPECT_FALSE(tr.is_registered(1, elsewhere.data(), sizeof(std::uint64_t)));
  EXPECT_TRUE(tr.is_registered(2, elsewhere.data(), sizeof(std::uint64_t)));
  EXPECT_FALSE(tr.is_registered(2, table.data(), sizeof(std::uint64_t)));
}

TEST(Transport, ResetStatsZeroesRdmaCountsOfEveryInitiator) {
  ClosureTransport tr(make_cfg(4, false, /*dma_threads=*/0));
  std::vector<std::uint64_t> words(4, 0);
  tr.register_range(3, words.data(), words.size() * sizeof(std::uint64_t));
  for (int src = 0; src < 4; ++src) {
    tr.remote_xor64(src, 3, &words[static_cast<std::size_t>(src)], 1);
    tr.remote_add64(src, 3, &words[static_cast<std::size_t>(src)], 1);
  }
  std::uint64_t local[2] = {7, 9};
  tr.put(2, 3, words.data(), local, sizeof(local));
  tr.get(1, 3, local, words.data(), sizeof(local));
  EXPECT_EQ(tr.rdma_ops(), 10u);
  EXPECT_EQ(tr.rdma_bytes(), 8 * sizeof(std::uint64_t) + 2 * sizeof(local));
  tr.reset_stats();
  EXPECT_EQ(tr.rdma_ops(), 0u);
  EXPECT_EQ(tr.rdma_bytes(), 0u);
  tr.remote_xor64(1, 3, &words[0], 1);
  EXPECT_EQ(tr.rdma_ops(), 1u);
  EXPECT_EQ(tr.rdma_bytes(), sizeof(std::uint64_t));
}

TEST(TransportDeathTest, RegisterRangePastCapacityNamesThePlace) {
  std::vector<std::uint64_t> words(Transport::kMaxRangesPerPlace + 1, 0);
  EXPECT_DEATH(
      {
        Transport tr(make_cfg(2, false, /*dma_threads=*/0));
        for (auto& w : words) tr.register_range(1, &w, sizeof(w));
      },
      "place 1 cannot register another memory range");
}

TEST(Transport, RdmaPutCopiesAndNotifiesInitiator) {
  ClosureTransport tr(make_cfg(2));
  std::vector<double> dst(16, 0.0);
  std::vector<double> src(16);
  std::iota(src.begin(), src.end(), 1.0);
  tr.register_range(1, dst.data(), dst.size() * sizeof(double));

  std::atomic<bool> completed{false};
  const int done = tr.register_am(
      [&completed](x10rt::ByteBuffer&) { completed.store(true); });
  tr.put(0, 1, dst.data(), src.data(), 16 * sizeof(double), {done, {}});

  // The completion message lands in the initiator's (place 0's) inbox.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!completed.load() && std::chrono::steady_clock::now() < deadline) {
    if (auto m = tr.poll(0)) tr.dispatch(*m);
  }
  EXPECT_TRUE(completed.load());
  EXPECT_EQ(dst, src);
  EXPECT_EQ(tr.rdma_ops(), 1u);
  EXPECT_EQ(tr.rdma_bytes(), 16 * sizeof(double));
}

TEST(Transport, RdmaGetReadsRemote) {
  ClosureTransport tr(make_cfg(2, false, /*dma_threads=*/0));
  std::vector<int> remote(4, 9);
  std::vector<int> local(4, 0);
  tr.register_range(1, remote.data(), remote.size() * sizeof(int));
  bool done = false;
  const int h = tr.register_am([&done](x10rt::ByteBuffer&) { done = true; });
  tr.get(0, 1, local.data(), remote.data(), 4 * sizeof(int), {h, {}});
  while (auto m = tr.poll(0)) tr.dispatch(*m);
  EXPECT_TRUE(done);
  EXPECT_EQ(local, remote);
}

TEST(Transport, GupsRemoteXorIsImmediateAndAtomic) {
  ClosureTransport tr(make_cfg(2));
  std::uint64_t word = 0xff00ff00ff00ff00ULL;
  tr.register_range(1, &word, sizeof(word));
  tr.remote_xor64(0, 1, &word, 0x0ff00ff00ff00ff0ULL);
  EXPECT_EQ(word, 0xff00ff00ff00ff00ULL ^ 0x0ff00ff00ff00ff0ULL);
}

TEST(Transport, RemoteAddAccumulates) {
  ClosureTransport tr(make_cfg(2));
  std::uint64_t word = 5;
  tr.register_range(1, &word, sizeof(word));
  tr.remote_add64(0, 1, &word, 37);
  EXPECT_EQ(word, 42u);
}

TEST(Transport, AmHandlersDispatchWithPayload) {
  ClosureTransport tr(make_cfg(2));
  std::vector<std::pair<int, std::string>> seen;
  const int h1 = tr.register_am([&seen](x10rt::ByteBuffer& buf) {
    const int v = buf.get<int>();
    seen.emplace_back(v, buf.get_string());
  });
  const int h2 = tr.register_am([&seen](x10rt::ByteBuffer& buf) {
    seen.emplace_back(-buf.get<int>(), "");
  });
  EXPECT_NE(h1, h2);

  x10rt::ByteBuffer b1;
  b1.put(7);
  b1.put_string("hello");
  tr.send_am(0, 1, h1, std::move(b1));
  x10rt::ByteBuffer b2;
  b2.put(9);
  tr.send_am(0, 1, h2, std::move(b2), MsgType::kSteal);

  while (auto m = tr.poll(1)) tr.dispatch(*m);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<int, std::string>{7, "hello"}));
  EXPECT_EQ(seen[1].first, -9);
  // Wire size accounted: payload + handler id.
  EXPECT_GT(tr.bytes(MsgType::kControl), 0u);
  EXPECT_EQ(tr.count(MsgType::kSteal), 1u);
}

TEST(Transport, AmPayloadSurvivesChaosReordering) {
  TransportConfig cfg = make_cfg(2);
  cfg.chaos.delay_prob = 0.6;
  ClosureTransport tr(cfg);
  std::multiset<int> seen;
  const int h = tr.register_am(
      [&seen](x10rt::ByteBuffer& buf) { seen.insert(buf.get<int>()); });
  std::multiset<int> expect;
  for (int i = 0; i < 100; ++i) {
    x10rt::ByteBuffer b;
    b.put(i * 3);
    tr.send_am(0, 1, h, std::move(b));
    expect.insert(i * 3);
  }
  while (seen.size() < 100) {
    if (auto m = tr.poll(1)) tr.dispatch(*m);
  }
  EXPECT_EQ(seen, expect);
}

TEST(Transport, WaitNonemptyWakesOnSend) {
  ClosureTransport tr(make_cfg(2));
  std::thread sender([&tr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    tr.send(0, make_msg(1, [] {}));
  });
  bool got = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!got && std::chrono::steady_clock::now() < deadline) {
    got = tr.wait_nonempty(0, std::chrono::microseconds(500));
  }
  sender.join();
  EXPECT_TRUE(got);
}

// --- send_am under load -----------------------------------------------------

TEST(Transport, SendAmTalliesPairAndControlPairCounts) {
  TransportConfig cfg = make_cfg(2, /*count_pairs=*/true);
  ClosureTransport tr(cfg);
  const int h = tr.register_am([](x10rt::ByteBuffer&) {});
  for (int i = 0; i < 4; ++i) {
    x10rt::ByteBuffer b;
    b.put(i);
    tr.send_am(0, 1, h, std::move(b));
  }
  tr.send_am(0, 1, h, x10rt::ByteBuffer{}, MsgType::kTask);
  EXPECT_EQ(tr.pair_count(0, 1), 5u);
  EXPECT_EQ(tr.ctrl_pair_count(0, 1), 4u);
  EXPECT_EQ(tr.max_ctrl_out_degree(), 1);
}

TEST(Transport, BufferPoolRecyclesWireStorage) {
  ClosureTransport tr(make_cfg(2));
  const int h = tr.register_am([](x10rt::ByteBuffer&) {});
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) {
      x10rt::ByteBuffer b = tr.acquire_buffer();
      b.put(i);
      tr.send_am(0, 1, h, std::move(b));
    }
    while (auto m = tr.poll(1)) tr.dispatch(*m);
  }
  // After warm-up the freelist serves payloads: dispatch hands each
  // handler's storage back to the pool the next send acquires from.
  EXPECT_GT(tr.pool().hits(), tr.pool().misses());
  EXPECT_GT(tr.pool().recycled(), 0u);
}

/// Drains `place` with poll_batch in chunks of `max` until it reports empty.
void drain_batched(Transport& tr, int place, std::size_t max) {
  std::deque<Message> batch;
  while (tr.poll_batch(place, batch, max) > 0) {
    while (!batch.empty()) {
      tr.dispatch(batch.front());
      batch.pop_front();
    }
  }
}

TEST(Transport, BatchedDrainOfAFloodLosesNothing) {
  // A one-way burst many batches deep: every message arrives once whether
  // the receiver drains between sends or only at the end.
  constexpr int kN = 5000;
  ClosureTransport tr(make_cfg(2));
  long received = 0;
  std::uint64_t sum = 0;
  const int h = tr.register_am([&](x10rt::ByteBuffer& buf) {
    sum += buf.get<std::uint64_t>();
    ++received;
  });
  for (int i = 0; i < kN; ++i) {
    x10rt::ByteBuffer b = tr.acquire_buffer();
    b.put(static_cast<std::uint64_t>(i));
    tr.send_am(0, 1, h, std::move(b));
    if (i % 1000 == 999) drain_batched(tr, 1, 32);
  }
  drain_batched(tr, 1, 64);
  EXPECT_EQ(received, kN);
  EXPECT_EQ(sum, std::uint64_t{kN} * (kN - 1) / 2);
}

TEST(Transport, HandlerRepliesAllArrive) {
  // Request/response bursts, the shape of finish control traffic: the
  // handler at place 1 answers every request from inside dispatch, and the
  // replies queue behind the requests.
  constexpr int kPairs = 2000;
  ClosureTransport tr(make_cfg(2));
  long replies = 0;
  const int pong = tr.register_am([&replies](x10rt::ByteBuffer&) {
    ++replies;
  });
  const int ping = tr.register_am([&tr, pong](x10rt::ByteBuffer& buf) {
    x10rt::ByteBuffer b = tr.acquire_buffer();
    b.put(buf.get<std::uint64_t>());
    tr.send_am(1, 0, pong, std::move(b));
  });
  for (int i = 0; i < kPairs; i += 32) {
    for (int j = i; j < i + 32 && j < kPairs; ++j) {
      x10rt::ByteBuffer b = tr.acquire_buffer();
      b.put(static_cast<std::uint64_t>(j));
      tr.send_am(0, 1, ping, std::move(b));
    }
    drain_batched(tr, 1, 64);
    drain_batched(tr, 0, 64);
  }
  EXPECT_EQ(replies, kPairs);
}

TEST(Transport, ChaosBypassCountsSaturatedDelayPool) {
  TransportConfig cfg = make_cfg(2);
  cfg.chaos.delay_prob = 1.0;  // park everything...
  cfg.chaos.max_delayed = 1;   // ...in a pool that holds a single message
  ClosureTransport tr(cfg);
  for (int i = 0; i < 64; ++i) tr.send(1, make_msg(0, [] {}));
  EXPECT_GT(tr.chaos_bypass(), 0u);
}

TEST(BufferPool, AcquireReleaseRoundTrip) {
  x10rt::BufferPool pool(2, 64);
  auto a = pool.acquire();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(pool.misses(), 1u);
  a.resize(32);
  pool.release(std::move(a));
  EXPECT_EQ(pool.recycled(), 1u);
  auto b = pool.acquire();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 32u);
}

TEST(BufferPool, DropsOversizeAndSurplus) {
  x10rt::BufferPool pool(1, 64);
  std::vector<std::byte> big(128);
  pool.release(std::move(big));  // over max_capacity
  EXPECT_EQ(pool.dropped(), 1u);
  std::vector<std::byte> ok1(16), ok2(16);
  pool.release(std::move(ok1));
  pool.release(std::move(ok2));  // freelist already full
  EXPECT_EQ(pool.recycled(), 1u);
  EXPECT_EQ(pool.dropped(), 2u);
  std::vector<std::byte> empty;
  pool.release(std::move(empty));  // nothing to retain
  EXPECT_EQ(pool.dropped(), 3u);
}

// --- socketpair harness: two Transports, a real wire -------------------------
//
// Each Transport below models one place *process*: it owns only its local
// place and reaches the other end through a SocketBackend over a real
// socketpair. This is the backend contract exercised without forking — AM
// registration order, wire delivery, the per-peer frame counts the teardown
// barrier balances, and the closures-cannot-cross guard.

/// Both "processes" must register the same AMs in the same order, exactly
/// like forked children executing the same constructor (the wire carries
/// handler *ids*).
struct WirePair {
  ClosureTransport t0, t1;
  WirePair(TransportConfig cfg0, TransportConfig cfg1)
      : t0(std::move(cfg0)), t1(std::move(cfg1)) {}

  /// Attach backends after AM registration (the ordering the Runtime
  /// constructor guarantees: a fast peer must never race the handler table).
  void wire() {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    t0.attach_backend(std::make_unique<x10rt::SocketBackend>(
                          0, std::vector<int>{-1, sv[0]}),
                      0);
    t1.attach_backend(std::make_unique<x10rt::SocketBackend>(
                          1, std::vector<int>{sv[1], -1}),
                      1);
  }

  /// One scheduler-less progress step for both ends: run whatever arrived.
  void pump() {
    while (auto m = t0.poll(0)) t0.dispatch(*m);
    while (auto m = t1.poll(1)) t1.dispatch(*m);
  }

  /// Place 0's frames to place 1 against place 1's frames from place 0,
  /// and the same for the reverse channel.
  [[nodiscard]] bool balanced() const {
    const auto d0 = t0.backend_diag();
    const auto d1 = t1.backend_diag();
    return d0.size() == 1 && d1.size() == 1 &&
           d0[0].frames_sent == d1[0].frames_received &&
           d1[0].frames_sent == d0[0].frames_received;
  }
};

TEST(SocketTransport, AmRoundTripsAndFrameCountsBalance) {
  WirePair w(make_cfg(2), make_cfg(2));
  std::vector<std::string> seen;
  const int h0 = w.t0.register_am([](x10rt::ByteBuffer&) {});
  const int h1 = w.t1.register_am([&seen](x10rt::ByteBuffer& buf) {
    seen.push_back(buf.get_string());
  });
  ASSERT_EQ(h0, h1);
  w.wire();
  x10rt::ByteBuffer payload;
  payload.put_string("over-the-wire");
  w.t0.send_am(0, 1, h0, std::move(payload), MsgType::kControl);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // The receiver counts a frame just after queueing it, so the handler can
  // run a moment before the count catches up.
  while ((seen.empty() || !w.balanced()) &&
         std::chrono::steady_clock::now() < deadline) {
    w.pump();
  }
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "over-the-wire");
  // One frame each way of the channel's books, and no standalone acks: the
  // reverse direction carried nothing.
  EXPECT_TRUE(w.balanced());
  const auto d0 = w.t0.backend_diag();
  ASSERT_EQ(d0.size(), 1u);
  EXPECT_EQ(d0[0].peer, 1);
  EXPECT_EQ(d0[0].frames_sent, 1u);
  EXPECT_EQ(d0[0].frames_received, 0u);
  EXPECT_EQ(w.t0.backend_stats().frames_sent, 1u);
  EXPECT_EQ(w.t1.backend_stats().frames_received, 1u);
  EXPECT_EQ(w.t1.backend_stats().frames_sent, 0u);
}

TEST(SocketTransport, DelayChaosAfterTheSocketDeliversEveryFrameOnce) {
  // Chaos parks and reorders arrivals at place 1 *after* they cross the
  // real socket (it injects at the receiving inbox, identically to the
  // in-process backend). The wire itself is lossless, so every frame is
  // dispatched exactly once, and once all of them have run the per-peer
  // counts balance.
  TransportConfig delayed = make_cfg(2);
  delayed.chaos.delay_prob = 0.5;
  delayed.chaos.seed = 0xfeedULL;
  WirePair w(make_cfg(2), std::move(delayed));
  constexpr int kMessages = 200;
  std::vector<int> order;
  const int h = w.t0.register_am([](x10rt::ByteBuffer&) {});
  (void)w.t1.register_am([&order](x10rt::ByteBuffer& buf) {
    order.push_back(buf.get<std::int32_t>());
  });
  w.wire();
  for (int i = 0; i < kMessages; ++i) {
    x10rt::ByteBuffer b;
    b.put<std::int32_t>(i);
    w.t0.send_am(0, 1, h, std::move(b), MsgType::kControl);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((static_cast<int>(order.size()) < kMessages || !w.balanced()) &&
         std::chrono::steady_clock::now() < deadline) {
    w.pump();
  }
  ASSERT_EQ(static_cast<int>(order.size()), kMessages);
  EXPECT_EQ(std::set<int>(order.begin(), order.end()).size(),
            static_cast<std::size_t>(kMessages));
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "chaos never reordered the socket's arrivals";
  EXPECT_TRUE(w.balanced());
  EXPECT_EQ(w.t1.inbox_depth(1), 0u);
}

TEST(SocketTransportDeath, ClosureToRemoteProcessAborts) {
  // The frame itself is well formed — a registered handler plus bytes — but
  // its payload names a body in the sender's address space. The receiving
  // handler sees the message came from another process
  // (Transport::dispatch_peer) and aborts, naming the sender.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WirePair w(make_cfg(2), make_cfg(2));
        w.wire();
        w.t0.send(1, make_msg(0, [] {}));
        for (;;) w.pump();
      },
      "closure from place 0 cannot cross a process boundary");
}

}  // namespace

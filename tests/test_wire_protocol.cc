// Wire-protocol level tests: the finish control frames (snapshots, dense
// relay batches, completions, credits, releases) as actually serialized —
// the layer a distributed port reuses verbatim (docs/porting.md) — plus the
// multi-process frame codec (frame.h), whose receive path is treated as
// genuinely untrusted: the adversarial section at the bottom
// feeds truncated, oversized and bit-flipped frames to the validator and raw
// garbage to a live SocketBackend, asserting rejection with a message —
// never an out-of-bounds read, never silent resynchronization.
#include "runtime/api.h"
#include "runtime/scheduler.h"
#include "x10rt/frame.h"
#include "x10rt/socket_backend.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace {

using namespace apgas;

Config cfg_n(int places, double chaos = 0.0) {
  Config cfg;
  cfg.places = places;
  cfg.places_per_node = 4;
  cfg.chaos.delay_prob = chaos;
  return cfg;
}

TEST(WireProtocol, SnapshotCodecRoundTrip) {
  Snapshot s;
  s.key = FinishKey{3, 42};
  s.place = 7;
  s.seq = 9;
  s.received = 100;
  s.completed = 97;
  s.sent = {{0, 5}, {3, 11}, {12, 1}};
  x10rt::ByteBuffer buf;
  encode_snapshot(buf, s);
  const Snapshot back = decode_snapshot(buf);
  EXPECT_EQ(back.key, s.key);
  EXPECT_EQ(back.place, s.place);
  EXPECT_EQ(back.seq, s.seq);
  EXPECT_EQ(back.received, s.received);
  EXPECT_EQ(back.completed, s.completed);
  EXPECT_EQ(back.sent, s.sent);
}

TEST(WireProtocol, SnapshotSizeIsSparse) {
  // Compression claim: a snapshot's size scales with the places actually
  // contacted, not with the total place count.
  Snapshot dense_row;
  dense_row.sent = {{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}};
  Snapshot sparse_row;
  sparse_row.sent = {{0, 1}};
  x10rt::ByteBuffer a, b;
  encode_snapshot(a, dense_row);
  encode_snapshot(b, sparse_row);
  EXPECT_EQ(a.size() - b.size(), 5 * (sizeof(int) + sizeof(std::uint64_t)));
}

TEST(WireProtocol, ControlBytesAreRealWireSizes) {
  // The SPMD protocol's completion frame is seq + count; the default
  // protocol ships whole snapshots. Measured bytes must reflect that.
  std::uint64_t spmd_bytes = 0;
  std::uint64_t default_bytes = 0;
  for (Pragma pragma : {Pragma::kSpmd, Pragma::kDefault}) {
    Runtime::run(cfg_n(4), [&] {
      auto& tr = Runtime::get().transport();
      tr.reset_stats();
      finish(pragma, [&] {
        for (int p = 1; p < num_places(); ++p) asyncAt(p, [] {});
      });
      (pragma == Pragma::kSpmd ? spmd_bytes : default_bytes) =
          tr.bytes(x10rt::MsgType::kControl);
    });
  }
  // 3 completions x (8-byte seq + 8-byte count + 4-byte handler id).
  EXPECT_EQ(spmd_bytes, 3u * (8 + 8 + 4));
  EXPECT_GT(default_bytes, spmd_bytes);
}

TEST(WireProtocol, FramesSurviveHeavyChaos) {
  // Every frame type in flight simultaneously under 60% reordering.
  for (std::uint64_t seed : {11ULL, 222ULL}) {
    Config cfg = cfg_n(8, 0.6);
    cfg.chaos.seed = seed;
    std::atomic<int> n{0};
    Runtime::run(cfg, [&] {
      const int h = here();
      finish(Pragma::kDense, [&] {          // dense relay frames
        for (int p = 0; p < num_places(); ++p) {
          asyncAt(p, [&n, h] {
            finish(Pragma::kSpmd, [&] {     // completion frames
              asyncAt((here() + 1) % num_places(), [&n] { ++n; });
            });
            asyncAt(h, [&n] { ++n; });      // snapshot frames
          });
        }
      });
      EXPECT_EQ(n.load(), 2 * num_places());
    });
  }
}

TEST(WireProtocol, ReleasesFreeRemoteBlocks) {
  // After a matrix finish terminates, remote places hold no blocks for it —
  // the release frames arrived and were applied.
  Runtime::run(cfg_n(4), [&] {
    for (int round = 0; round < 30; ++round) {
      finish(Pragma::kDefault, [&] {
        for (int p = 0; p < num_places(); ++p) asyncAt(p, [] {});
      });
    }
    // Releases are asynchronous; drain before checking.
    at(1, [] {});
    at(2, [] {});
    auto& rt = Runtime::get();
    std::size_t lingering = 0;
    for (int p = 1; p < num_places(); ++p) {
      std::scoped_lock lock(rt.pstate(p).fin_mu);
      lingering += rt.pstate(p).blocks.size();
    }
    // Not necessarily zero (the last round's releases may still be queued),
    // but bounded — far fewer than the 30 finishes that ran.
    EXPECT_LE(lingering, 3u * 3u);
  });
}

// --- adversarial frames (ISSUE 6) -------------------------------------------

namespace frm = x10rt::frame;

/// A well-formed frame (length prefix included) that validate() accepts
/// against places=4, num_handlers=8.
std::vector<std::uint8_t> good_frame(const std::string& payload = "args") {
  frm::Header h;
  h.type = x10rt::MsgType::kTask;
  h.src = 1;
  h.handler = 3;
  return frm::encode(h, reinterpret_cast<const std::byte*>(payload.data()),
                     payload.size());
}

/// Validates the frame body (prefix stripped) against places=4, handlers=8.
const char* check(const std::vector<std::uint8_t>& wire) {
  return frm::validate(wire.data() + frm::kLengthPrefixBytes,
                       wire.size() - frm::kLengthPrefixBytes,
                       /*places=*/4, /*num_handlers=*/8);
}

TEST(FrameCodec, RoundTripPreservesEveryHeaderField) {
  const auto wire = good_frame("payload-bytes");
  ASSERT_EQ(check(wire), nullptr);
  const frm::Header h =
      frm::decode_header(wire.data() + frm::kLengthPrefixBytes);
  EXPECT_EQ(h.type, x10rt::MsgType::kTask);
  EXPECT_EQ(h.src, 1);
  EXPECT_EQ(h.handler, 3);
  EXPECT_EQ(h.payload_len, 13u);
  EXPECT_EQ(wire.size(),
            frm::kLengthPrefixBytes + frm::kHeaderBytes + 13u);
  EXPECT_EQ(std::memcmp(wire.data() + frm::kLengthPrefixBytes +
                            frm::kHeaderBytes,
                        "payload-bytes", 13),
            0);
}

TEST(FrameAdversarial, EveryTruncationIsRejected) {
  const auto wire = good_frame("some-payload");
  const std::uint8_t* body = wire.data() + frm::kLengthPrefixBytes;
  const std::size_t full = wire.size() - frm::kLengthPrefixBytes;
  // Every strict prefix of the frame must be rejected: lengths below the
  // fixed header outright, longer ones via the payload_len cross-check.
  // validate() promises never to read past `len` — a prefix that "parses"
  // would be an OOB read waiting to happen in the dispatch path.
  for (std::size_t len = 0; len < full; ++len) {
    EXPECT_NE(frm::validate(body, len, 4, 8), nullptr)
        << "truncation to " << len << " bytes was accepted";
  }
  EXPECT_EQ(frm::validate(body, full, 4, 8), nullptr);
}

TEST(FrameAdversarial, OversizedLengthClaimIsRejectedBeforeAllocation) {
  // A corrupt length prefix claiming a giant frame must be refused from the
  // header alone — kMaxFrameBytes exists precisely so a 4-byte claim can
  // never size a buffer. validate() checks the bound before touching any
  // payload byte, so handing it a length far beyond the real buffer is safe.
  const auto wire = good_frame();
  const std::uint8_t* body = wire.data() + frm::kLengthPrefixBytes;
  EXPECT_STREQ(frm::validate(body, frm::kMaxFrameBytes + 1, 4, 8),
               "frame exceeds kMaxFrameBytes");
}

TEST(FrameAdversarial, HeaderFieldCorruptionsAreEachRejected) {
  const auto pristine = good_frame("abcd");
  const auto corrupt = [&pristine](std::size_t off, std::uint8_t value) {
    auto wire = pristine;
    wire[frm::kLengthPrefixBytes + off] = value;
    return wire;
  };
  EXPECT_STREQ(check(corrupt(0, 0x00)), "bad magic word");
  EXPECT_STREQ(check(corrupt(4, 1)), "nonzero reserved header byte");
  EXPECT_STREQ(check(corrupt(5, 0xff)), "nonzero reserved header byte");
  EXPECT_STREQ(check(corrupt(6, static_cast<std::uint8_t>(x10rt::kNumMsgTypes))),
               "unknown message type");
  EXPECT_STREQ(check(corrupt(7, 0)), "unsupported frame version");
  EXPECT_STREQ(check(corrupt(8, 0xff)), "src place out of range");   // src -> negative
  EXPECT_STREQ(check(corrupt(8, 4)), "src place out of range");      // src == places
  EXPECT_STREQ(check(corrupt(12, 0xff)), "AM handler id out of range");
  EXPECT_STREQ(check(corrupt(12, 8)), "AM handler id out of range");
  EXPECT_STREQ(check(corrupt(16, 0xff)),
               "payload_len disagrees with frame length");
}

TEST(FrameAdversarial, HeaderBitFlipSweepNeverCrashesAndGuardsReject) {
  // Flip every bit of the header, one at a time. Some single-bit flips land
  // on another in-range src or handler and may legitimately pass — the
  // property under test is that validate() always *returns* (no crash, no
  // OOB) and that the integrity fields (magic, reserved bytes, version)
  // catch every flip.
  const auto pristine = good_frame("xyz");
  for (std::size_t byte = 0; byte < frm::kHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto wire = pristine;
      wire[frm::kLengthPrefixBytes + byte] ^=
          static_cast<std::uint8_t>(1u << bit);
      const char* err = check(wire);
      if (byte < 6 || byte == 7) {
        EXPECT_NE(err, nullptr)
            << "flip in magic/reserved/version (byte " << byte << " bit "
            << bit << ") was accepted";
      }
    }
  }
  // Payload bits are opaque to the frame layer: flips there must still
  // validate (payload integrity is the dispatch layer's problem).
  for (int bit = 0; bit < 8; ++bit) {
    auto wire = pristine;
    wire[frm::kLengthPrefixBytes + frm::kHeaderBytes] ^=
        static_cast<std::uint8_t>(1u << bit);
    EXPECT_EQ(check(wire), nullptr);
  }
}

// Frames whose payload holds a process-local pointer. Each is well formed at
// the frame layer — a registered handler plus bytes — so validate() accepts
// it; the handler must see that it came from another process and abort,
// naming the peer, before it touches the pointer.

/// Runs at place 1: hand-builds the am_spawn frame a closure spawn carries
/// (the local-closure task id plus a "boxed closure" pointer) and sends it
/// to place 0. The payload's src field even claims place 0; the check must
/// trust the transport's arrival socket, not the payload.
void forge_closure_spawn(x10rt::ByteBuffer&) {
  Runtime& rt = Runtime::get();
  x10rt::ByteBuffer f;
  f.put<std::int32_t>(0);        // finish home
  f.put<std::uint64_t>(1);       // finish seq
  f.put<std::uint8_t>(0);        // pragma
  f.put<std::uint64_t>(0);       // credit
  f.put<std::uint64_t>(0);       // span
  f.put<std::uint64_t>(0);       // parent span
  f.put<std::int32_t>(0);        // claimed source place
  f.put<std::uint64_t>(0);       // ship stamp
  f.put<std::int32_t>(local_closure_fn());
  f.put<std::uint64_t>(0xdeadbeefULL);  // a pointer from this address space
  rt.transport().send_am(here(), 0, rt.am_spawn(), std::move(f),
                         x10rt::MsgType::kTask);
}
const int kForgeClosureSpawn = register_task_fn(&forge_closure_spawn);

/// Runs at place 1: sends place 0 an am_exception frame in the boxed
/// (in-process) form.
void forge_boxed_exception(x10rt::ByteBuffer&) {
  Runtime& rt = Runtime::get();
  x10rt::ByteBuffer f;
  f.put<std::int32_t>(0);               // finish home
  f.put<std::uint64_t>(1);              // finish seq
  f.put<std::uint8_t>(0xff);            // the boxed form's kind byte
  f.put<std::uint64_t>(0xdeadbeefULL);  // "exception_ptr*"
  rt.transport().send_am(here(), 0, rt.am_exception(), std::move(f),
                         x10rt::MsgType::kControl);
}
const int kForgeBoxedException = register_task_fn(&forge_boxed_exception);

void run_socket_pair_forging(int fn_id) {
  Config cfg;
  cfg.places = 2;
  cfg.backend = BackendKind::kSocket;
  Runtime::run(cfg, [fn_id] { finish([fn_id] { asyncAtFrame(1, fn_id); }); });
}

TEST(FrameAdversarialDeath, LocalClosureSpawnFromAnotherProcessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_socket_pair_forging(kForgeClosureSpawn),
               "malformed frame from place 1: it carries a boxed closure");
}

TEST(FrameAdversarialDeath, BoxedExceptionFromAnotherProcessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_socket_pair_forging(kForgeBoxedException),
               "malformed frame from place 1: it carries a boxed exception");
}

TEST(ShipLatency, CrossProcessClockSkewClampsToOneNanosecond) {
  // Regression (ISSUE 6 bugfix): a receive stamped "earlier" than the send —
  // clock skew across process clock domains — used to wrap to ~2^64 ns and
  // permanently poison the histogram max. The guard clamps to 1 ns.
  static_assert(ship_latency_ns(100, 250) == 1);
  static_assert(ship_latency_ns(250, 100) == 150);
  static_assert(ship_latency_ns(5, 5) == 1);
  EXPECT_EQ(ship_latency_ns(0, ~0ull), 1u);
}

// --- SocketBackend vs. garbage ----------------------------------------------

TEST(SocketBackendWire, FramesRoundTripBetweenTwoBackends) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  x10rt::SocketBackend a(0, std::vector<int>{-1, sv[0]});
  x10rt::SocketBackend b(1, std::vector<int>{sv[1], -1});
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<std::uint8_t>> got;
  b.start([&](int peer, const std::uint8_t* d, std::size_t n) {
    EXPECT_EQ(peer, 0);
    std::lock_guard<std::mutex> lock(mu);
    got.emplace_back(d, d + n);
    cv.notify_all();
  });
  a.start([](int, const std::uint8_t*, std::size_t) {});
  // Two frames back to back: the second exercises stream reassembly finding
  // a frame boundary mid-buffer.
  const auto f1 = good_frame("first");
  const auto f2 = good_frame("the-second-frame");
  a.send_frame(1, f1);
  a.send_frame(1, f2);
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return got.size() == 2; }));
    // The sink sees the frame body — prefix stripped, nothing else touched.
    EXPECT_EQ(got[0], std::vector<std::uint8_t>(
                          f1.begin() + frm::kLengthPrefixBytes, f1.end()));
    EXPECT_EQ(got[1], std::vector<std::uint8_t>(
                          f2.begin() + frm::kLengthPrefixBytes, f2.end()));
  }
  const auto stats = a.stats();
  EXPECT_EQ(stats.frames_sent, 2u);
  EXPECT_EQ(stats.bytes_sent, f1.size() + f2.size());
  b.stop();
  a.stop();
}

TEST(SocketBackendDeath, GiantLengthPrefixAbortsInsteadOfAllocating) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        x10rt::SocketBackend be(0, std::vector<int>{-1, sv[0]});
        be.start([](int, const std::uint8_t*, std::size_t) {});
        const std::uint32_t bad = 0xFFFFFFFFu;  // 4 GiB "frame"
        ASSERT_EQ(::send(sv[1], &bad, sizeof bad, 0),
                  static_cast<ssize_t>(sizeof bad));
        for (;;) ::poll(nullptr, 0, 50);  // the I/O thread aborts for us
      },
      "length prefix");
}

TEST(SocketBackendDeath, RuntLengthPrefixAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        x10rt::SocketBackend be(0, std::vector<int>{-1, sv[0]});
        be.start([](int, const std::uint8_t*, std::size_t) {});
        const std::uint32_t bad = 3;  // below the fixed header size
        ASSERT_EQ(::send(sv[1], &bad, sizeof bad, 0),
                  static_cast<ssize_t>(sizeof bad));
        for (;;) ::poll(nullptr, 0, 50);
      },
      "length prefix");
}

}  // namespace

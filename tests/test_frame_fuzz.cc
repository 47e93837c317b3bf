// Seeded mutation fuzzer for the decoders that read bytes from another
// process: the wire frame header (frame::validate), Ser<T> length decoding,
// the exception wire codec, and the trace blob a place process ships to the
// launcher supervisor (trace::decode_events). Every mutant must either decode within
// bounds or be rejected with a message — never crash, never read past its
// buffer, never size an allocation from a corrupt length.
//
// Fixed seeds and a fixed iteration budget keep it a plain gtest: a failure
// names its seed and iteration, and the same binary replays it. The suite
// runs in the ASan/UBSan preset, where every mutant lives in a heap block of
// exactly its own size, so a one-byte over-read is a sanitizer report.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "runtime/trace.h"
#include "x10rt/frame.h"
#include "x10rt/serialization.h"

namespace {

namespace frm = x10rt::frame;

constexpr std::uint64_t kSeeds[] = {0x1ULL, 0xf0220ULL, 0x9e3779b97f4a7c15ULL};
constexpr int kIterations = 20000;  // per seed and target
constexpr int kPlaces = 4;
constexpr int kHandlers = 8;

using Bytes = std::vector<std::uint8_t>;

/// One random edit of `in`: bit flip, interesting byte, interesting u32,
/// truncation, random extension, or a duplicated chunk. Edits stack, so
/// later rounds reach states one edit cannot.
Bytes mutate(const Bytes& in, std::mt19937_64& rng) {
  Bytes out = in;
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits; ++e) {
    const std::size_t n = out.size();
    auto pos = [&rng](std::size_t size) {
      return size == 0 ? 0 : static_cast<std::size_t>(rng() % size);
    };
    switch (rng() % 6) {
      case 0:
        if (n > 0) out[pos(n)] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      case 1: {
        static constexpr std::uint8_t kByte[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
        if (n > 0) out[pos(n)] = kByte[rng() % 5];
        break;
      }
      case 2: {
        static constexpr std::uint32_t kWord[] = {
            0u, 1u, 0x7fffffffu, 0x80000000u, 0xffffffffu, 0xfffffff0u,
            static_cast<std::uint32_t>(frm::kMaxFrameBytes)};
        if (n >= 4) {
          const std::uint32_t w = kWord[rng() % 7];
          std::memcpy(out.data() + pos(n - 3), &w, sizeof w);
        }
        break;
      }
      case 3:
        out.resize(pos(n + 1));
        break;
      case 4: {
        const std::size_t extra = 1 + rng() % 16;
        for (std::size_t i = 0; i < extra; ++i) {
          out.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      }
      default:
        if (n > 0) {
          const std::size_t at = pos(n);
          const std::size_t len = 1 + pos(n - at);
          const Bytes chunk(out.begin() + static_cast<std::ptrdiff_t>(at),
                            out.begin() + static_cast<std::ptrdiff_t>(at + len));
          out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos(n + 1)),
                     chunk.begin(), chunk.end());
        }
        break;
    }
  }
  return out;
}

/// A heap block of exactly `b.size()` bytes holding `b`: any read past the
/// end lands in the allocator's redzone under ASan.
std::unique_ptr<std::uint8_t[]> exact_copy(const Bytes& b) {
  auto p = std::make_unique<std::uint8_t[]>(b.size());
  if (!b.empty()) std::memcpy(p.get(), b.data(), b.size());
  return p;
}

/// A frame body (length prefix stripped) as the backend hands it to the
/// sink.
Bytes frame_body(x10rt::MsgType type, int src, int handler,
                 const std::string& payload) {
  frm::Header h;
  h.type = type;
  h.src = src;
  h.handler = handler;
  const auto wire =
      frm::encode(h, reinterpret_cast<const std::byte*>(payload.data()),
                  payload.size());
  return Bytes(wire.begin() + frm::kLengthPrefixBytes, wire.end());
}

TEST(FrameFuzz, ValidateAcceptsOnlyInBoundsV4Frames) {
  const std::vector<Bytes> corpus = {
      frame_body(x10rt::MsgType::kTask, 1, 3, "args"),
      frame_body(x10rt::MsgType::kControl, 0, 0, ""),
      frame_body(x10rt::MsgType::kSteal, 3, 7, std::string(200, 'x')),
  };
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      const Bytes m = mutate(corpus[rng() % corpus.size()], rng);
      const auto buf = exact_copy(m);
      const char* err = frm::validate(buf.get(), m.size(), kPlaces, kHandlers);
      if (err != nullptr) {
        ASSERT_GT(std::strlen(err), 0u) << "seed " << seed << " iter " << i;
        ++rejected;
        continue;
      }
      // Accepted: everything dispatch will trust must be in range.
      ++accepted;
      const frm::Header h = frm::decode_header(buf.get());
      ASSERT_EQ(frm::kHeaderBytes + h.payload_len, m.size())
          << "seed " << seed << " iter " << i;
      ASSERT_GE(h.src, 0);
      ASSERT_LT(h.src, kPlaces);
      ASSERT_GE(h.handler, 0);
      ASSERT_LT(h.handler, kHandlers);
      ASSERT_LT(static_cast<int>(h.type), x10rt::kNumMsgTypes);
    }
  }
  // Both verdicts must be reachable, or the mutator is not exploring.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

/// Decodes one mutant of `wire` as T. Returns true when it decoded, false
/// when it was rejected; anything but a decode or an out_of_range with a
/// message fails the test.
template <typename T>
bool decode_or_reject(const Bytes& wire) {
  std::vector<std::byte> bytes(wire.size());
  if (!wire.empty()) std::memcpy(bytes.data(), wire.data(), wire.size());
  x10rt::ByteBuffer b{std::move(bytes)};
  try {
    (void)x10rt::ser_get<T>(b);
  } catch (const std::out_of_range& e) {
    EXPECT_GT(std::strlen(e.what()), 0u);
    return false;
  }
  EXPECT_LE(b.position(), b.size());
  return true;
}

template <typename T>
Bytes ser_bytes(const T& v) {
  x10rt::ByteBuffer b;
  x10rt::ser_put(b, v);
  const auto s = b.bytes();
  Bytes out(s.size());
  if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(FrameFuzz, SerLengthDecodingStaysInBounds) {
  using Nested = std::vector<std::vector<std::int32_t>>;
  using Strings = std::vector<std::string>;
  using Mixed = std::tuple<std::int64_t, std::string,
                           std::pair<std::int32_t, std::vector<double>>>;
  const Bytes nested = ser_bytes(Nested{{1, 2, 3}, {}, {4}});
  const Bytes strings = ser_bytes(Strings{"alpha", "", "gamma-delta"});
  const Bytes mixed =
      ser_bytes(Mixed{-7, "payload", {9, std::vector<double>{1.5, 2.5}}});
  int decoded = 0;
  int rejected = 0;
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " iter " +
                   std::to_string(i));
      bool ok = false;
      switch (i % 3) {
        case 0: ok = decode_or_reject<Nested>(mutate(nested, rng)); break;
        case 1: ok = decode_or_reject<Strings>(mutate(strings, rng)); break;
        default: ok = decode_or_reject<Mixed>(mutate(mixed, rng)); break;
      }
      (ok ? decoded : rejected) += 1;
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FrameFuzz, WireExceptionDecoderStaysInBounds) {
  std::vector<Bytes> corpus;
  for (const std::exception_ptr& ep :
       {std::make_exception_ptr(std::out_of_range("index 9 of 4")),
        std::make_exception_ptr(std::runtime_error("remote failure")),
        std::make_exception_ptr(std::bad_alloc())}) {
    x10rt::ByteBuffer b;
    apgas::wire_encode_exception(b, ep);
    const auto s = b.bytes();
    Bytes out(s.size());
    std::memcpy(out.data(), s.data(), s.size());
    corpus.push_back(std::move(out));
  }
  int decoded = 0;
  int rejected = 0;
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      const Bytes m = mutate(corpus[rng() % corpus.size()], rng);
      std::vector<std::byte> bytes(m.size());
      if (!m.empty()) std::memcpy(bytes.data(), m.data(), m.size());
      x10rt::ByteBuffer b{std::move(bytes)};
      std::exception_ptr ep;
      try {
        ep = apgas::wire_decode_exception(b);
      } catch (const std::out_of_range& e) {
        ASSERT_GT(std::strlen(e.what()), 0u)
            << "seed " << seed << " iter " << i;
        ++rejected;
        continue;
      }
      // Decoded: some std::exception with a readable message comes back,
      // whatever the kind byte said.
      ++decoded;
      ASSERT_TRUE(ep) << "seed " << seed << " iter " << i;
      try {
        std::rethrow_exception(ep);
      } catch (const std::exception& e) {
        ASSERT_NE(e.what(), nullptr);
      }
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

bool same_event(const apgas::trace::Event& x, const apgas::trace::Event& y) {
  return x.t_ns == y.t_ns && x.kind == y.kind && x.place == y.place &&
         x.a == y.a && x.b == y.b;
}

TEST(FrameFuzz, TraceBlobDecoderStaysInBounds) {
  namespace tr = apgas::trace;
  // Blob layout (trace.h): a 24-byte header [magic u32][version u32]
  // [epoch u64][count u64], then `count` records of
  // [t_ns u64][kind u8][place i32][a u64][b u64].
  constexpr std::size_t kHeader = 4 + 4 + 8 + 8;
  constexpr std::size_t kRecord = 8 + 1 + 4 + 8 + 8;
  auto blob = [](std::uint64_t epoch, const std::vector<tr::Event>& evs) {
    const std::string s = tr::encode_events(epoch, evs);
    return Bytes(s.begin(), s.end());
  };
  const std::vector<Bytes> corpus = {
      blob(0, {}),
      blob(5'000'000'000ULL,
           {{100, tr::Ev::kActivitySpawn, 0, 0xabcdef, (1ULL << 32) | 1}}),
      blob(77, {{10, tr::Ev::kMsgSend, 1, 2, 3},
                {20, tr::Ev::kActivityBegin, 1, 0x42, 7},
                {30, tr::Ev::kTeamEnd, 1, 4, 5},
                {40, tr::Ev::kSchedOverflow, 1, ~0ULL, 0}}),
  };
  const tr::Event sentinel{0xdead, tr::Ev::kStealSuccess, 9, 0xbeef, 0xcafe};
  int accepted = 0;
  int rejected = 0;
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      const Bytes m = mutate(corpus[rng() % corpus.size()], rng);
      const auto buf = exact_copy(m);
      const std::string_view view(reinterpret_cast<const char*>(buf.get()),
                                  m.size());
      std::uint64_t epoch = 0x5eed;
      std::vector<tr::Event> events = {sentinel};
      if (!tr::decode_events(view, epoch, events)) {
        // Rejected: both outputs exactly as they were.
        ++rejected;
        ASSERT_EQ(epoch, 0x5eedu) << "seed " << seed << " iter " << i;
        ASSERT_EQ(events.size(), 1u) << "seed " << seed << " iter " << i;
        ASSERT_TRUE(same_event(events[0], sentinel))
            << "seed " << seed << " iter " << i;
        continue;
      }
      // Accepted: the count accounts for every payload byte, and every kind
      // names a real event.
      ++accepted;
      ASSERT_GE(m.size(), kHeader) << "seed " << seed << " iter " << i;
      ASSERT_EQ(events.size() * kRecord, m.size() - kHeader)
          << "seed " << seed << " iter " << i;
      for (const tr::Event& e : events) {
        ASSERT_LT(static_cast<int>(e.kind), tr::kNumEv)
            << "seed " << seed << " iter " << i;
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace

#include "x10rt/serialization.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace {

TEST(ByteBuffer, RoundTripsScalars) {
  x10rt::ByteBuffer buf;
  buf.put<std::int32_t>(-7);
  buf.put<std::uint64_t>(0xdeadbeefcafef00dULL);
  buf.put<double>(3.25);
  buf.put<char>('x');

  EXPECT_EQ(buf.get<std::int32_t>(), -7);
  EXPECT_EQ(buf.get<std::uint64_t>(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(buf.get<double>(), 3.25);
  EXPECT_EQ(buf.get<char>(), 'x');
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(ByteBuffer, RoundTripsStringsAndVectors) {
  x10rt::ByteBuffer buf;
  buf.put_string("hello places");
  buf.put_vector(std::vector<int>{1, 2, 3, 5, 8});
  buf.put_string("");

  EXPECT_EQ(buf.get_string(), "hello places");
  EXPECT_EQ(buf.get_vector<int>(), (std::vector<int>{1, 2, 3, 5, 8}));
  EXPECT_EQ(buf.get_string(), "");
}

TEST(ByteBuffer, UnderflowThrows) {
  x10rt::ByteBuffer buf;
  buf.put<std::int16_t>(42);
  EXPECT_EQ(buf.get<std::int16_t>(), 42);
  EXPECT_THROW(buf.get<std::int8_t>(), std::out_of_range);
}

TEST(ByteBuffer, RewindRereads) {
  x10rt::ByteBuffer buf;
  buf.put<int>(11);
  EXPECT_EQ(buf.get<int>(), 11);
  buf.rewind();
  EXPECT_EQ(buf.get<int>(), 11);
}

TEST(ByteBuffer, SizeTracksPayload) {
  x10rt::ByteBuffer buf;
  EXPECT_EQ(buf.size(), 0u);
  buf.put<std::uint32_t>(1);
  buf.put_vector(std::vector<std::uint8_t>(10, 0));
  // 4 (value) + 4 (length prefix) + 10 (payload)
  EXPECT_EQ(buf.size(), 18u);
}

struct Pod {
  int a;
  double b;
  friend bool operator==(const Pod&, const Pod&) = default;
};

TEST(ByteBuffer, RoundTripsPodStructs) {
  x10rt::ByteBuffer buf;
  buf.put(Pod{4, 2.5});
  EXPECT_EQ(buf.get<Pod>(), (Pod{4, 2.5}));
}

// --- bounds-hole regressions (ISSUE 3 satellite) -----------------------------

TEST(ByteBuffer, CorruptVectorLengthThrowsWithoutAllocating) {
  // A length prefix claiming ~4G elements in a 4-byte buffer must fail the
  // bounds check *before* the vector is sized — the old order allocated
  // multi-GB from attacker-controlled bytes and then threw (or OOMed).
  x10rt::ByteBuffer buf;
  buf.put(static_cast<std::uint32_t>(0xFFFFFFFFu));
  EXPECT_THROW(buf.get_vector<std::uint64_t>(), std::out_of_range);
  // The cursor consumed only the length prefix; nothing else moved.
  buf.rewind();
  EXPECT_EQ(buf.get<std::uint32_t>(), 0xFFFFFFFFu);
}

TEST(ByteBuffer, CorruptStringLengthThrowsCleanly) {
  x10rt::ByteBuffer buf;
  buf.put(static_cast<std::uint32_t>(1u << 30));
  buf.put<std::uint8_t>('x');
  EXPECT_THROW(buf.get_string(), std::out_of_range);
}

TEST(ByteBuffer, CheckRemainingSurvivesOverflowingRequest) {
  // cursor_ + n would wrap for n near SIZE_MAX and let the read through;
  // the check must be phrased as a subtraction.
  x10rt::ByteBuffer buf;
  buf.put<std::uint64_t>(7);
  (void)buf.get<std::uint32_t>();  // cursor_ = 4 of 8
  std::byte sink[1];
  EXPECT_THROW(
      buf.get_raw(sink, std::numeric_limits<std::size_t>::max() - 2),
      std::out_of_range);
}

TEST(ByteBuffer, TruncatedVectorPayloadThrows) {
  // Prefix says 4 elements; only 2 are present.
  x10rt::ByteBuffer buf;
  buf.put(static_cast<std::uint32_t>(4));
  buf.put<std::uint32_t>(1);
  buf.put<std::uint32_t>(2);
  EXPECT_THROW(buf.get_vector<std::uint32_t>(), std::out_of_range);
}

// --- position / seek / take_data --------------------------------------------

TEST(ByteBuffer, SeekAndPositionBracketReads) {
  x10rt::ByteBuffer buf;
  buf.put<int>(1);
  buf.put<int>(2);
  buf.put<int>(3);
  EXPECT_EQ(buf.position(), 0u);
  (void)buf.get<int>();
  const std::size_t mark = buf.position();
  (void)buf.get<int>();
  buf.seek(mark);
  EXPECT_EQ(buf.get<int>(), 2);
  EXPECT_THROW(buf.seek(buf.size() + 1), std::out_of_range);
}

TEST(ByteBuffer, TakeDataLeavesBufferEmpty) {
  x10rt::ByteBuffer buf;
  buf.put<int>(5);
  (void)buf.get<int>();
  std::vector<std::byte> storage = buf.take_data();
  EXPECT_EQ(storage.size(), sizeof(int));
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.remaining(), 0u);
  buf.put<int>(6);  // reusable after surrender
  EXPECT_EQ(buf.get<int>(), 6);
}

}  // namespace

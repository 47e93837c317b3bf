// Wire frame codec for multi-process backends.
//
// A frame is the unit a Backend ships between place processes: a 4-byte
// length prefix, a fixed 20-byte header, and an opaque payload. The header
// carries exactly the Message fields that must survive a process boundary
// (classification and source place) plus the dispatch key, the registered
// AM handler id. A frame is the byte image of a Message (message.h), which
// has no other form.
//
// Both ends of a socketpair mesh run on the same host, so fields are
// native-endian; the magic word doubles as an endianness/garbage check.
//
// The receive path treats frames as genuinely untrusted: validate() is a
// non-aborting checker (also the fuzz-test entry point) that rejects any
// frame whose header could drive an out-of-bounds read, and the transport
// aborts with its message rather than dispatching.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "x10rt/message.h"

namespace x10rt::frame {

inline constexpr std::uint32_t kMagic = 0x46475041u;  // "APGF"
inline constexpr std::uint8_t kVersion = 4;

/// Header byte layout (after the u32 length prefix, offsets in bytes):
///   0  u32 magic        8  i32 src         16 u32 payload_len
///   4  u8  reserved     12 i32 handler
///   5  u8  reserved
///   6  u8  type (MsgType)
///   7  u8  version
/// The reserved bytes are zero on the wire. Magic, type, version, src and
/// handler sit where version 3 put them, so a stale peer's frame fails the
/// version check rather than decoding as garbage.
inline constexpr std::size_t kHeaderBytes = 20;
inline constexpr std::size_t kLengthPrefixBytes = 4;

/// Hard ceiling on (header + payload). Nothing legitimate approaches this —
/// a frame carries one AM's serialized args — so a larger length prefix is
/// corruption, not load, and must not size a buffer.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

struct Header {
  MsgType type = MsgType::kOther;
  std::int32_t src = -1;
  std::int32_t handler = -1;
  std::uint32_t payload_len = 0;
};

namespace detail {
template <typename T>
inline void store(std::uint8_t* base, std::size_t off, T v) {
  std::memcpy(base + off, &v, sizeof(T));
}
template <typename T>
inline T load(const std::uint8_t* base, std::size_t off) {
  T v;
  std::memcpy(&v, base + off, sizeof(T));
  return v;
}
}  // namespace detail

/// Encodes length prefix + header + payload into one contiguous buffer,
/// ready for Backend::send_frame.
inline std::vector<std::uint8_t> encode(const Header& h, const std::byte* payload,
                                        std::size_t payload_len) {
  std::vector<std::uint8_t> out(kLengthPrefixBytes + kHeaderBytes + payload_len);
  std::uint8_t* p = out.data();
  detail::store<std::uint32_t>(
      p, 0, static_cast<std::uint32_t>(kHeaderBytes + payload_len));
  p += kLengthPrefixBytes;
  detail::store<std::uint32_t>(p, 0, kMagic);
  p[4] = 0;
  p[5] = 0;
  p[6] = static_cast<std::uint8_t>(h.type);
  p[7] = kVersion;
  detail::store<std::int32_t>(p, 8, h.src);
  detail::store<std::int32_t>(p, 12, h.handler);
  detail::store<std::uint32_t>(p, 16, static_cast<std::uint32_t>(payload_len));
  if (payload_len != 0) std::memcpy(p + kHeaderBytes, payload, payload_len);
  return out;
}

/// Decodes the fixed header. Call only on a frame validate() accepted.
inline Header decode_header(const std::uint8_t* data) {
  Header h;
  h.type = static_cast<MsgType>(data[6]);
  h.src = detail::load<std::int32_t>(data, 8);
  h.handler = detail::load<std::int32_t>(data, 12);
  h.payload_len = detail::load<std::uint32_t>(data, 16);
  return h;
}

/// Validates a frame (header + payload, the length prefix already stripped
/// and consistent with `len`). Returns nullptr when the frame is safe to
/// decode and dispatch, else a static description of the first defect.
/// `places` bounds src; `num_handlers` bounds handler.
/// Never reads past `data + len` and never aborts — the caller decides
/// (the transport aborts; the fuzz suite asserts).
inline const char* validate(const std::uint8_t* data, std::size_t len, int places,
                            int num_handlers) {
  if (len < kHeaderBytes) return "frame shorter than the fixed header";
  if (len > kMaxFrameBytes) return "frame exceeds kMaxFrameBytes";
  if (detail::load<std::uint32_t>(data, 0) != kMagic) return "bad magic word";
  if (data[7] != kVersion) return "unsupported frame version";
  if (data[4] != 0 || data[5] != 0) return "nonzero reserved header byte";
  if (data[6] >= static_cast<std::uint8_t>(kNumMsgTypes)) {
    return "unknown message type";
  }
  const auto src = detail::load<std::int32_t>(data, 8);
  if (src < 0 || src >= places) return "src place out of range";
  const auto payload_len = detail::load<std::uint32_t>(data, 16);
  if (static_cast<std::size_t>(payload_len) != len - kHeaderBytes) {
    return "payload_len disagrees with frame length";
  }
  const auto handler = detail::load<std::int32_t>(data, 12);
  if (handler < 0 || handler >= num_handlers) {
    return "AM handler id out of range";
  }
  return nullptr;
}

}  // namespace x10rt::frame

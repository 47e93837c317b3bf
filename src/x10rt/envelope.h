// Envelope wire format for sender-side message coalescing (ISSUE 3).
//
// The paper's scalable-finish story (§3.1) rests on coalescing control
// messages; AM++ and Conveyor-style aggregation layers do the same for
// general active messages. An *envelope* is the wire unit of that layer:
// one length-prefixed train of (handler, class, payload) records packed by
// the sender and unpacked record-by-record at the destination:
//
//   uint32  record_count
//   repeat record_count times:
//     int32   handler        registered AM handler id
//     uint8   type           MsgType of the record (kept through coalescing)
//     uint32  payload_bytes
//     byte[payload_bytes]    the AM payload, cursor-at-0 for the handler
//
// The count prefix is reserved at open() and patched at close(), so records
// append with no re-copy. Decoding brackets every record with
// position()/seek(): a handler reads its payload sequentially and cannot
// overrun into the next record even if it under-reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "x10rt/message.h"
#include "x10rt/serialization.h"

namespace x10rt::envelope {

/// Fixed cost of the envelope itself (the record-count prefix).
inline constexpr std::size_t kHeaderBytes = sizeof(std::uint32_t);
/// Fixed per-record cost on top of the payload.
inline constexpr std::size_t kRecordHeaderBytes =
    sizeof(std::int32_t) + sizeof(std::uint8_t) + sizeof(std::uint32_t);

/// Accumulates records into one envelope. One Writer per (source,
/// destination) pair lives inside the transport's coalescing layer; tests
/// drive it standalone.
class Writer {
 public:
  /// Starts an envelope in `storage` (typically BufferPool-acquired; must be
  /// logically empty). The writer is "open" until close().
  void open(std::vector<std::byte> storage) {
    buf_ = ByteBuffer{std::move(storage)};
    buf_.put(static_cast<std::uint32_t>(0));  // patched by close()
    records_ = 0;
    open_ = true;
  }

  [[nodiscard]] bool is_open() const { return open_; }
  [[nodiscard]] std::uint32_t records() const { return records_; }
  /// Current wire size of the envelope, headers included.
  [[nodiscard]] std::size_t bytes() const { return open_ ? buf_.size() : 0; }

  void append(int handler, const ByteBuffer& payload,
              MsgType type = MsgType::kControl) {
    buf_.put(static_cast<std::int32_t>(handler));
    buf_.put(static_cast<std::uint8_t>(type));
    buf_.put(static_cast<std::uint32_t>(payload.size()));
    buf_.put_raw(payload.bytes().data(), payload.size());
    ++records_;
  }

  /// Seals the envelope (patches the record count) and hands it over; the
  /// writer is closed afterwards and can be re-open()ed.
  [[nodiscard]] ByteBuffer close() {
    buf_.overwrite(0, records_);
    open_ = false;
    records_ = 0;
    return std::move(buf_);
  }

 private:
  ByteBuffer buf_;
  std::uint32_t records_ = 0;
  bool open_ = false;
};

/// Decodes an envelope in place: `fn(handler, type, buf, len)` runs once per
/// record with the read cursor at the record's payload start; the cursor is
/// forced to the record end afterwards regardless of how much `fn` consumed.
/// Throws std::out_of_range on a truncated or corrupt train *before*
/// invoking the handler on bad bounds. `type` is passed through unchecked
/// (the transport validates it against kNumMsgTypes).
template <typename Fn>
void for_each_record(ByteBuffer& buf, Fn&& fn) {
  buf.rewind();
  const auto count = buf.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto handler = buf.get<std::int32_t>();
    const auto type = static_cast<MsgType>(buf.get<std::uint8_t>());
    const auto len = buf.get<std::uint32_t>();
    if (len > buf.remaining()) {
      throw std::out_of_range("envelope record overruns the train");
    }
    const std::size_t start = buf.position();
    fn(static_cast<int>(handler), type, buf, len);
    buf.seek(start + len);
  }
}

/// Copying decode for tests and tooling: the full record list, payloads
/// duplicated out of the train.
struct Record {
  int handler = -1;
  MsgType type = MsgType::kControl;
  std::vector<std::byte> payload;
};

inline std::vector<Record> decode_copy(ByteBuffer& buf) {
  std::vector<Record> out;
  for_each_record(buf, [&out](int handler, MsgType type, ByteBuffer& b,
                              std::uint32_t len) {
    Record r;
    r.handler = handler;
    r.type = type;
    r.payload.resize(len);
    b.get_raw(r.payload.data(), len);
    out.push_back(std::move(r));
  });
  return out;
}

}  // namespace x10rt::envelope

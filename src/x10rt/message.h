// The X10RT message (paper §3.3): an active message is a registered handler
// id plus serialized payload bytes. That is the only form, whether the
// message stays inside one process or crosses to another; the in-process and
// socket backends differ only in the Backend that moves the bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace x10rt {

/// Classification of messages for statistics and for chaos injection. The
/// paper's scalability story is largely about who sends how many kControl
/// messages; the transport counts every class separately so benches can
/// report the same breakdowns.
enum class MsgType : std::uint8_t {
  kTask,        // a spawned activity (async / at ... async)
  kControl,     // finish termination-detection traffic
  kCollective,  // team barrier/bcast/reduce/alltoall traffic
  kData,        // serialized (non-RDMA) array payloads
  kRdma,        // RDMA completion notifications
  kSteal,       // work-stealing requests/replies (GLB)
  kOther,
};
inline constexpr int kNumMsgTypes = 7;

/// Stable lowercase class name (metric keys, trace-event names).
inline const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kTask: return "task";
    case MsgType::kControl: return "control";
    case MsgType::kCollective: return "collective";
    case MsgType::kData: return "data";
    case MsgType::kRdma: return "rdma";
    case MsgType::kSteal: return "steal";
    case MsgType::kOther: return "other";
  }
  return "?";
}

/// Reliability-header flags on a Message (the `rflags` field). Only the
/// transport's reliability sublayer reads them; they are all zero when the
/// layer is disabled.
inline constexpr std::uint8_t kMsgHasAck = 1;  ///< `ack` field is valid
inline constexpr std::uint8_t kMsgAckOnly = 2; ///< standalone ack, no body
/// Arrived from another process; `src` is the peer (Transport::dispatch_peer).
inline constexpr std::uint8_t kMsgXProc = 8;

/// A registered active-message handler id (Transport::register_am) plus the
/// payload bytes it is invoked with, and the header the transport keeps. The
/// destination scheduler runs it with Transport::dispatch. Copies — the
/// reliability layer's retained retransmit copy, chaos duplicates — share
/// one payload, and dedup lets at most one of them be dispatched.
struct Message {
  int handler = -1;  // unused for standalone acks
  // Handler args.
  std::shared_ptr<std::vector<std::byte>> payload;
  MsgType type = MsgType::kOther;
  std::size_t bytes = 0;
  int src = -1;
  // --- reliability header (docs/transport.md "Reliability") ----------------
  // Per-(src,dst) monotone sequence number, stamped by the transport when the
  // reliability sublayer is armed. 0 = unsequenced: the message bypasses
  // ack/retransmit/dedup entirely (the layer off, standalone acks, or an
  // anonymous source) and chaos never drops or duplicates it.
  std::uint64_t seq = 0;
  // Cumulative ack piggybacked for the reverse direction: "src has delivered
  // every sequence <= ack of dst's traffic". Valid iff rflags & kMsgHasAck.
  std::uint64_t ack = 0;
  std::uint8_t rflags = 0;  // kMsgHasAck | kMsgAckOnly | kMsgXProc
};

}  // namespace x10rt

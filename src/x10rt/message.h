// The X10RT message (paper §3.3): an active message is a registered handler
// id plus serialized payload bytes. That is the only form, whether the
// message stays inside one process or crosses to another; the in-process and
// socket backends differ only in the Backend that moves the bytes.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// A registered active-message handler id (Transport::register_am) plus the
/// payload bytes it is invoked with, and the header the transport keeps. The
/// destination scheduler runs it with Transport::dispatch, which moves the
/// payload into the handler's buffer: every message is delivered exactly
/// once, so nothing else ever holds its bytes.
struct Message {
  int handler = -1;
  std::vector<std::byte> payload;  // handler args
  MsgType type = MsgType::kOther;
  std::size_t bytes = 0;
  int src = -1;
  /// Arrived from another process; `src` is the peer
  /// (Transport::dispatch_peer).
  bool xproc = false;
};

}  // namespace x10rt

// Teams: X10's x10.util.Team collectives (paper §3.3).
//
// Two interchangeable implementations mirror the paper's split between
// hardware collectives and the emulation layer:
//   * kEmulated — point-to-point algorithms over active messages (binomial
//     broadcast/reduce, dissemination barrier, direct alltoall). This is the
//     X10RT emulation layer that "kicks in" when the network has no native
//     support.
//   * kNative   — a shared-memory protocol standing in for PAMI/Torrent
//     hardware collectives (docs/collectives.md): each member publishes its
//     buffer and an epoch in its own slot, peers copy straight out of the
//     published buffers (single copy, no staging, no messages), mark done,
//     and the owner waits for its readers before reusing the buffer.
//
// All operations are collective and blocking: every member place must call
// them in the same program order (SPMD discipline); waiting members keep
// pumping their scheduler, so unrelated activities continue to run.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "runtime/api.h"
#include "runtime/histogram.h"

namespace apgas {

enum class TeamMode { kEmulated, kNative };

enum class ReduceOp { kSum, kMin, kMax };

namespace team_detail {

/// Collective op ids used for trace kTeamBegin/kTeamEnd events (arg a).
enum TeamOp : std::uint64_t {
  kOpBarrier = 0,
  kOpBcast = 1,
  kOpReduce = 2,
  kOpAllreduce = 3,
  kOpScatter = 4,
  kOpGather = 5,
  kOpAlltoall = 6,
  kOpAllgather = 7,
  kOpSplit = 8,
};

/// Stable lowercase op name ("barrier", "bcast", ...; used for the
/// team.op_ns.<op> latency histograms and docs).
const char* op_name(TeamOp op);

/// Records one team.op_ns.<op> latency sample (hist:: layer; resolves the
/// histogram through the current Runtime's MetricsRegistry).
void record_op_ns(TeamOp op, std::uint64_t ns);

/// Brackets one collective call in the flight recorder (arg b = team id) and
/// records its wall-clock into the team.op_ns.<op> histogram when histograms
/// are armed. Nested pairs (allreduce = reduce + bcast) nest properly:
/// waiting members pump the scheduler, so any interleaved activity begins
/// and ends inside — and allreduce contributes reduce + bcast + allreduce
/// samples, one per scope.
struct PhaseScope {
  std::uint64_t op;
  std::uint64_t team;
  std::uint64_t t0 = 0;
  PhaseScope(std::uint64_t op_id, std::uint64_t team_id)
      : op(op_id), team(team_id) {
    trace::emit(trace::Ev::kTeamBegin, op, team);
    if (hist::enabled()) t0 = hist::now_ns();
  }
  ~PhaseScope() {
    trace::emit(trace::Ev::kTeamEnd, op, team);
    if (hist::enabled() && t0 != 0) {
      record_op_ns(static_cast<TeamOp>(op), hist::now_ns() - t0);
    }
  }
};

/// One member's published state for the native protocol, alone on its cache
/// line so spinning peers never false-share another member's epochs. `buf`
/// is the buffer this member offers for the current op; `arrive` and `done`
/// hold the epoch (the member's op sequence number) of the last op in which
/// it published `buf` / finished with its peers' buffers. Epochs only grow,
/// so back-to-back ops never race a reset: a waiter for epoch e is satisfied
/// by e or anything later.
struct alignas(64) Slot {
  std::atomic<const std::byte*> buf{nullptr};
  std::atomic<std::uint64_t> arrive{0};
  std::atomic<std::uint64_t> done{0};
};

struct Member {
  std::mutex mu;
  // (op sequence, phase tag, source rank) -> payload
  std::map<std::tuple<std::uint64_t, int, int>, std::vector<std::byte>> mail;
  // Collective calls in program order: the emulated path's mail key and the
  // native path's epoch. Advanced under `mu`, so consecutive ops of one rank
  // that run on different worker threads are ordered.
  std::uint64_t op_seq = 0;
};

struct TeamState {
  std::uint64_t id = 0;
  TeamMode mode = TeamMode::kEmulated;
  std::vector<int> members;                // rank -> place
  std::unordered_map<int, int> rank_of;    // place -> rank
  std::vector<std::unique_ptr<Member>> per;
  std::vector<Slot> slots;  // rank -> native-path slot (the "hardware")

  explicit TeamState(std::uint64_t team_id, TeamMode m, std::vector<int> mem);
};

std::shared_ptr<TeamState> get_or_create(std::uint64_t id, TeamMode mode,
                                         const std::vector<int>& members);
void registry_clear();  // called between runtimes

}  // namespace team_detail

class Team {
 public:
  /// The team of all places.
  static Team world(TeamMode mode = TeamMode::kEmulated);

  [[nodiscard]] int size() const {
    return static_cast<int>(state_->members.size());
  }
  [[nodiscard]] int rank() const {
    auto it = state_->rank_of.find(here());
    assert(it != state_->rank_of.end() && "place is not a team member");
    return it->second;
  }
  [[nodiscard]] int place_of(int r) const {
    return state_->members[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] TeamMode mode() const { return state_->mode; }

  /// The mode collectives actually dispatch on. kNative's slots and
  /// published buffers cannot cross a process boundary, so under the socket
  /// backend a team declared kNative runs the emulated point-to-point
  /// algorithms instead (mail rides registered frame tasks, which serialize).
  /// The declared mode() is unchanged — the downgrade is a per-call dispatch
  /// decision, mirroring X10RT falling back to the emulation layer when the
  /// network has no native collective support.
  [[nodiscard]] TeamMode effective_mode() const {
    if (state_->mode == TeamMode::kNative && Runtime::active() &&
        Runtime::get().multi_process()) {
      return TeamMode::kEmulated;
    }
    return state_->mode;
  }

  /// Collective barrier.
  void barrier();

  /// Broadcast `n` elements from `root` rank's buffer into every member's.
  template <typename T>
  void bcast(int root, T* buf, std::size_t n);

  /// Element-wise all-reduce in place (reduce to rank 0, then bcast).
  template <typename T>
  void allreduce(T* buf, std::size_t n, ReduceOp op);

  /// Element-wise reduce to `root` rank. On non-roots `buf` is scratch
  /// (clobbered with partial results), as in MPI_Reduce. kNative folds in a
  /// fixed order whatever the arrival order: the root's contribution, then
  /// ranks root+1, root+2, ... wrapping around, left to right — rank order
  /// for root 0 (and so for allreduce).
  template <typename T>
  void reduce(int root, T* buf, std::size_t n, ReduceOp op);

  /// Root's `send` holds size*n elements; every rank receives its n-block.
  template <typename T>
  void scatter(int root, const T* send, T* recv, std::size_t n);

  /// Every rank contributes n elements; root's `recv` gets size*n,
  /// rank-ordered. `recv` may be null on non-roots.
  template <typename T>
  void gather(int root, const T* send, T* recv, std::size_t n);

  /// Each rank contributes `n` elements per destination; recv gets size*n.
  template <typename T>
  void alltoall(const T* send, T* recv, std::size_t n);

  /// Each rank contributes `n` elements; recv gets size*n, rank-ordered.
  template <typename T>
  void allgather(const T* send, T* recv, std::size_t n);

  /// Collective split into sub-teams by color; ranks ordered by (key, rank).
  /// The child team inherits the parent's mode.
  Team split(int color, int key);

 private:
  explicit Team(std::shared_ptr<team_detail::TeamState> s)
      : state_(std::move(s)) {}

  // --- emulated-path primitives ---------------------------------------------
  void send_bytes(std::uint64_t seq, int tag, int dst_rank,
                  std::vector<std::byte> payload);
  std::vector<std::byte> recv_bytes(std::uint64_t seq, int tag, int src_rank);
  std::uint64_t next_seq();

  // --- native-path primitives (docs/collectives.md) -------------------------
  // Every native op is: claim the epoch (next_seq), publish, wait, copy
  // straight from the peers' buffers, mark done, wait. `peer` < 0 addresses
  // every other member, else only rank `peer`.

  /// Claims this op's epoch, publishes `buf` and the epoch as `arrive` in
  /// the caller's slot and wakes `peer`; returns the epoch.
  std::uint64_t native_publish(const void* buf, int peer);
  /// Stores `epoch` as the caller's `done` and wakes `peer`.
  void native_done(std::uint64_t epoch, int peer);
  /// Wakes `peer`'s place if a worker there is parked.
  void native_wake(int peer);
  /// Pumps the scheduler until `peer`'s slot field has reached `epoch`.
  void native_wait(std::atomic<std::uint64_t> team_detail::Slot::*field,
                   std::uint64_t epoch, int peer);
  /// Rank r's published buffer; valid once its `arrive` reached this epoch.
  template <typename T>
  const T* native_buf(int r) const {
    return reinterpret_cast<const T*>(
        state_->slots[static_cast<std::size_t>(r)].buf.load(
            std::memory_order_relaxed));
  }

  template <typename T>
  static void combine(ReduceOp op, T* acc, const T* in, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      switch (op) {
        case ReduceOp::kSum: acc[i] += in[i]; break;
        case ReduceOp::kMin: acc[i] = in[i] < acc[i] ? in[i] : acc[i]; break;
        case ReduceOp::kMax: acc[i] = in[i] > acc[i] ? in[i] : acc[i]; break;
      }
    }
  }

  std::shared_ptr<team_detail::TeamState> state_;
};

// --- template implementations ------------------------------------------------

template <typename T>
void Team::bcast(int root, T* buf, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpBcast, state_->id);
  const int sz = size();
  if (sz == 1) return;
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (effective_mode() == TeamMode::kNative) {
    using team_detail::Slot;
    if (me == root) {
      const std::uint64_t e = native_publish(buf, -1);
      native_wait(&Slot::done, e, -1);
    } else {
      const std::uint64_t e = next_seq();
      native_wait(&Slot::arrive, e, root);
      std::memcpy(buf, native_buf<T>(root), bytes);
      native_done(e, root);
    }
    return;
  }
  // Binomial tree over active messages.
  const std::uint64_t seq = next_seq();
  const int rel = (me - root + sz) % sz;
  int mask = 1;
  while (mask < sz) {
    if (rel & mask) {
      const int src = (rel - mask + root) % sz;
      auto payload = recv_bytes(seq, /*tag=*/0, src);
      assert(payload.size() == bytes);
      std::memcpy(buf, payload.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < sz) {
      const int dst = (rel + mask + root) % sz;
      std::vector<std::byte> payload(bytes);
      std::memcpy(payload.data(), buf, bytes);
      send_bytes(seq, /*tag=*/0, dst, std::move(payload));
    }
    mask >>= 1;
  }
}

template <typename T>
void Team::reduce(int root, T* buf, std::size_t n, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpReduce, state_->id);
  const int sz = size();
  if (sz == 1) return;
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (effective_mode() == TeamMode::kNative) {
    using team_detail::Slot;
    if (me == root) {
      const std::uint64_t e = next_seq();
      native_wait(&Slot::arrive, e, -1);
      // Fold block by block so the accumulator stays in cache while every
      // peer's block streams past it; each element still folds in the fixed
      // order root, root+1, ..., root-1.
      constexpr std::size_t kBlock = 4096 / sizeof(T) > 0 ? 4096 / sizeof(T)
                                                          : 1;
      for (std::size_t lo = 0; lo < n; lo += kBlock) {
        const std::size_t len = std::min(kBlock, n - lo);
        for (int k = 1; k < sz; ++k) {
          combine(op, buf + lo, native_buf<T>((root + k) % sz) + lo, len);
        }
      }
      native_done(e, -1);
    } else {
      const std::uint64_t e = native_publish(buf, root);
      native_wait(&Slot::done, e, root);
    }
    return;
  }
  // Binomial reduce toward the root over relative ranks.
  const std::uint64_t seq = next_seq();
  const int rel = (me - root + sz) % sz;
  int mask = 1;
  while (mask < sz) {
    if ((rel & mask) == 0) {
      const int peer_rel = rel + mask;
      if (peer_rel < sz) {
        auto payload = recv_bytes(seq, /*tag=*/1, (peer_rel + root) % sz);
        combine(op, buf, reinterpret_cast<const T*>(payload.data()), n);
      }
    } else {
      std::vector<std::byte> payload(bytes);
      std::memcpy(payload.data(), buf, bytes);
      send_bytes(seq, /*tag=*/1, (rel - mask + root) % sz,
                 std::move(payload));
      break;
    }
    mask <<= 1;
  }
}

template <typename T>
void Team::allreduce(T* buf, std::size_t n, ReduceOp op) {
  team_detail::PhaseScope phase(team_detail::kOpAllreduce, state_->id);
  const int sz = size();
  if (sz == 1) return;
  reduce(0, buf, n, op);
  bcast(0, buf, n);
}

template <typename T>
void Team::scatter(int root, const T* send, T* recv, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpScatter, state_->id);
  const int sz = size();
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (sz == 1) {
    std::memcpy(recv, send, bytes);
    return;
  }
  if (effective_mode() == TeamMode::kNative) {
    using team_detail::Slot;
    if (me == root) {
      const std::uint64_t e = native_publish(send, -1);
      std::memcpy(recv, send + static_cast<std::size_t>(me) * n, bytes);
      native_wait(&Slot::done, e, -1);
    } else {
      const std::uint64_t e = next_seq();
      native_wait(&Slot::arrive, e, root);
      std::memcpy(recv, native_buf<T>(root) + static_cast<std::size_t>(me) * n,
                  bytes);
      native_done(e, root);
    }
    return;
  }
  const std::uint64_t seq = next_seq();
  if (me == root) {
    for (int r = 0; r < sz; ++r) {
      if (r == me) {
        std::memcpy(recv, send + static_cast<std::size_t>(r) * n, bytes);
        continue;
      }
      std::vector<std::byte> payload(bytes);
      std::memcpy(payload.data(), send + static_cast<std::size_t>(r) * n,
                  bytes);
      send_bytes(seq, /*tag=*/4, r, std::move(payload));
    }
  } else {
    auto payload = recv_bytes(seq, /*tag=*/4, root);
    std::memcpy(recv, payload.data(), bytes);
  }
}

template <typename T>
void Team::gather(int root, const T* send, T* recv, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpGather, state_->id);
  const int sz = size();
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (sz == 1) {
    std::memcpy(recv, send, bytes);
    return;
  }
  if (effective_mode() == TeamMode::kNative) {
    using team_detail::Slot;
    if (me == root) {
      const std::uint64_t e = next_seq();
      native_wait(&Slot::arrive, e, -1);
      for (int r = 0; r < sz; ++r) {
        std::memcpy(recv + static_cast<std::size_t>(r) * n,
                    r == me ? send : native_buf<T>(r), bytes);
      }
      native_done(e, -1);
    } else {
      const std::uint64_t e = native_publish(send, root);
      native_wait(&Slot::done, e, root);
    }
    return;
  }
  const std::uint64_t seq = next_seq();
  if (me == root) {
    std::memcpy(recv + static_cast<std::size_t>(me) * n, send, bytes);
    for (int r = 0; r < sz; ++r) {
      if (r == me) continue;
      auto payload = recv_bytes(seq, /*tag=*/5, r);
      std::memcpy(recv + static_cast<std::size_t>(r) * n, payload.data(),
                  bytes);
    }
  } else {
    std::vector<std::byte> payload(bytes);
    std::memcpy(payload.data(), send, bytes);
    send_bytes(seq, /*tag=*/5, root, std::move(payload));
  }
}

template <typename T>
void Team::alltoall(const T* send, T* recv, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpAlltoall, state_->id);
  const int sz = size();
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (effective_mode() == TeamMode::kNative) {
    // Every member reads its block out of every peer's send buffer.
    using team_detail::Slot;
    const std::uint64_t e = native_publish(send, -1);
    native_wait(&Slot::arrive, e, -1);
    for (int s = 0; s < sz; ++s) {
      std::memcpy(recv + static_cast<std::size_t>(s) * n,
                  native_buf<T>(s) + static_cast<std::size_t>(me) * n, bytes);
    }
    native_done(e, -1);
    native_wait(&Slot::done, e, -1);
    return;
  }
  const std::uint64_t seq = next_seq();
  std::memcpy(recv + static_cast<std::size_t>(me) * n, send + me * n, bytes);
  for (int d = 1; d < sz; ++d) {
    const int dst = (me + d) % sz;
    std::vector<std::byte> payload(bytes);
    std::memcpy(payload.data(), send + static_cast<std::size_t>(dst) * n,
                bytes);
    send_bytes(seq, /*tag=*/2, dst, std::move(payload));
  }
  for (int d = 1; d < sz; ++d) {
    const int src = (me + sz - d) % sz;
    auto payload = recv_bytes(seq, /*tag=*/2, src);
    std::memcpy(recv + static_cast<std::size_t>(src) * n, payload.data(),
                bytes);
  }
}

template <typename T>
void Team::allgather(const T* send, T* recv, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  team_detail::PhaseScope phase(team_detail::kOpAllgather, state_->id);
  const int sz = size();
  const std::size_t bytes = n * sizeof(T);
  const int me = rank();
  if (effective_mode() == TeamMode::kNative) {
    using team_detail::Slot;
    const std::uint64_t e = native_publish(send, -1);
    native_wait(&Slot::arrive, e, -1);
    for (int s = 0; s < sz; ++s) {
      std::memcpy(recv + static_cast<std::size_t>(s) * n, native_buf<T>(s),
                  bytes);
    }
    native_done(e, -1);
    native_wait(&Slot::done, e, -1);
    return;
  }
  const std::uint64_t seq = next_seq();
  std::memcpy(recv + static_cast<std::size_t>(me) * n, send, bytes);
  std::vector<std::byte> mine(bytes);
  std::memcpy(mine.data(), send, bytes);
  for (int d = 1; d < sz; ++d) {
    send_bytes(seq, /*tag=*/3, (me + d) % sz, std::vector<std::byte>(mine));
  }
  for (int d = 1; d < sz; ++d) {
    const int src = (me + sz - d) % sz;
    auto payload = recv_bytes(seq, /*tag=*/3, src);
    std::memcpy(recv + static_cast<std::size_t>(src) * n, payload.data(),
                bytes);
  }
}

}  // namespace apgas

// Distributed arrays and Array.asyncCopy (paper §2.2, §3.3).
//
// An asyncCopy is "treated exactly as if it were an async": its termination
// is tracked by the enclosing finish, which is how X10 programs overlap
// communication and computation. Two data paths mirror the paper's stack:
//   * RDMA  — both ends registered (congruent) memory: the DMA engine moves
//     the bytes with no destination-CPU involvement and posts a completion
//     event to the initiator.
//   * FIFO  — unregistered memory: the payload is serialized into a kData
//     active message and copied out by the destination scheduler.
// Both end in a copy-done message at the initiator. Every one of these
// messages carries process-local pointers, so they stay inside one process.
#pragma once

#include <cassert>

#include "runtime/api.h"

namespace apgas {

/// A reference to `size` elements of T living at `place`. Like a GlobalRef,
/// it may be copied anywhere but its memory only dereferenced at home —
/// except through async_copy / remote ops, which is the point.
template <typename T>
struct GlobalRail {
  int place = -1;
  T* data = nullptr;
  std::size_t size = 0;
};

/// Wraps local memory for export to other places.
template <typename T>
GlobalRail<T> make_global_rail(T* data, std::size_t n) {
  return GlobalRail<T>{here(), data, n};
}

/// View of a congruent allocation at a given place (registered memory, so
/// async_copy takes the RDMA path and remote_xor/add are legal).
template <typename T>
GlobalRail<T> global_rail(const Congruent<T>& c, int place) {
  auto& space = Runtime::get().congruent();
  return GlobalRail<T>{place, space.at_place(place, c), c.count};
}

namespace detail_rail {
// Finish accounting for an asyncCopy modeled as one local async at the
// initiator, and its message paths (defined in finish.cc).
void copy_spawn(const FinCtx& ctx);
void copy_complete(const FinCtx& ctx);
/// The copy-done completion the DMA engine posts for an RDMA copy.
x10rt::Completion copy_completion(const FinCtx& ctx);
/// FIFO put: ships the bytes to `dst`, which copies them to `dst_addr` and
/// answers with copy-done.
void fifo_put(int dst, void* dst_addr, const void* src, std::size_t bytes,
              const FinCtx& ctx);
/// FIFO get: asks `src_place` to reply with the bytes, which copy-done
/// lands at `dst`.
void fifo_get(int src_place, const void* src_addr, void* dst,
              std::size_t bytes, const FinCtx& ctx);
}  // namespace detail_rail

/// Put: copies n elements from local memory into `dst` at dst_off.
/// Non-blocking; completion is governed by the enclosing finish.
template <typename T>
void async_copy(const T* src, GlobalRail<T> dst, std::size_t dst_off,
                std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(dst_off + n <= dst.size);
  auto& tr = Runtime::get().transport();
  FinCtx ctx = current_spawn_ctx();
  detail_rail::copy_spawn(ctx);
  T* dst_addr = dst.data + dst_off;
  const std::size_t bytes = n * sizeof(T);
  if (tr.is_registered(dst.place, dst_addr, bytes)) {
    tr.put(here(), dst.place, dst_addr, src, bytes,
           detail_rail::copy_completion(ctx));
    return;
  }
  detail_rail::fifo_put(dst.place, dst_addr, src, bytes, ctx);
}

/// Get: copies n elements from `src` at src_off into local memory.
template <typename T>
void async_copy(GlobalRail<T> src, std::size_t src_off, T* dst,
                std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  assert(src_off + n <= src.size);
  auto& tr = Runtime::get().transport();
  FinCtx ctx = current_spawn_ctx();
  detail_rail::copy_spawn(ctx);
  const T* src_addr = src.data + src_off;
  const std::size_t bytes = n * sizeof(T);
  if (tr.is_registered(src.place, src_addr, bytes)) {
    tr.get(here(), src.place, dst, src_addr, bytes,
           detail_rail::copy_completion(ctx));
    return;
  }
  detail_rail::fifo_get(src.place, src_addr, dst, bytes, ctx);
}

/// The Torrent "GUPS" feature: remote atomic XOR on registered memory.
inline void remote_xor(const GlobalRail<std::uint64_t>& rail, std::size_t idx,
                       std::uint64_t value) {
  assert(idx < rail.size);
  Runtime::get().transport().remote_xor64(here(), rail.place,
                                          rail.data + idx, value);
}

inline void remote_add(const GlobalRail<std::uint64_t>& rail, std::size_t idx,
                       std::uint64_t value) {
  assert(idx < rail.size);
  Runtime::get().transport().remote_add64(here(), rail.place,
                                          rail.data + idx, value);
}

}  // namespace apgas

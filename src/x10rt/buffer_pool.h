// Pooled wire-buffer storage for X10RT.
//
// Every active message used to heap-allocate a fresh std::vector<std::byte>
// on the send side and free it on the receive side — pure allocator churn on
// the control-plane hot path. The pool is a bounded freelist of cleared
// vectors that keep their capacity: after warm-up, frame encoding and
// handler receive copies run allocation-free. Buffers whose capacity outgrew
// `max_capacity` are dropped rather than retained so one jumbo payload
// cannot pin memory forever.
//
// Thread-safe: senders acquire on their own threads, receivers release on
// theirs. The critical section is a vector push/pop — far cheaper than the
// malloc/free pair it replaces.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace x10rt {

class BufferPool {
 public:
  explicit BufferPool(std::size_t max_retained = 64,
                      std::size_t max_capacity = 1u << 16)
      : max_retained_(max_retained), max_capacity_(max_capacity) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty vector, with capacity retained from a previous release() when
  /// the freelist has one (hit) and freshly default-constructed otherwise
  /// (miss — the first write sizes it).
  [[nodiscard]] std::vector<std::byte> acquire() {
    {
      std::scoped_lock lock(mu_);
      if (!free_.empty()) {
        std::vector<std::byte> out = std::move(free_.back());
        free_.pop_back();
        hits_.fetch_add(1, std::memory_order_relaxed);
        return out;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }

  /// Returns storage to the freelist (cleared, capacity kept). Oversize or
  /// surplus buffers are simply freed.
  void release(std::vector<std::byte>&& v) {
    if (v.capacity() == 0 || v.capacity() > max_capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    v.clear();
    {
      std::scoped_lock lock(mu_);
      if (free_.size() < max_retained_) {
        free_.push_back(std::move(v));
        recycled_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t recycled() const {
    return recycled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t max_retained_;
  std::size_t max_capacity_;
  std::mutex mu_;
  std::vector<std::vector<std::byte>> free_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace x10rt

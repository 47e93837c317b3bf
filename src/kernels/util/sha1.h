// SHA-1 (FIPS 180-1). UTS defines its splittable random stream in terms of
// SHA-1 over (parent state || child index); the paper's X10 code calls a
// native C routine for this, which we provide here from scratch: a portable
// unrolled compression function and, on x86-64 CPUs that report the SHA
// extensions, a SHA-NI one. CPUID picks between them once per process.
// Independent spawn hashes can also run 16 at a time, one per AVX-512 lane.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace kernels {

using Sha1Digest = std::array<std::uint8_t, 20>;

/// One-shot SHA-1 of `len` bytes.
Sha1Digest sha1(const void* data, std::size_t len);

/// SHA-1 of `parent` followed by `i` as a big-endian u32: the UTS child
/// state. The 24-byte message fits one padded block, built here directly.
Sha1Digest sha1_spawn(const Sha1Digest& parent, std::uint32_t i);

/// Up to kLanes spawn hashes in struct-of-arrays form, lane k in column k:
/// its parent digest as five big-endian words in host order
/// (parent[0..4][k]) and its child index (index[k]). sha1_spawn_batch
/// writes the child digest words to child[0..4][k]. Every column starts
/// zeroed, so unused lanes hold defined values.
struct alignas(64) Sha1SpawnBatch {
  static constexpr int kLanes = 16;
  std::uint32_t parent[5][kLanes] = {};
  std::uint32_t index[kLanes] = {};
  std::uint32_t child[5][kLanes] = {};

  void set(int lane, const Sha1Digest& parent_digest, std::uint32_t i) {
    for (int w = 0; w < 5; ++w) {
      std::uint32_t v = 0;
      std::memcpy(&v, &parent_digest[4 * w], sizeof(v));
      if constexpr (std::endian::native == std::endian::little) {
        v = __builtin_bswap32(v);
      }
      parent[w][lane] = v;
    }
    index[lane] = i;
  }

  [[nodiscard]] Sha1Digest digest(int lane) const {
    Sha1Digest d{};
    for (int w = 0; w < 5; ++w) {
      std::uint32_t v = child[w][lane];
      if constexpr (std::endian::native == std::endian::little) {
        v = __builtin_bswap32(v);
      }
      std::memcpy(&d[4 * w], &v, sizeof(v));
    }
    return d;
  }
};

/// sha1_spawn for lanes [0, n) of `batch`, 1 <= n <= kLanes. Child lanes
/// from n on are unspecified afterwards.
void sha1_spawn_batch(Sha1SpawnBatch& batch, int n);

/// The spawn path CPUID selected: "avx512x16" (16 lanes per call),
/// "sha-ni" or "portable" (one lane at a time).
const char* sha1_spawn_path();

/// Hex string of a digest (tests against FIPS known-answer vectors).
std::string sha1_hex(const Sha1Digest& d);

namespace detail {

/// A compression function: folds one 64-byte block, given as its 16
/// big-endian words already in host order, into the state `h`.
using Sha1Compress = void (*)(std::uint32_t h[5], const std::uint32_t w[16]);

/// Portable compression, available everywhere.
void sha1_compress_portable(std::uint32_t h[5], const std::uint32_t w[16]);

/// SHA-NI compression, or nullptr when this CPU or target has none.
Sha1Compress sha1_compress_shani();

/// The compression function `sha1` and `sha1_spawn` use, chosen once from
/// CPUID: SHA-NI when present, otherwise the portable one.
Sha1Compress sha1_compress_selected();

/// `sha1` and `sha1_spawn` through a given compression function.
Sha1Digest sha1_with(Sha1Compress compress, const void* data, std::size_t len);
Sha1Digest sha1_spawn_with(Sha1Compress compress, const Sha1Digest& parent,
                           std::uint32_t i);

/// A batched spawn: hashes lanes [0, n) of `batch`.
using Sha1SpawnBatchFn = void (*)(Sha1SpawnBatch& batch, int n);

/// The 16-lane AVX-512 batch, or nullptr when this CPU or target has none.
Sha1SpawnBatchFn sha1_spawn_batch_avx512();

/// One lane at a time through sha1_compress_selected().
void sha1_spawn_batch_scalar(Sha1SpawnBatch& batch, int n);

/// The batch `sha1_spawn_batch` uses, chosen once from CPUID: AVX-512 when
/// present, otherwise the scalar loop.
Sha1SpawnBatchFn sha1_spawn_batch_selected();

}  // namespace detail

}  // namespace kernels

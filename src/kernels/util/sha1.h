// SHA-1 (FIPS 180-1). UTS defines its splittable random stream in terms of
// SHA-1 over (parent state || child index); the paper's X10 code calls a
// native C routine for this, which we provide here from scratch: a portable
// unrolled compression function and, on x86-64 CPUs that report the SHA
// extensions, a SHA-NI one. CPUID picks between them once per process.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace kernels {

using Sha1Digest = std::array<std::uint8_t, 20>;

/// One-shot SHA-1 of `len` bytes.
Sha1Digest sha1(const void* data, std::size_t len);

/// SHA-1 of `parent` followed by `i` as a big-endian u32: the UTS child
/// state. The 24-byte message fits one padded block, built here directly.
Sha1Digest sha1_spawn(const Sha1Digest& parent, std::uint32_t i);

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

}  // namespace detail

}  // namespace kernels

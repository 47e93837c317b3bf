#include "kernels/util/sha1.h"

#include <cstring>
#include <utility>

#include "kernels/util/cpu.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace kernels {

namespace {

constexpr std::uint32_t kInit[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                    0x10325476u, 0xC3D2E1F0u};

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline std::uint32_t load_be(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

inline void load_block(std::uint32_t w[16], const std::uint8_t* p) {
  for (int i = 0; i < 16; ++i) w[i] = load_be(p + 4 * i);
}

Sha1Digest digest_of(const std::uint32_t h[5]) {
  Sha1Digest out{};
  for (int i = 0; i < 5; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h[i]);
  }
  return out;
}

// Round I of the portable compression. The five working variables rotate
// roles instead of moving: round I's a is v[(80 - I) % 5], its b the next
// slot, and so on, so after 80 rounds every role is back in its own slot.
// w is the 16-word rolling schedule; everything that depends on I is
// resolved at compile time.
template <int I>
inline void portable_round(std::uint32_t (&v)[5], std::uint32_t (&w)[16]) {
  const std::uint32_t a = v[(80 - I) % 5];
  std::uint32_t& b = v[(81 - I) % 5];
  const std::uint32_t c = v[(82 - I) % 5];
  const std::uint32_t d = v[(83 - I) % 5];
  std::uint32_t& e = v[(84 - I) % 5];
  if constexpr (I >= 16) {
    w[I % 16] = rotl(w[(I + 13) % 16] ^ w[(I + 8) % 16] ^ w[(I + 2) % 16] ^
                         w[I % 16],
                     1);
  }
  constexpr std::uint32_t k = I < 20   ? 0x5A827999u
                              : I < 40 ? 0x6ED9EBA1u
                              : I < 60 ? 0x8F1BBCDCu
                                       : 0xCA62C1D6u;
  std::uint32_t f = b ^ c ^ d;  // parity: rounds 20-39 and 60-79
  if constexpr (I < 20) {
    f = d ^ (b & (c ^ d));
  } else if constexpr (I >= 40 && I < 60) {
    f = (b & c) | (d & (b | c));
  }
  e += rotl(a, 5) + f + k + w[I % 16];
  b = rotl(b, 30);
}

template <std::size_t... I>
inline void portable_rounds(std::uint32_t (&v)[5], std::uint32_t (&w)[16],
                            std::index_sequence<I...>) {
  (portable_round<static_cast<int>(I)>(v, w), ...);
}

#if defined(__x86_64__)

#define KERNELS_SHA_NI __attribute__((target("sha,ssse3,sse4.1")))

// Group G of the SHA-NI compression: rounds 4G..4G+3. m[G % 4] holds
// message words 4G..4G+3 (extended in place from group 4 on), prev the
// state before the previous group, whose a gives this group's e.
template <int G>
KERNELS_SHA_NI inline void shani_group(__m128i& abcd, __m128i& prev,
                                       __m128i& e, __m128i (&m)[4]) {
  if constexpr (G >= 4) {
    m[G % 4] = _mm_sha1msg2_epu32(
        _mm_xor_si128(_mm_sha1msg1_epu32(m[G % 4], m[(G + 1) % 4]),
                      m[(G + 2) % 4]),
        m[(G + 3) % 4]);
  }
  if constexpr (G == 0) {
    e = _mm_add_epi32(e, m[0]);
  } else {
    e = _mm_sha1nexte_epu32(prev, m[G % 4]);
  }
  prev = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e, G / 5);
}

template <std::size_t... G>
KERNELS_SHA_NI inline void shani_groups(__m128i& abcd, __m128i& prev,
                                        __m128i& e, __m128i (&m)[4],
                                        std::index_sequence<G...>) {
  (shani_group<static_cast<int>(G)>(abcd, prev, e, m), ...);
}

KERNELS_SHA_NI void compress_shani(std::uint32_t h[5],
                                   const std::uint32_t w[16]) {
  // The instructions want the first word in lane 3: reverse each quadruple.
  const __m128i abcd_in = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  const __m128i e_in = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  __m128i m[4];
  for (int q = 0; q < 4; ++q) {
    m[q] = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + 4 * q)), 0x1B);
  }
  __m128i abcd = abcd_in;
  __m128i prev = abcd_in;
  __m128i e = e_in;
  shani_groups(abcd, prev, e, m, std::make_index_sequence<20>{});
  e = _mm_sha1nexte_epu32(prev, e_in);
  abcd = _mm_shuffle_epi32(_mm_add_epi32(abcd, abcd_in), 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), abcd);
  h[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
}

#undef KERNELS_SHA_NI

// Sixteen spawn hashes at once: lane k of every vector is lane k of the
// batch. Written with GCC/Clang vector extensions; under the AVX-512F
// target the compiler maps the shifts, rotates and boolean functions onto
// 512-bit instructions. The vector type stays inside this function, so no
// signature changes ABI with the target (-Wpsabi).
__attribute__((target("avx512f"))) void spawn_batch_avx512(
    Sha1SpawnBatch& batch, int /*n: all 16 lanes are hashed*/) {
  using V = std::uint32_t __attribute__((vector_size(64)));
  V w[16] = {};
  for (int t = 0; t < 5; ++t) std::memcpy(&w[t], batch.parent[t], sizeof(V));
  std::memcpy(&w[5], batch.index, sizeof(V));
  w[6] += 0x80000000u;
  w[15] += 24 * 8;
  V a = V{} + kInit[0], b = V{} + kInit[1], c = V{} + kInit[2],
    d = V{} + kInit[3], e = V{} + kInit[4];
#pragma GCC unroll 80
  for (int t = 0; t < 80; ++t) {
    if (t >= 16) {
      const V x = w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^
                  w[t & 15];
      w[t & 15] = (x << 1) | (x >> 31);
    }
    V f = b ^ c ^ d;
    std::uint32_t k = t < 40 ? 0x6ED9EBA1u : 0xCA62C1D6u;
    if (t < 20) {
      f = d ^ (b & (c ^ d));
      k = 0x5A827999u;
    } else if (t >= 40 && t < 60) {
      f = (b & c) | (d & (b | c));
      k = 0x8F1BBCDCu;
    }
    const V next = ((a << 5) | (a >> 27)) + f + e + k + w[t & 15];
    e = d;
    d = c;
    c = (b << 30) | (b >> 2);
    b = a;
    a = next;
  }
  const V out[5] = {a + kInit[0], b + kInit[1], c + kInit[2], d + kInit[3],
                    e + kInit[4]};
  for (int t = 0; t < 5; ++t) std::memcpy(batch.child[t], &out[t], sizeof(V));
}

#endif  // __x86_64__

// The spawn message (parent words, index) as its one padded block: 24
// message bytes, then 0x80, zeros and the bit length 192.
void spawn_hash(detail::Sha1Compress compress, const std::uint32_t parent[5],
                std::uint32_t i, std::uint32_t h[5]) {
  std::uint32_t w[16] = {parent[0], parent[1], parent[2], parent[3], parent[4],
                         i, 0x80000000u};
  w[15] = 24 * 8;
  for (int k = 0; k < 5; ++k) h[k] = kInit[k];
  compress(h, w);
}

}  // namespace

namespace detail {

void sha1_compress_portable(std::uint32_t h[5], const std::uint32_t w[16]) {
  std::uint32_t v[5] = {h[0], h[1], h[2], h[3], h[4]};
  std::uint32_t s[16];
  std::memcpy(s, w, sizeof(s));
  portable_rounds(v, s, std::make_index_sequence<80>{});
  for (int i = 0; i < 5; ++i) h[i] += v[i];
}

Sha1Compress sha1_compress_shani() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
      __builtin_cpu_supports("sse4.1")) {
    return &compress_shani;
  }
#endif
  return nullptr;
}

Sha1Compress sha1_compress_selected() {
  static const Sha1Compress chosen = [] {
    const Sha1Compress ni = sha1_compress_shani();
    return ni != nullptr ? ni : &sha1_compress_portable;
  }();
  return chosen;
}

Sha1Digest sha1_with(Sha1Compress compress, const void* data,
                     std::size_t len) {
  std::uint32_t h[5] = {kInit[0], kInit[1], kInit[2], kInit[3], kInit[4]};
  std::uint32_t w[16] = {};
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t remaining = len;
  while (remaining >= 64) {
    load_block(w, p);
    compress(h, w);
    p += 64;
    remaining -= 64;
  }
  // Padding: 0x80, zeros, 64-bit big-endian bit length.
  std::uint8_t tail[128] = {};
  std::memcpy(tail, p, remaining);
  tail[remaining] = 0x80;
  const std::size_t tail_len = remaining + 1 <= 56 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  for (std::size_t off = 0; off < tail_len; off += 64) {
    load_block(w, tail + off);
    compress(h, w);
  }
  return digest_of(h);
}

Sha1Digest sha1_spawn_with(Sha1Compress compress, const Sha1Digest& parent,
                           std::uint32_t i) {
  std::uint32_t p[5] = {};
  for (int k = 0; k < 5; ++k) p[k] = load_be(&parent[4 * k]);
  std::uint32_t h[5] = {};
  spawn_hash(compress, p, i, h);
  return digest_of(h);
}

Sha1SpawnBatchFn sha1_spawn_batch_avx512() {
#if defined(__x86_64__)
  if (cpu_has_avx512f()) return &spawn_batch_avx512;
#endif
  return nullptr;
}

void sha1_spawn_batch_scalar(Sha1SpawnBatch& batch, int n) {
  const Sha1Compress compress = sha1_compress_selected();
  for (int k = 0; k < n; ++k) {
    std::uint32_t p[5] = {};
    for (int t = 0; t < 5; ++t) p[t] = batch.parent[t][k];
    std::uint32_t h[5] = {};
    spawn_hash(compress, p, batch.index[k], h);
    for (int t = 0; t < 5; ++t) batch.child[t][k] = h[t];
  }
}

Sha1SpawnBatchFn sha1_spawn_batch_selected() {
  static const Sha1SpawnBatchFn chosen = [] {
    const Sha1SpawnBatchFn wide = sha1_spawn_batch_avx512();
    return wide != nullptr ? wide : &sha1_spawn_batch_scalar;
  }();
  return chosen;
}

}  // namespace detail

Sha1Digest sha1(const void* data, std::size_t len) {
  return detail::sha1_with(detail::sha1_compress_selected(), data, len);
}

Sha1Digest sha1_spawn(const Sha1Digest& parent, std::uint32_t i) {
  return detail::sha1_spawn_with(detail::sha1_compress_selected(), parent, i);
}

void sha1_spawn_batch(Sha1SpawnBatch& batch, int n) {
  detail::sha1_spawn_batch_selected()(batch, n);
}

const char* sha1_spawn_path() {
  if (detail::sha1_spawn_batch_selected() != &detail::sha1_spawn_batch_scalar) {
    return "avx512x16";
  }
  return detail::sha1_compress_selected() == &detail::sha1_compress_portable
             ? "portable"
             : "sha-ni";
}

std::string sha1_hex(const Sha1Digest& d) {
  static const char* hex = "0123456789abcdef";
  std::string s;
  s.reserve(40);
  for (std::uint8_t b : d) {
    s.push_back(hex[b >> 4]);
    s.push_back(hex[b & 0xf]);
  }
  return s;
}

}  // namespace kernels

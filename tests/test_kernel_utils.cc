// Numeric utilities under the kernels: SHA-1 (FIPS vectors), the UTS
// splittable stream, dgemm/dtrsm, the radix-2 FFT, R-MAT, and the HPCC
// RandomAccess stream.
#include "kernels/util/dgemm.h"
#include "kernels/util/fft1d.h"
#include "kernels/util/hpcc_rng.h"
#include "kernels/util/rmat.h"
#include "kernels/util/sha1.h"
#include "kernels/util/splittable_rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace kernels;

// --- SHA-1 -------------------------------------------------------------------

TEST(Sha1, Fips180KnownAnswers) {
  EXPECT_EQ(sha1_hex(sha1("abc", 3)),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1_hex(sha1("", 0)),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  const std::string two_blocks =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(sha1_hex(sha1(two_blocks.data(), two_blocks.size())),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  std::string a(1000000, 'a');
  EXPECT_EQ(sha1_hex(sha1(a.data(), a.size())),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// Every compression function this CPU can run: the portable one always,
// SHA-NI when CPUID reports it.
std::vector<std::pair<const char*, detail::Sha1Compress>> compressors() {
  std::vector<std::pair<const char*, detail::Sha1Compress>> out = {
      {"portable", &detail::sha1_compress_portable}};
  if (const auto ni = detail::sha1_compress_shani()) {
    out.emplace_back("sha-ni", ni);
  }
  return out;
}

TEST(Sha1, PaddingBoundaries) {
  // Known answers (Python hashlib) for every length 0..130 of the bytes
  // (j * 131 + 7) mod 256: one and two padding blocks, the 55/56 and
  // 119/120 splits, and whole blocks of 64 and 128 bytes.
  static const char* const kKnown[] = {
      "da39a3ee5e6b4b0d3255bfef95601890afd80709",  // 0
      "5d1be7e9dda1ee8896be5b7e34a85ee16452a7b4",  // 1
      "87bdf7294377116e58d64e8564fb0dbc3d007e3d",  // 2
      "09182f082afc61e78585bdfb60501dfe876ccf62",  // 3
      "df8da6b879837a791168c73ea58298bc957cc9ce",  // 4
      "f477b6e2226ca96902f7abf8de076a2f43d59eb1",  // 5
      "9489d990e4da6a12ff3ff3ac88eb6b34acc19105",  // 6
      "fda35b06829798a96146f6e39a7bb3a3b7f13661",  // 7
      "4c249b98f673b08fd395d1d940d7baddae2b50f1",  // 8
      "4af98061c3ae34bb907298d5e8a0f11cd05f66ab",  // 9
      "60133b554d44fc92de054e409e8378cd46e12db7",  // 10
      "f073ed9464499db0cefa750e68fbf30c98c7148f",  // 11
      "9f0a0bc63dc6a446994bee1a4c272405dba753dd",  // 12
      "b976bd6d1355a827967c325323c769b2f85c83e0",  // 13
      "bb1f1d42871f2d949dee2652908311b2184d7365",  // 14
      "6c945a444b17e238b42c3f9add1064fb81e6fdad",  // 15
      "a6cf9f4d54fe155d9c2da7adb4201684ad1eb0c3",  // 16
      "142d36299df7f40153bb9d87f0623f76db5953b7",  // 17
      "926be8b923d9a06daccbaf30f4fabad3eb61a1a0",  // 18
      "edcac383c297ad4d446cf1ab85147fc8e6525b92",  // 19
      "3ca51326ff99e8f7d7f4b5e0210cc6c582838e2a",  // 20
      "4f01449c037cf84c4e9022c6c0dba13bff0dd351",  // 21
      "c08e3c5e97dec7c14313ebcdda823380c089df98",  // 22
      "934f0c02e17d7bff4465c7e630da18b9daa6f3c5",  // 23
      "840d21de00dc70ecf97480f17257eb93aebe72ea",  // 24
      "31357431acccc71905a784407d56fd4e40f245c4",  // 25
      "ddf696d61994c0762691f7be8ec971190c788862",  // 26
      "e14ebc156455b1739a5d8337f7ed66f9c916133e",  // 27
      "7a4ba4b07b917483f6aa09865902377d164bb0b2",  // 28
      "b59d83a444a51f9862952931060ba7e712e194f5",  // 29
      "8425aea0ed107c69aeec9dfdd3306617de89ea92",  // 30
      "8a399906cdc5c958511ed7f410ec3a38c6afdb28",  // 31
      "d6003fc68f098eb57373c6d517085f8501286951",  // 32
      "595a8c994e70395981c9a76d322bcbf465591ddf",  // 33
      "db594be993fc66a5a8e09ab4e96c854aec69a8cb",  // 34
      "07c6307b18b218d29343b28c814252b67265216f",  // 35
      "e64cb82994ccbc09c44b73e11d7247b950357cc9",  // 36
      "7e5717314e06f0e392146c4f7de7bc33f82f1995",  // 37
      "c99c81562a8030bcdbf09de80fea4b556b922768",  // 38
      "5743d45c4ffa0b759a2b11ce4aa12d76e2164ad5",  // 39
      "5eeba7289cda3324bf881b5eedb05919da4b4c71",  // 40
      "d8a6011f94cc9875252068190dcfa3ca700e023d",  // 41
      "95774bded10cafbd8ba714943e5989f58bd80d79",  // 42
      "e3fefb0e8f435bcc62f18fa632462a494cd157a5",  // 43
      "aabfa79d443500c9217f374a444afd88e2208a0d",  // 44
      "c2b536b44a45f608f34be1cbb736c0090ce0094c",  // 45
      "ad6c22fb9c2a890e4dd6e0c4f602e522ccc98c23",  // 46
      "c79c866c87bc12f1d8eaaf82ee57d00499d0a86a",  // 47
      "be052b6e6d3bec9a1e7926fe47cdd0f8d08f9d04",  // 48
      "2a1eeb37d04822acfb5ce1c0262f1d07ccc97481",  // 49
      "59f30638c23f4369b269884d232c173039ccb59c",  // 50
      "52f653cdb7caab4586e5c8e6d3b8f683489bdf14",  // 51
      "f84dcf6c77fb18aa67d8fa72b5528cbaea6070cc",  // 52
      "c82695b77d24a1245215b84b514329458d434c4d",  // 53
      "98f07090d6f1ce7a96869993c40fa5cfa7b5f54e",  // 54
      "9e5a20c2604688df0b1eecf4474b58bfe7227881",  // 55
      "bd367cf3b85dc2cac8f6b4827cb850e4c83c521c",  // 56
      "8f26553b44ae9cd3b816ba1ba43b5ead3ebcf01b",  // 57
      "6847265ba0a0f1447704d5f0e5fd533c95c9d069",  // 58
      "28173f42956380d309df85c67507d8d7459efded",  // 59
      "6ddb2770532df17237e9057334b1db1fd2a96ec3",  // 60
      "cbc66d34be7b16f790ed6c575d75fb6f30104ec1",  // 61
      "d53fcd70b37a22dffd0a07517b4b95a3c32c73df",  // 62
      "a8f606c343b26fa851dfd149f7b12fc2dbf1af34",  // 63
      "1abec92bfbde4197236cfba30b6b61c69d605d88",  // 64
      "362ce7bc4bc2b47979741db349c65fd550840dc3",  // 65
      "57a026a01ab371b2a28d1210e276b608181fd588",  // 66
      "bae5c5c89b7d0408d51b354bd4be1fcc2fb696b4",  // 67
      "111f6d379d881439b772913b0516359dcfff6c5a",  // 68
      "e5b43f75a2a7105e58b392ea922aba395a5c292a",  // 69
      "6c8e85c323503f34b4292f768a82f88351046ac7",  // 70
      "d0747786767ff87d75c2e046d3316a390f103093",  // 71
      "0f6ded8f12c26f64194195af3f8f3e2c5650cb6a",  // 72
      "5080bfc998b8682f224ee136cfa56d12522876ff",  // 73
      "e19c88727310e286444d083e89b0d9f07645a34f",  // 74
      "70e063b53a78b01526da13291d6dd96966be62f7",  // 75
      "a5713c7e6848ace0a08e2b2e67dc5cb9d057cc2b",  // 76
      "bdb7b86eff419ad255caf56086959807eaf33201",  // 77
      "75d3c99eba5e9ca3dad16947d0188a424d624620",  // 78
      "d9a8fcedec26aa3f7e552264dbe50fd6ce0a5e7e",  // 79
      "458e0296675657e49532b3d1ac54c5e1c6700264",  // 80
      "d4fdb77d86d5a4e095bc41de1fa14db0f435b638",  // 81
      "520d7adf8a44fdf9535a96e1cde11fa431c3685d",  // 82
      "0d24073f9463fe23bbd67075ac440be71bf8bbc8",  // 83
      "3ed3ae5bbb716389346af2da250609e8f2121ca3",  // 84
      "5205bdb2e070746db6f0fb651226db0d24943472",  // 85
      "254e8ff04125598dc90b6443bbdf042c1548dbbc",  // 86
      "f0f6a51b935dd57ad964d4633223af91426548a0",  // 87
      "6bca70f234767a44bd8e3a2a76e1263f27c32eb4",  // 88
      "cf03ed37ac507f39ab859353f140fbbe6c00f975",  // 89
      "f0bd960b9101ef97a738bc3570100a4b4c36604d",  // 90
      "1f30c7f5bc642e90da87563d4529f9796727d2e1",  // 91
      "d9a906c407b0492f7c537c6a555cead0224f5a3a",  // 92
      "d176fd8c7f7e4c7df42b3f5499a9f984c9baef97",  // 93
      "64012cd16a46e386e374a587c2388f45f238077b",  // 94
      "01131b1ca69b44dcc4fccd9733923ccbc384bb1c",  // 95
      "afc8dc38404a9087fb3a4d7daa7f48be0392bfa8",  // 96
      "b2272289096b50e89233c10d1dd1a1990414c128",  // 97
      "cd80c53725244c7f94620986036565c66bea5a0d",  // 98
      "40b6eb0ce96cae3193515176fdcc4273b5ebb8b8",  // 99
      "37491fc7a257dc3553dc50447ca35e8a207bd8bc",  // 100
      "0c9f738f03fb805de1edc72b840bb890706cb5df",  // 101
      "52af6d4f51fa52e420f91cca0b654eef272fe16c",  // 102
      "b53fc4e48aa220bea1e89c9656be440a9cf6c424",  // 103
      "719e4cf599fca2e680325b46eb113c672f0ed31e",  // 104
      "be6a61f4a95fd31a0fc4211c554fc947388a190f",  // 105
      "751dba2f20bc99bf8965802ad87fec5548f7b8c8",  // 106
      "b8713f430d30b45a70b79b30cd1f8ff3ab1b4097",  // 107
      "ab75a7e6072722a0c4cf7a3f3050a1850e5c7763",  // 108
      "9ae645d4aea1057347c33da8884ed3976ffc5540",  // 109
      "17497d9c6e7279c236507fd2c6c063f99125880f",  // 110
      "ee5da1791ee51225810b9a5cd402585cb42cbc91",  // 111
      "7df255002406f60edaffe46d7a0c385dab7a81e0",  // 112
      "f44050cb240763f3f6f38eba3906d5c5b1df262d",  // 113
      "899ec4a79e71c6be6fddab65152c351a2b382d6f",  // 114
      "37a7fbb504d71f6f43389226f343cd5686ceb02b",  // 115
      "17845e09b79226c21eaec20225a0fc2ec52a34f5",  // 116
      "3e9edf00cb56aa0ffeef2a751cd56afa62e09b20",  // 117
      "b68c7651e199b0c9825cf3bd4c915ed8a5d85711",  // 118
      "e7ceee9817914eef9ec7001a43033f16a086b7c7",  // 119
      "9c9d46758300bc1f2c6953d4a2652ed72a202cf3",  // 120
      "e72e4a5ff0d7fa35de97f95ac67be917924e7608",  // 121
      "a093e6e09e750c5f0400649f4149c791a23a63e8",  // 122
      "786d4e50ab47220d64aef9de16f830eb78270e5e",  // 123
      "77be42922befafee7eb452903749d6a01158fe0e",  // 124
      "eeeff821e36abfd290cbbbb08c26d98d8beaf144",  // 125
      "1f8f348c773ad5d9af46b7091b7a7322a1e0020f",  // 126
      "89a850084bf6feb514a0355c6691956065d03d7d",  // 127
      "8abf03d87a20327b0a0dfbee98f04a881350d8f4",  // 128
      "736024ac08102e1ca5d7ba68e88e5c4a8745a33d",  // 129
      "52826ff44bc6d28a565aa214ed98a0aa1174d704",  // 130
  };
  std::uint8_t msg[130];
  for (std::size_t j = 0; j < sizeof(msg); ++j) {
    msg[j] = static_cast<std::uint8_t>(j * 131 + 7);
  }
  for (const auto& [name, compress] : compressors()) {
    for (std::size_t len = 0; len <= sizeof(msg); ++len) {
      EXPECT_EQ(sha1_hex(detail::sha1_with(compress, msg, len)), kKnown[len])
          << name << ", " << len << " bytes";
    }
  }
  for (std::size_t len = 0; len <= sizeof(msg); ++len) {
    EXPECT_EQ(sha1_hex(sha1(msg, len)), kKnown[len]) << len << " bytes";
  }
}

TEST(Sha1, SelectionPrefersShaNi) {
  const auto ni = detail::sha1_compress_shani();
  EXPECT_EQ(detail::sha1_compress_selected(),
            ni != nullptr ? ni : &detail::sha1_compress_portable);
}

// 1M chained spawn hashes from root seed 19, child index n * 0x9E3779B9.
Sha1Digest spawn_chain(detail::Sha1Compress compress) {
  Sha1Digest d = UtsNodeState::root(19).digest;
  for (std::uint32_t n = 0; n < 1000000; ++n) {
    d = detail::sha1_spawn_with(compress, d, n * 0x9E3779B9u);
  }
  return d;
}

TEST(Sha1, SpawnChainKnownAnswer) {
  // Final digest of the chain, computed with Python hashlib.
  for (const auto& [name, compress] : compressors()) {
    EXPECT_EQ(sha1_hex(spawn_chain(compress)),
              "6707ecf5d788a4ae44a603416ffebb96fe67d3d0")
        << name;
  }
}

TEST(Sha1, SpawnChainPortableMatchesShaNi) {
  const auto ni = detail::sha1_compress_shani();
  if (ni == nullptr) {
    GTEST_SKIP() << "CPUID reports no SHA extensions; only the portable "
                    "compression function can run here";
  }
  Sha1Digest a = UtsNodeState::root(19).digest;
  Sha1Digest b = a;
  for (std::uint32_t n = 0; n < 1000000; ++n) {
    a = detail::sha1_spawn_with(&detail::sha1_compress_portable, a,
                                n * 0x9E3779B9u);
    b = detail::sha1_spawn_with(ni, b, n * 0x9E3779B9u);
    ASSERT_EQ(a, b) << "diverged at spawn " << n;
  }
}

// --- Batched spawn ---------------------------------------------------------------

// The UtsRng.GoldenDigests children of root(19) (Python hashlib).
const std::pair<std::uint32_t, const char*> kGoldenChildren[] = {
    {0u, "d97552852c71ea21d84bcea8c928f2a750929d72"},
    {1u, "2f04c0c48b23582afec1a28e37cfbe18818f9931"},
    {7u, "7063f9698304a43865b3ed182c2143fe03909730"},
    {0xFFFFFFFFu, "5957231ba02de641fcf34c4984a7c186b26ae0c8"},
};

Sha1Digest random_digest(std::mt19937& rng) {
  Sha1Digest d;
  for (auto& byte : d) byte = static_cast<std::uint8_t>(rng());
  return d;
}

// Every golden child in every lane, the other lanes junk, through full
// batches and through partial ones that end at that lane.
void expect_golden_in_every_lane(detail::Sha1SpawnBatchFn fn) {
  const Sha1Digest root = UtsNodeState::root(19).digest;
  std::mt19937 rng(42);
  for (const auto& [i, hex] : kGoldenChildren) {
    for (int lane = 0; lane < Sha1SpawnBatch::kLanes; ++lane) {
      for (const int n : {Sha1SpawnBatch::kLanes, lane + 1}) {
        Sha1SpawnBatch batch;
        for (int k = 0; k < Sha1SpawnBatch::kLanes; ++k) {
          batch.set(k, random_digest(rng), static_cast<std::uint32_t>(rng()));
        }
        batch.set(lane, root, i);
        fn(batch, n);
        EXPECT_EQ(sha1_hex(batch.digest(lane)), hex)
            << "child " << i << " in lane " << lane << " of " << n;
      }
    }
  }
}

// `pairs` random (parent, index) lanes in partial batches of 1-16 lanes,
// junk beyond the batch, each lane checked against every compression
// function's sha1_spawn.
void expect_batch_matches_scalar(detail::Sha1SpawnBatchFn fn,
                                 std::uint32_t seed, int pairs) {
  std::mt19937 rng(seed);
  Sha1SpawnBatch batch;
  Sha1Digest parents[Sha1SpawnBatch::kLanes];
  for (int done = 0; done < pairs;) {
    const int n = 1 + static_cast<int>(rng() % Sha1SpawnBatch::kLanes);
    for (int k = 0; k < Sha1SpawnBatch::kLanes; ++k) {
      parents[k] = random_digest(rng);
      batch.set(k, parents[k], static_cast<std::uint32_t>(rng()));
    }
    fn(batch, n);
    for (int k = 0; k < n; ++k, ++done) {
      for (const auto& [name, compress] : compressors()) {
        ASSERT_EQ(batch.digest(k), detail::sha1_spawn_with(compress, parents[k],
                                                           batch.index[k]))
            << name << ", seed " << seed << ", pair " << done << " (lane " << k
            << " of " << n << ")";
      }
    }
  }
}

TEST(Sha1, SpawnBatchSelectionPrefersAvx512) {
  const auto wide = detail::sha1_spawn_batch_avx512();
  EXPECT_EQ(detail::sha1_spawn_batch_selected(),
            wide != nullptr ? wide : &detail::sha1_spawn_batch_scalar);
  const std::string path = sha1_spawn_path();
  if (wide != nullptr) {
    EXPECT_EQ(path, "avx512x16");
  } else if (detail::sha1_compress_shani() != nullptr) {
    EXPECT_EQ(path, "sha-ni");
  } else {
    EXPECT_EQ(path, "portable");
  }
}

TEST(Sha1, SpawnBatchScalarGoldenInEveryLane) {
  expect_golden_in_every_lane(&detail::sha1_spawn_batch_scalar);
}

TEST(Sha1, SpawnBatchScalarMatchesSpawn) {
  expect_batch_matches_scalar(&detail::sha1_spawn_batch_scalar, 7, 100000);
}

TEST(Sha1, SpawnBatchAvx512GoldenInEveryLane) {
  const auto wide = detail::sha1_spawn_batch_avx512();
  if (wide == nullptr) {
    GTEST_SKIP() << "CPUID reports no AVX-512F; the 16-lane batch cannot run "
                    "here (the scalar batch is tested on its own)";
  }
  expect_golden_in_every_lane(wide);
}

TEST(Sha1, SpawnBatchAvx512MatchesPortableAndShaNi) {
  const auto wide = detail::sha1_spawn_batch_avx512();
  if (wide == nullptr) {
    GTEST_SKIP() << "CPUID reports no AVX-512F; the 16-lane batch cannot run "
                    "here (the scalar batch is tested on its own)";
  }
  expect_batch_matches_scalar(wide, 19, 1000000);
}

// --- UTS splittable stream -----------------------------------------------------

TEST(UtsRng, DeterministicTreeShape) {
  const auto root = UtsNodeState::root(19);
  const auto again = UtsNodeState::root(19);
  EXPECT_EQ(root.digest, again.digest);
  EXPECT_EQ(root.spawn(3).digest, again.spawn(3).digest);
  EXPECT_NE(root.spawn(0).digest, root.spawn(1).digest);
}

TEST(UtsRng, GoldenDigests) {
  // Python hashlib: sha1(pack(">I", 19)) and sha1(root + pack(">I", i)).
  const auto root = UtsNodeState::root(19);
  EXPECT_EQ(sha1_hex(root.digest), "57eaa9251a33407fcc82545443a8f191b9bd84be");
  for (const auto& [i, hex] : kGoldenChildren) {
    EXPECT_EQ(sha1_hex(root.spawn(i).digest), hex) << "child " << i;
    for (const auto& [name, compress] : compressors()) {
      EXPECT_EQ(sha1_hex(detail::sha1_spawn_with(compress, root.digest, i)),
                hex)
          << name << ", child " << i;
    }
  }
}

TEST(UtsRng, ProbabilitiesInRange) {
  auto s = UtsNodeState::root(19);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto child = s.spawn(i);
    const double p = child.to_prob();
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(UtsRng, GeometricMeanNearB0) {
  // The geometric child-count distribution has mean ~b0.
  const double b0 = 4.0;
  auto s = UtsNodeState::root(7);
  double total = 0;
  constexpr int kSamples = 5000;
  for (std::uint32_t i = 0; i < kSamples; ++i) {
    total +=
        uts_geo_children(s.spawn(i).to_prob(), 0, uts_geo_log_q(b0), 100);
  }
  const double mean = total / kSamples;
  EXPECT_NEAR(mean, b0, 0.35);
}

TEST(UtsRng, DepthCutoffStopsGrowth) {
  auto s = UtsNodeState::root(19);
  EXPECT_EQ(uts_geo_children(s.to_prob(), 5, uts_geo_log_q(4.0), 5), 0);
  EXPECT_EQ(uts_geo_children(s.to_prob(), 6, uts_geo_log_q(4.0), 5), 0);
}

// --- dgemm / dtrsm --------------------------------------------------------------

TEST(Dgemm, MatchesNaive) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(-1, 1);
  const std::size_t m = 37, n = 29, k = 41;
  std::vector<double> a(m * k), b(k * n), c(m * n, 0), ref(m * n, 0);
  for (auto& v : a) v = u(rng);
  for (auto& v : b) v = u(rng);
  dgemm_acc(m, n, k, a.data(), k, b.data(), n, c.data(), n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        ref[i * n + j] += a[i * k + kk] * b[kk * n + j];
      }
    }
  }
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

TEST(Dgemm, SubIsNegatedAcc) {
  const std::size_t m = 8, n = 8, k = 8;
  std::vector<double> a(m * k, 0.5), b(k * n, 2.0), c1(m * n, 1.0),
      c2(m * n, 1.0);
  dgemm_acc(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
  dgemm_sub(m, n, k, a.data(), k, b.data(), n, c2.data(), n);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_DOUBLE_EQ(c1[i] - 1.0, -(c2[i] - 1.0));
  }
}

TEST(Dtrsm, SolvesUnitLowerSystem) {
  // L (unit lower) * X = B  =>  dtrsm overwrites B with X.
  const std::size_t k = 5, n = 3;
  std::vector<double> l = {
      1, 0, 0, 0, 0,
      2, 1, 0, 0, 0,
      -1, 3, 1, 0, 0,
      0.5, -2, 1, 1, 0,
      1, 1, 1, 1, 1,
  };
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> u(-1, 1);
  std::vector<double> x_true(k * n);
  for (auto& v : x_true) v = u(rng);
  std::vector<double> b(k * n, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t p = 0; p <= i; ++p) {
      const double lip = p == i ? 1.0 : l[i * k + p];
      for (std::size_t j = 0; j < n; ++j) b[i * n + j] += lip * x_true[p * n + j];
    }
  }
  dtrsm_lower_unit(k, n, l.data(), k, b.data(), n);
  for (std::size_t i = 0; i < k * n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-12);
}

// --- FFT ------------------------------------------------------------------------

TEST(Fft1d, MatchesNaiveDft) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(-1, 1);
  for (std::size_t n : {2u, 8u, 64u, 256u}) {
    std::vector<Complex> x(n);
    for (auto& v : x) v = Complex(u(rng), u(rng));
    auto ref = dft_naive(x.data(), n);
    fft_forward(x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(x[i] - ref[i]), 0.0, 1e-9) << "n=" << n;
    }
  }
}

TEST(Fft1d, InverseRoundTrip) {
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> u(-1, 1);
  std::vector<Complex> x(512);
  for (auto& v : x) v = Complex(u(rng), u(rng));
  auto orig = x;
  fft_forward(x.data(), x.size());
  fft_inverse(x.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-10);
  }
}

TEST(Fft1d, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> x(16, Complex(0, 0));
  x[0] = Complex(1, 0);
  fft_forward(x.data(), x.size());
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - Complex(1, 0)), 0.0, 1e-12);
}

// --- R-MAT ----------------------------------------------------------------------

TEST(Rmat, GeneratesRequestedShape) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 8;
  auto g = rmat_generate(p);
  EXPECT_EQ(g.num_vertices, 256);
  // Self-loops dropped, so slightly under edge_factor * V.
  EXPECT_GT(g.num_edges(), 200 * 8);
  EXPECT_LE(g.num_edges(), 256 * 8);
  // CSR is internally consistent.
  EXPECT_EQ(g.offsets.front(), 0);
  EXPECT_EQ(static_cast<std::size_t>(g.offsets.back()), g.adjacency.size());
}

TEST(Rmat, UndirectedSymmetry) {
  RmatParams p;
  p.scale = 6;
  auto g = rmat_generate(p);
  // Degree sum equals 2x edges and every adjacency entry is a valid vertex.
  std::int64_t total = 0;
  for (std::int64_t v = 0; v < g.num_vertices; ++v) total += g.degree(v);
  EXPECT_EQ(total, 2 * g.num_edges());
  for (auto w : g.adjacency) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, g.num_vertices);
  }
}

TEST(Rmat, SkewedDegreeDistribution) {
  RmatParams p;
  p.scale = 10;
  auto g = rmat_generate(p);
  std::int64_t max_deg = 0;
  for (std::int64_t v = 0; v < g.num_vertices; ++v) {
    max_deg = std::max(max_deg, g.degree(v));
  }
  const double avg = 2.0 * g.num_edges() / g.num_vertices;
  EXPECT_GT(static_cast<double>(max_deg), 4 * avg)
      << "R-MAT should produce hubs";
}

TEST(Rmat, DeterministicForSeed) {
  RmatParams p;
  p.scale = 6;
  auto g1 = rmat_generate(p);
  auto g2 = rmat_generate(p);
  EXPECT_EQ(g1.adjacency, g2.adjacency);
  p.seed += 1;
  auto g3 = rmat_generate(p);
  EXPECT_NE(g1.adjacency, g3.adjacency);
}

// --- HPCC RNG -------------------------------------------------------------------

TEST(HpccRng, StartsMatchesSequentialWalk) {
  // starts(n) must equal n applications of the step map from starts(0).
  std::uint64_t walk = hpcc_starts(0);
  for (std::int64_t n = 1; n <= 300; ++n) {
    walk = hpcc_next(walk);
    ASSERT_EQ(hpcc_starts(n), walk) << "n=" << n;
  }
}

TEST(HpccRng, JumpAheadConsistency) {
  // starts(a+b) reachable by walking b steps from starts(a).
  for (auto [a, b] : {std::pair<long, long>{1000, 37},
                      {123456, 789}, {1, 1}}) {
    std::uint64_t x = hpcc_starts(a);
    for (long i = 0; i < b; ++i) x = hpcc_next(x);
    EXPECT_EQ(x, hpcc_starts(a + b));
  }
}

TEST(HpccRng, StreamExercisesEveryBitAndRepeatsNothingSoon) {
  // The GF(2) stream is not popcount-balanced (its orbit is a proper
  // subgroup — true of real HPCC too); what RandomAccess needs is that
  // every table-index bit varies and that short windows don't repeat.
  std::uint64_t x = hpcc_starts(5000);
  std::uint64_t seen_set = 0;
  std::uint64_t seen_clear = 0;
  std::set<std::uint64_t> values;
  constexpr int kSamples = 4096;
  for (int i = 0; i < kSamples; ++i) {
    x = hpcc_next(x);
    seen_set |= x;
    seen_clear |= ~x;
    values.insert(x);
  }
  EXPECT_EQ(seen_set, ~0ULL) << "every bit position takes value 1";
  EXPECT_EQ(seen_clear, ~0ULL) << "every bit position takes value 0";
  EXPECT_EQ(values.size(), static_cast<std::size_t>(kSamples))
      << "no repeats within a short window";
}

}  // namespace

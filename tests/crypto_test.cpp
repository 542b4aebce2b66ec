// ChaCha20 (against RFC 8439 vectors), PRG, Diffie–Hellman key agreement
// and the primality checker validating the hard-coded group.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "coding/mask_codec.h"
#include "common/rng.h"
#include "crypto/chacha20.h"
#include "crypto/key_agreement.h"
#include "crypto/prg.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/random_field.h"
#include "field/simd/dispatch.h"

#include "primality.h"

namespace {

using namespace lsa::crypto;
using lsa::field::Fp32;
using lsa::field::Fp61;
using lsa::field::Goldilocks;
namespace simd = lsa::field::simd;

/// FNV-1a over the little-endian bytes of each rep.
template <class Rep>
std::uint64_t fnv1a(std::span<const Rep> v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Rep x : v) {
    for (std::size_t b = 0; b < sizeof(Rep); ++b) {
      h ^= (static_cast<std::uint64_t>(x) >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Digest of fill_uniform<F> over a fresh Prg(seed_from_u64(seed)).
template <class F>
std::uint64_t prg_fill_digest(std::uint64_t seed, std::size_t d) {
  Prg prg(seed_from_u64(seed));
  std::vector<typename F::rep> v(d);
  lsa::field::fill_uniform<F>(std::span<typename F::rep>(v), prg);
  return fnv1a(std::span<const typename F::rep>(v));
}

/// The one-block Prg the mask stream is defined by: blocks at counters
/// 0, 1, 2, ... of (key = seed, nonce = stream id), a 64-bit draw never
/// straddles a block (a partial tail is dropped), bytes do.
class ReferencePrg {
 public:
  explicit ReferencePrg(const Seed& seed, std::uint64_t stream_id = 0) {
    std::memcpy(key_.data(), seed.data(), 32);
    std::memcpy(nonce_.data(), &stream_id, 8);
  }
  std::uint64_t next_u64() {
    if (pos_ + 8 > 64) refill();
    std::uint64_t v;
    std::memcpy(&v, buf_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  std::uint8_t next_byte() {
    if (pos_ == 64) refill();
    return buf_[pos_++];
  }
  /// The 64-bit rejection sampler: draws at or above the largest multiple
  /// of q below 2^64 are skipped.
  template <class F>
  typename F::rep uniform() {
    constexpr std::uint64_t q = F::modulus;
    constexpr std::uint64_t limit = (~0ull / q) * q;
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return static_cast<typename F::rep>(v % q);
  }

 private:
  void refill() {
    chacha20_block(key_, counter_++, nonce_, buf_);
    pos_ = 0;
  }
  ChaChaKey key_{};
  ChaChaNonce nonce_{};
  std::uint32_t counter_ = 0;
  std::array<std::uint8_t, 64> buf_{};
  std::size_t pos_ = 64;
};

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2 test vector.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  std::array<std::uint8_t, 64> out;
  chacha20_block(key, 1, nonce, out);
  const std::uint8_t expected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  EXPECT_EQ(0, std::memcmp(out.data(), expected, 64));
}

/// The RFC 8439 input state U32Kernels::chacha20_blocks takes.
std::array<std::uint32_t, 16> chacha_state(const ChaChaKey& key,
                                           const ChaChaNonce& nonce,
                                           std::uint32_t counter) {
  const auto le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  };
  std::array<std::uint32_t, 16> s = {0x61707865u, 0x3320646eu, 0x79622d32u,
                                     0x6b206574u};
  for (int i = 0; i < 8; ++i) s[4 + i] = le32(key.data() + 4 * i);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[13 + i] = le32(nonce.data() + 4 * i);
  return s;
}

TEST(ChaCha20, Rfc8439EncryptionKeystream) {
  // RFC 8439 §2.4.2: the keystream from counter 1 is ciphertext XOR
  // plaintext.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const char plaintext[] =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const std::uint8_t ciphertext[114] = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
      0xdd, 0x0d, 0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2,
      0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5,
      0x52, 0x47, 0x33, 0xab, 0x8f, 0x59, 0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57,
      0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab, 0x8f, 0x53, 0x0c, 0x35,
      0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d, 0x6a, 0x61,
      0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
      0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36,
      0x5a, 0xf9, 0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed,
      0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d};
  static_assert(sizeof(plaintext) == 114 + 1);
  for (const auto policy :
       {simd::SimdPolicy::kAuto, simd::SimdPolicy::kForceScalar}) {
    const simd::ScopedSimdPolicy scope(policy);
    std::array<std::uint8_t, 128> ks;
    chacha20_blocks(key, nonce, 1, ks);
    for (std::size_t i = 0; i < 114; ++i) {
      ASSERT_EQ(ks[i], ciphertext[i] ^ static_cast<std::uint8_t>(plaintext[i]))
          << "byte " << i;
    }
  }
}

TEST(ChaCha20, MultiBlockMatchesBlockFunctionAtEveryLevel) {
  lsa::common::Xoshiro256ss rng(8439);
  const std::size_t counts[] = {0, 1, 7, 8, 9, 15, 16, 17, 33};
  for (int trial = 0; trial < 4; ++trial) {
    ChaChaKey key;
    ChaChaNonce nonce;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.next_u64());
    // Trial 0 starts 11 blocks below 2^32: the counter wraps to 0 inside
    // every run longer than 11 blocks, as a 32-bit counter_++ does.
    const std::uint32_t counter =
        trial == 0 ? 0xFFFFFFF5u : static_cast<std::uint32_t>(rng.next_u64());
    const auto state = chacha_state(key, nonce, counter);
    for (const std::size_t nb : counts) {
      std::vector<std::uint8_t> want(64 * nb);
      for (std::size_t b = 0; b < nb; ++b) {
        chacha20_block(key, counter + static_cast<std::uint32_t>(b), nonce,
                       std::span<std::uint8_t, 64>(want.data() + 64 * b, 64));
      }
      // The output starts one byte into a guarded buffer: not 64-byte
      // aligned, and a store past 64 * nb bytes shows in the guard.
      const auto check = [&](const char* what, const auto& run) {
        std::vector<std::uint8_t> buf(want.size() + 65, 0xA5);
        run(buf.data() + 1);
        ASSERT_EQ(buf[0], 0xA5) << what;
        ASSERT_TRUE(std::equal(want.begin(), want.end(), buf.begin() + 1))
            << what << " nblocks=" << nb << " trial=" << trial;
        for (std::size_t i = want.size() + 1; i < buf.size(); ++i) {
          ASSERT_EQ(buf[i], 0xA5) << what << " overran nblocks=" << nb;
        }
      };
      for (const simd::Level level :
           {simd::Level::kNeon, simd::Level::kAvx2, simd::Level::kAvx512}) {
        const auto* k = simd::u32_kernels(level);
        if (k == nullptr || k->chacha20_blocks == nullptr) continue;
        check(simd::level_name(level), [&](std::uint8_t* out) {
          k->chacha20_blocks(state.data(), out, nb);
        });
      }
      const auto entry = [&](std::uint8_t* out) {
        chacha20_blocks(key, nonce, counter,
                        std::span<std::uint8_t>(out, want.size()));
      };
      check("dispatched", entry);
      const simd::ScopedSimdPolicy forced(simd::SimdPolicy::kForceScalar);
      check("forced scalar", entry);
    }
  }
}

TEST(ChaCha20, MultiBlockRejectsPartialBlocks) {
  std::array<std::uint8_t, 65> out;
  EXPECT_THROW(chacha20_blocks(ChaChaKey{}, ChaChaNonce{}, 0, out),
               lsa::ConfigError);
}

TEST(ChaCha20, StreamMatchesBlockConcatenation) {
  ChaChaKey key{};
  key[0] = 0xab;
  ChaChaNonce nonce{};
  std::vector<std::uint8_t> stream(200);
  chacha20_stream(key, nonce, 0, stream);
  std::array<std::uint8_t, 64> block;
  for (std::size_t b = 0; b * 64 < stream.size(); ++b) {
    chacha20_block(key, static_cast<std::uint32_t>(b), nonce, block);
    const std::size_t n = std::min<std::size_t>(64, stream.size() - b * 64);
    EXPECT_EQ(0, std::memcmp(stream.data() + b * 64, block.data(), n));
  }
}

TEST(Prg, DeterministicAndSeedSensitive) {
  Prg a(seed_from_u64(1)), b(seed_from_u64(1)), c(seed_from_u64(2));
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Prg, StreamIdGivesIndependentStreams) {
  Prg a(seed_from_u64(5), 0), b(seed_from_u64(5), 1);
  bool diverged = false;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u64() != b.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Prg, FillBytesMatchesNextU64Stream) {
  Prg a(seed_from_u64(7));
  Prg b(seed_from_u64(7));
  std::vector<std::uint8_t> bytes(40);
  a.fill_bytes(bytes);
  for (int i = 0; i < 5; ++i) {
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + 8 * i, 8);
    EXPECT_EQ(v, b.next_u64());
  }
}

// Golden digests of the mask stream, recorded with the one-block scalar
// Prg. Session-vs-Network parity tests draw from Prg on both sides and
// would shift together; these pin the stream itself.
TEST(Prg, MaskStreamGoldenDigests) {
  struct Golden {
    std::uint64_t seed;
    std::size_t d;
    std::uint64_t digest;
  };
  const Golden fp32[] = {
      {0x1, 1, 0x988f94cf4893a7aaull},
      {0x1, 7, 0x01174a8d795f247dull},
      {0x1, 8, 0x495562bde2f0f402ull},
      {0x1, 9, 0x882d669f31257581ull},
      {0x1, 127, 0x08d2515d576d72d8ull},
      {0x1, 128, 0xd2bc75cb523cefa1ull},
      {0x1, 129, 0xc42d0e2df506dba1ull},
      {0x1, 197, 0x9506a3d289f6404cull},
      {0x1, 7850, 0xfef028429b767307ull},
      {0x1, 603295, 0xb66dde2e0c9692f8ull},
      {0x1, 1206590, 0x7e0f66f48f0bed39ull},
      {0x5eed, 1, 0xe986b24bf89f834full},
      {0x5eed, 7, 0xffa5e9e4c4d70260ull},
      {0x5eed, 8, 0xfcc20ddfcb284614ull},
      {0x5eed, 9, 0xfcbf092b1f78a6bbull},
      {0x5eed, 127, 0x5df98ee33e82d11full},
      {0x5eed, 128, 0x51017732e4940987ull},
      {0x5eed, 129, 0x0ad538051e5c4c08ull},
      {0x5eed, 197, 0xac63c32ead09fd46ull},
      {0x5eed, 7850, 0xc082300e4467ca0full},
      {0x5eed, 603295, 0xe31a0d3f0878c4cfull},
      {0x5eed, 1206590, 0x9efa45e4ee0d8c84ull},
      {0xdecafbad, 1, 0x4aacf94b391cafa5ull},
      {0xdecafbad, 7, 0x1d4c277f006b5a51ull},
      {0xdecafbad, 8, 0xabc22f100af0684aull},
      {0xdecafbad, 9, 0xc4bc5e02536cb420ull},
      {0xdecafbad, 127, 0x5584a87b36685c6dull},
      {0xdecafbad, 128, 0xdc1ee5524625ea35ull},
      {0xdecafbad, 129, 0xfa3e9b844a4e70b7ull},
      {0xdecafbad, 197, 0xc4a8bb135ddc71b6ull},
      {0xdecafbad, 7850, 0x04b81cb6f748607aull},
      {0xdecafbad, 603295, 0xf0f1c704200a4027ull},
      {0xdecafbad, 1206590, 0x93b7284b3172c110ull},
  };
  for (const auto policy :
       {simd::SimdPolicy::kAuto, simd::SimdPolicy::kForceScalar}) {
    const simd::ScopedSimdPolicy scope(policy);
    const int forced = policy == simd::SimdPolicy::kForceScalar ? 1 : 0;
    for (const auto& g : fp32) {
      EXPECT_EQ(prg_fill_digest<Fp32>(g.seed, g.d), g.digest)
          << "Fp32 seed=" << g.seed << " d=" << g.d << " forced=" << forced;
    }
    EXPECT_EQ(prg_fill_digest<Fp61>(61, 7850), 0xba9aaddc7018405full)
        << "forced=" << forced;
    EXPECT_EQ(prg_fill_digest<Goldilocks>(64, 7850), 0x0799364a7b8a9c67ull)
        << "forced=" << forced;
  }
}

TEST(Prg, EncodeIntoShareArenaGoldenDigest) {
  // A user's offline stage: mask first, then the codec's T noise segments
  // continue the same stream mid-block.
  lsa::coding::MaskCodec<Fp32> codec(20, 14, 10, 500);
  Prg prg(seed_from_u64(0x5eed));
  std::vector<Fp32::rep> mask(500);
  lsa::field::fill_uniform<Fp32>(std::span<Fp32::rep>(mask), prg);
  lsa::field::FlatMatrix<Fp32> shares(20, codec.segment_len());
  codec.encode_into(std::span<const Fp32::rep>(mask), prg, shares);
  EXPECT_EQ(fnv1a(std::span<const Fp32::rep>(shares.flat())), 0x564dbdfbd739de4eull);
}

TEST(Prg, MixedCallsMatchOneBlockReference) {
  // An odd-length fill_bytes puts the draws off the 8-byte grid: the draw
  // that would straddle block 0's end must start at block 1 instead.
  Prg prg(seed_from_u64(0xabc), 3);
  ReferencePrg ref(seed_from_u64(0xabc), 3);
  std::vector<std::uint8_t> bytes(13);
  prg.fill_bytes(bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(bytes[i], ref.next_byte()) << "byte " << i;
  }
  ASSERT_EQ(prg.next_u64(), ref.next_u64());
  std::vector<Fp32::rep> v(197);
  for (int fill = 0; fill < 3; ++fill) {
    lsa::field::fill_uniform<Fp32>(std::span<Fp32::rep>(v), prg);
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i], ref.uniform<Fp32>()) << "fill " << fill << " i=" << i;
    }
  }
  ASSERT_EQ(prg.next_u64(), ref.next_u64());
}

TEST(Prg, FillU64MatchesOneBlockReference) {
  // Runs that end mid-block and cross batch boundaries, with byte fills
  // of odd and even length in between.
  Prg prg(seed_from_u64(0xf11), 9);
  ReferencePrg ref(seed_from_u64(0xf11), 9);
  const std::size_t runs[] = {1, 7, 127, 128, 129, 300, 2048 + 5, 3};
  for (std::size_t r = 0; r < std::size(runs); ++r) {
    std::vector<std::uint64_t> v(runs[r]);
    prg.fill_u64(v);
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i], ref.next_u64()) << "run " << r << " i=" << i;
    }
    std::vector<std::uint8_t> bytes(r + 3);
    prg.fill_bytes(bytes);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      ASSERT_EQ(bytes[i], ref.next_byte()) << "run " << r << " byte " << i;
    }
  }
}

TEST(Prg, DeriveSubseedSeparatesDomains) {
  const auto parent = seed_from_u64(99);
  const auto s1 = derive_subseed(parent, 1);
  const auto s2 = derive_subseed(parent, 2);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s1, derive_subseed(parent, 1));  // deterministic
}

TEST(Primality, KnownPrimesAndComposites) {
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(4294967291ull));            // 2^32 - 5 (Fp32)
  EXPECT_TRUE(is_prime_u64(2305843009213693951ull));   // 2^61 - 1 (Fp61)
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_FALSE(is_prime_u64(4294967291ull * 3));
  EXPECT_FALSE(is_prime_u64((1ull << 61) - 3));
}

TEST(KeyAgreement, GroupParametersAreValid) {
  // The hard-coded group must be a safe prime with g generating the
  // order-q subgroup (g^q = 1, g^2 != 1).
  EXPECT_TRUE(is_safe_prime_u64(DhGroup::p));
  EXPECT_EQ(group_pow(DhGroup::g, DhGroup::q), 1ull);
  EXPECT_NE(group_pow(DhGroup::g, 2), 1ull);
}

TEST(KeyAgreement, SharedSecretIsSymmetric) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const auto a = generate_keypair(seed_from_u64(100 + i));
    const auto b = generate_keypair(seed_from_u64(200 + i));
    EXPECT_EQ(shared_secret(a.secret, b.public_key),
              shared_secret(b.secret, a.public_key));
    EXPECT_EQ(agreed_seed(a.secret, b.public_key),
              agreed_seed(b.secret, a.public_key));
  }
}

TEST(KeyAgreement, DistinctPairsGetDistinctSeeds) {
  const auto a = generate_keypair(seed_from_u64(1));
  const auto b = generate_keypair(seed_from_u64(2));
  const auto c = generate_keypair(seed_from_u64(3));
  EXPECT_NE(agreed_seed(a.secret, b.public_key),
            agreed_seed(a.secret, c.public_key));
  EXPECT_NE(agreed_seed(b.secret, c.public_key),
            agreed_seed(a.secret, c.public_key));
}

TEST(KeyAgreement, PublicKeyMatchesSecret) {
  const auto kp = generate_keypair(seed_from_u64(42));
  EXPECT_EQ(kp.public_key, group_pow(DhGroup::g, kp.secret));
  EXPECT_GE(kp.secret, 1ull);
  EXPECT_LT(kp.secret, DhGroup::q);
}

}  // namespace

// Every SIMD dispatch-table kernel must be bit-identical to the scalar
// reference on every available ISA level — exhaustively at the reduction
// boundaries (values next to the modulus, the Goldilocks epsilon region,
// products near 2^61 - 1), under all-lane carry patterns in the lazy-192
// limbs, and at every tail remainder shorter than one vector register.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/random_field.h"
#include "field/simd/dispatch.h"
#include "runtime/wire.h"

namespace {

using lsa::field::Fp32;
using lsa::field::Fp61;
using lsa::field::Goldilocks;
namespace simd = lsa::field::simd;
using simd::Level;

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// Non-scalar levels this host can actually execute (scalar needs no table).
std::vector<Level> vector_levels() {
  std::vector<Level> out;
  for (Level l : {Level::kNeon, Level::kAvx2, Level::kAvx512}) {
    if (simd::level_available(l)) out.push_back(l);
  }
  return out;
}

/// Lengths that cover empty, sub-vector tails, exact multiples and odd
/// remainders for every lane width up to AVX-512's 16 u32 lanes.
std::vector<std::size_t> tail_lengths() {
  std::vector<std::size_t> n;
  for (std::size_t i = 0; i <= 35; ++i) n.push_back(i);
  n.push_back(100);
  n.push_back(257);
  return n;
}

/// The scalar lazy-192 accumulation step (field_vec.h semantics).
void lazy192_ref(u64& lo, u64& mi, u64& hi, u64 a, u64 b) {
  const u128 pr = static_cast<u128>(a) * b;
  const u64 plo = static_cast<u64>(pr);
  const u64 phi = static_cast<u64>(pr >> 64);
  const u64 c1 = __builtin_add_overflow(lo, plo, &lo) ? 1u : 0u;
  hi += __builtin_add_overflow(mi, phi + c1, &mi) ? 1u : 0u;
}

template <class F>
std::vector<typename F::rep> boundary_elements() {
  using rep = typename F::rep;
  const u64 p = F::modulus;
  std::vector<u64> raw = {0, 1, 2, 3, p - 1, p - 2, p - 3,
                          p / 2, p / 2 + 1, p / 3};
  for (unsigned k = 1; k < 64; ++k) {
    const u64 b = 1ull << k;
    for (const u64 v : {b - 1, b, b + 1}) {
      if (v < p) raw.push_back(v);
    }
  }
  std::vector<rep> out;
  for (const u64 v : raw) out.push_back(static_cast<rep>(v));
  return out;
}

/// A length-n vector cycling through boundary elements, shifted so paired
/// operands cross every (a near-edge, b near-edge) combination over n.
template <class F>
std::vector<typename F::rep> boundary_vec(std::size_t n, std::size_t phase) {
  const auto b = boundary_elements<F>();
  std::vector<typename F::rep> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = b[(i * 7 + phase) % b.size()];
  return out;
}

// --------------------------------------------------------------- u32 table

TEST(SimdKernel, U32AddSubModBoundaries) {
  for (Level level : vector_levels()) {
    const auto* k = simd::u32_kernels(level);
    ASSERT_NE(k, nullptr) << simd::level_name(level);
    for (std::size_t n : tail_lengths()) {
      for (std::size_t phase = 0; phase < 5; ++phase) {
        const auto a0 = boundary_vec<Fp32>(n, phase);
        const auto x = boundary_vec<Fp32>(n, phase + 11);
        auto got = a0;
        k->add_mod(got.data(), x.data(), n, Fp32::modulus);
        auto want = a0;
        for (std::size_t i = 0; i < n; ++i) want[i] = Fp32::add(want[i], x[i]);
        ASSERT_EQ(got, want) << simd::level_name(level) << " add n=" << n;

        got = a0;
        k->sub_mod(got.data(), x.data(), n, Fp32::modulus);
        want = a0;
        for (std::size_t i = 0; i < n; ++i) want[i] = Fp32::sub(want[i], x[i]);
        ASSERT_EQ(got, want) << simd::level_name(level) << " sub n=" << n;
      }
    }
  }
}

TEST(SimdKernel, U32AccumWidenAndAxpySplit) {
  lsa::common::Xoshiro256ss rng(42);
  for (Level level : vector_levels()) {
    const auto* k = simd::u32_kernels(level);
    ASSERT_NE(k, nullptr);
    for (std::size_t n : tail_lengths()) {
      const auto src = boundary_vec<Fp32>(n, 3);
      // accum_widen: start sums near u64 range the real kernel reaches
      // (at most 2^15 summands of values < 2^32 — no wrap by contract).
      std::vector<u64> sums(n);
      for (auto& s : sums) s = rng.next_u64() >> 17;
      auto got = sums;
      k->accum_widen(got.data(), src.data(), n);
      auto want = sums;
      for (std::size_t i = 0; i < n; ++i) want[i] += src[i];
      ASSERT_EQ(got, want) << simd::level_name(level) << " widen n=" << n;

      // axpy_split: wlo/whi < 2^16 per the split-word contract.
      const u32 wlo = 0xFFFFu, whi = 0xFFFEu;
      std::vector<u64> lo(n), hi(n);
      for (std::size_t i = 0; i < n; ++i) {
        lo[i] = rng.next_u64() >> 17;
        hi[i] = rng.next_u64() >> 17;
      }
      auto glo = lo, ghi = hi;
      k->axpy_split(glo.data(), ghi.data(), src.data(), wlo, whi, n);
      for (std::size_t i = 0; i < n; ++i) {
        lo[i] += static_cast<u64>(wlo) * src[i];
        hi[i] += static_cast<u64>(whi) * src[i];
      }
      ASSERT_EQ(glo, lo) << simd::level_name(level) << " split-lo n=" << n;
      ASSERT_EQ(ghi, hi) << simd::level_name(level) << " split-hi n=" << n;
    }
  }
}

/// Plain per-element reference for gemm_split: every product reduced mod q
/// in u64, no split words, no lazy accumulation.
std::vector<std::vector<u32>> gemm_reference(
    const std::vector<u32>& coeffs, std::size_t cs,
    const std::vector<std::vector<u32>>& src, std::size_t rows,
    std::size_t n, u64 q) {
  std::vector<std::vector<u32>> out(rows, std::vector<u32>(n));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      u64 acc = 0;
      for (std::size_t k = 0; k < src.size(); ++k) {
        acc = (acc + static_cast<u64>(coeffs[r * cs + k]) * src[k][i] % q) % q;
      }
      out[r][i] = static_cast<u32>(acc);
    }
  }
  return out;
}

/// Runs one gemm_split call on exact-size row vectors (a tail that reads or
/// writes past a row's end shows under ASan) and reports whether every
/// output equals the reference.
bool gemm_matches(const simd::U32Kernels& k, std::size_t rows,
                  std::size_t terms, std::size_t n, u64 q, bool worst_case,
                  std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed);
  const std::size_t cs = terms + 3;  // coefficient rows wider than terms
  std::vector<u32> coeffs(rows * cs);
  for (auto& c : coeffs) {
    c = static_cast<u32>(worst_case ? q - 1 : rng.next_u64() % q);
  }
  std::vector<std::vector<u32>> src(terms, std::vector<u32>(n));
  for (auto& row : src) {
    for (auto& x : row) {
      x = static_cast<u32>(worst_case ? q - 1 : rng.next_u64() % q);
    }
  }
  std::vector<std::vector<u32>> dst(rows, std::vector<u32>(n, 0xDEADBEEFu));
  std::vector<const u32*> src_ptrs(terms);
  for (std::size_t t = 0; t < terms; ++t) src_ptrs[t] = src[t].data();
  std::vector<u32*> dst_ptrs(rows);
  for (std::size_t r = 0; r < rows; ++r) dst_ptrs[r] = dst[r].data();
  k.gemm_split(dst_ptrs.data(), coeffs.data(), cs, src_ptrs.data(), rows,
               terms, n, static_cast<u32>(q));
  return dst == gemm_reference(coeffs, cs, src, rows, n, q);
}

/// Levels whose u32 table carries the tiled GEMM.
std::vector<Level> gemm_levels() {
  std::vector<Level> out;
  for (Level l : vector_levels()) {
    const auto* k = simd::u32_kernels(l);
    if (k != nullptr && k->gemm_split != nullptr) out.push_back(l);
  }
  return out;
}

TEST(SimdKernel, U32GemmSplitMatchesReference) {
  // Partial row tiles (1..9 rows), every lane tail, K in {0, 1, 2, 140},
  // at Fp32's modulus and two smaller 32-bit primes; inputs either random
  // or all at q - 1, the split accumulators' worst case.
  for (Level level : gemm_levels()) {
    const auto& k = *simd::u32_kernels(level);
    for (const u64 q : {u64{Fp32::modulus}, u64{2147483647}, u64{65537}}) {
      for (std::size_t n : tail_lengths()) {
        for (std::size_t rows = 1; rows <= 9; ++rows) {
          for (std::size_t terms : {0, 1, 2, 140}) {
            for (const bool worst : {true, false}) {
              ASSERT_TRUE(gemm_matches(k, rows, terms, n, q, worst,
                                       rows * 1000 + terms + n))
                  << simd::level_name(level) << " q=" << q << " rows="
                  << rows << " terms=" << terms << " n=" << n
                  << (worst ? " all q-1" : " random");
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernel, U32GemmSplitFoldsMidProduct) {
  // kMaxLazyTerms + 1 terms at q - 1 exceed one lazy window, so the
  // kernel must fold once mid-product and add the second window's fold.
  for (Level level : gemm_levels()) {
    const auto& k = *simd::u32_kernels(level);
    for (std::size_t rows : {1, 5}) {
      ASSERT_TRUE(gemm_matches(k, rows, simd::kMaxLazyTerms + 1, 19,
                               Fp32::modulus, /*worst_case=*/true, 7))
          << simd::level_name(level) << " rows=" << rows;
    }
  }
}

TEST(SimdKernel, U32SamplePm32MatchesScalarSampler) {
  // The scalar sampler of field/random_field.h: accepted draws in order.
  const auto reference = [](const std::vector<u64>& draws, u64 q) {
    const u64 limit = (~u64{0} / q) * q;
    std::vector<u32> out;
    for (const u64 v : draws) {
      if (v < limit) out.push_back(static_cast<u32>(v % q));
    }
    return out;
  };
  lsa::common::Xoshiro256ss rng(32);
  // Fp32 (c = 5), the largest covered c (2^16 - 1), and c = 1.
  for (const u64 q : {u64{Fp32::modulus}, (u64{1} << 32) - 0xFFFF,
                      (u64{1} << 32) - 1}) {
    const u64 limit = (~u64{0} / q) * q;
    // Fold and rejection edges: multiples of q, the 2^32 word boundary,
    // the largest accepted draws and the rejected ones above them.
    const std::vector<u64> edges = {0,
                                    1,
                                    q - 1,
                                    q,
                                    q + 1,
                                    2 * q - 1,
                                    2 * q,
                                    (u64{1} << 32) - 1,
                                    u64{1} << 32,
                                    (u64{1} << 32) + 0xFFFF,
                                    0xFFFFFFFF00000000ull,
                                    limit - q - 1,
                                    limit - q,
                                    limit - 1,
                                    limit,
                                    limit + 1,
                                    ~u64{0}};
    for (Level level : vector_levels()) {
      const auto* k = simd::u32_kernels(level);
      ASSERT_NE(k, nullptr);
      if (k->sample_pm32 == nullptr) continue;  // NEON: scalar sampler
      for (std::size_t n : tail_lengths()) {
        for (int pattern = 0; pattern < 4; ++pattern) {
          std::vector<u64> draws(n);
          for (std::size_t i = 0; i < n; ++i) {
            switch (pattern) {
              case 0:  // random: every group accepted
                draws[i] = rng.next_u64() % limit;
                break;
              case 1:  // edges: accepted and rejected draws mixed
                draws[i] = edges[(i * 5 + n) % edges.size()];
                break;
              case 2:  // one rejected draw at a position moving with n
                draws[i] = i == n / 3 ? limit : rng.next_u64() % limit;
                break;
              default:  // everything rejected
                draws[i] = limit + rng.next_u64() % (~u64{0} - limit + 1);
            }
          }
          const auto want = reference(draws, q);
          std::vector<u32> got(n);
          const std::size_t wrote =
              k->sample_pm32(got.data(), draws.data(), n, static_cast<u32>(q));
          got.resize(wrote);
          ASSERT_EQ(got, want) << simd::level_name(level) << " q=" << q
                               << " n=" << n << " pattern=" << pattern;
        }
      }
    }
  }
}

// ------------------------------------------------------------ CRC-32 fold

/// Wire payload sizes of the bench/e2e workloads: an mnist-n200-p10 share,
/// a tcp-mnist-n4 share, an MNIST upload or result, a
/// femnist-n50-p30-persistent share, a tcp-femnist-n4 share and a FEMNIST
/// upload or result.
constexpr std::size_t kWirePayloadSizes[] = {788,    15700,   31400,
                                             482636, 2413180, 4826360};

/// Start offsets: aligned, odd, and byte 28 of a frame (where a payload
/// starts: 4-byte aligned, not 16-byte aligned).
constexpr std::size_t kCrcOffsets[] = {0, 1, 3, 7, 28};

/// `content` copied to byte `offset` of a buffer that ends exactly where
/// the content does, so ASan flags any read past data + size.
std::vector<std::uint8_t> at_offset(std::span<const std::uint8_t> content,
                                    std::size_t offset) {
  std::vector<std::uint8_t> buf(offset + content.size(), 0xA5);
  std::copy(content.begin(), content.end(), buf.begin() + offset);
  return buf;
}

/// 0x00, 0xFF and random fills of n bytes.
std::vector<std::vector<std::uint8_t>> crc_fills(std::size_t n, u64 seed) {
  lsa::common::Xoshiro256ss rng(seed);
  std::vector<std::uint8_t> random(n);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng.next_u64());
  return {std::vector<std::uint8_t>(n, 0x00),
          std::vector<std::uint8_t>(n, 0xFF), std::move(random)};
}

/// Every crc32_fold body this host can run, called straight from its level's
/// table (an AVX-512 host without VPCLMULQDQ lists the 128-bit body twice).
std::vector<std::pair<Level, const simd::U32Kernels*>> crc_fold_tables() {
  std::vector<std::pair<Level, const simd::U32Kernels*>> out;
  for (Level level : vector_levels()) {
    const auto* k = simd::u32_kernels(level);
    if (k != nullptr && k->crc32_fold != nullptr) out.emplace_back(level, k);
  }
  return out;
}

TEST(SimdKernel, Crc32FoldBodiesMatchReference) {
  using lsa::runtime::crc32_reference;
  constexpr std::size_t kMaxLen = 2100;  // crosses the 16/64/256-byte steps
  const auto tables = crc_fold_tables();
  lsa::common::Xoshiro256ss rng(2009);
  for (const auto& content : crc_fills(kMaxLen, 41)) {
    const std::span<const std::uint8_t> all(content);
    for (std::size_t n = 64; n <= kMaxLen; n += 16) {
      const u32 want = crc32_reference(all.first(n));
      // A random raw state: the state after a random 4-byte prefix.
      std::vector<std::uint8_t> joined(4);
      for (auto& b : joined) b = static_cast<std::uint8_t>(rng.next_u64());
      const u32 state = ~crc32_reference(joined);
      joined.insert(joined.end(), content.begin(), content.begin() + n);
      const u32 want_joined = crc32_reference(joined);
      for (const std::size_t offset : kCrcOffsets) {
        const auto buf = at_offset(all.first(n), offset);
        const std::uint8_t* p = buf.data() + offset;
        for (const auto& [level, k] : tables) {
          ASSERT_EQ(~k->crc32_fold(0xFFFFFFFFu, p, n), want)
              << simd::level_name(level) << " n=" << n << " offset=" << offset;
          ASSERT_EQ(~k->crc32_fold(state, p, n), want_joined)
              << simd::level_name(level) << " n=" << n << " offset=" << offset
              << " state=" << state;
        }
      }
    }
  }
}

TEST(SimdKernel, Crc32DispatchedAndForcedScalarMatchReference) {
  using lsa::runtime::crc32;
  using lsa::runtime::crc32_reference;
  const auto forced_scalar = [](std::span<const std::uint8_t> data) {
    const simd::ScopedSimdPolicy scalar(simd::SimdPolicy::kForceScalar);
    return crc32(data);
  };
  const char* check = "123456789";
  const std::span<const std::uint8_t> check_span(
      reinterpret_cast<const std::uint8_t*>(check), 9);
  EXPECT_EQ(crc32(check_span), 0xCBF43926u);
  EXPECT_EQ(forced_scalar(check_span), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>()), 0u);
  EXPECT_EQ(forced_scalar(std::span<const std::uint8_t>()), 0u);

  // Every length from 0 to 2,100 bytes, at every start offset.
  constexpr std::size_t kMaxLen = 2100;
  for (const auto& content : crc_fills(kMaxLen, 42)) {
    const std::span<const std::uint8_t> all(content);
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      const u32 want = crc32_reference(all.first(n));
      for (const std::size_t offset : kCrcOffsets) {
        const auto buf = at_offset(all.first(n), offset);
        const std::span<const std::uint8_t> data(buf.data() + offset, n);
        ASSERT_EQ(crc32(data), want) << "n=" << n << " offset=" << offset;
        ASSERT_EQ(forced_scalar(data), want)
            << "n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST(SimdKernel, Crc32WirePayloadSizesMatchReference) {
  using lsa::runtime::crc32;
  using lsa::runtime::crc32_reference;
  lsa::common::Xoshiro256ss rng(788);
  for (const std::size_t size : kWirePayloadSizes) {
    std::vector<std::uint8_t> content(size);
    for (auto& b : content) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto buf = at_offset(content, 28);
    const std::span<const std::uint8_t> data(buf.data() + 28, size);
    const u32 want = crc32_reference(data);
    EXPECT_EQ(crc32(data), want) << size;
    {
      const simd::ScopedSimdPolicy scalar(simd::SimdPolicy::kForceScalar);
      EXPECT_EQ(crc32(data), want) << size;
    }
    // The bodies fold the longest multiple-of-16 prefix, as crc32 calls
    // them.
    const std::size_t folded = size & ~std::size_t{15};
    const u32 want_folded = crc32_reference(data.first(folded));
    for (const auto& [level, k] : crc_fold_tables()) {
      EXPECT_EQ(~k->crc32_fold(0xFFFFFFFFu, data.data(), folded), want_folded)
          << simd::level_name(level) << " " << size;
    }
  }
}

// --------------------------------------------------------------- u64 table

TEST(SimdKernel, U64AddSubModBoundaries) {
  for (Level level : vector_levels()) {
    const auto* k = simd::u64_kernels(level);
    ASSERT_NE(k, nullptr);
    for (std::size_t n : tail_lengths()) {
      for (std::size_t phase = 0; phase < 5; ++phase) {
        const auto a0 = boundary_vec<Fp61>(n, phase);
        const auto x = boundary_vec<Fp61>(n, phase + 13);
        auto got = a0;
        k->add_mod(got.data(), x.data(), n, Fp61::modulus);
        auto want = a0;
        for (std::size_t i = 0; i < n; ++i) want[i] = Fp61::add(want[i], x[i]);
        ASSERT_EQ(got, want) << simd::level_name(level) << " add n=" << n;

        got = a0;
        k->sub_mod(got.data(), x.data(), n, Fp61::modulus);
        want = a0;
        for (std::size_t i = 0; i < n; ++i) want[i] = Fp61::sub(want[i], x[i]);
        ASSERT_EQ(got, want) << simd::level_name(level) << " sub n=" << n;
      }
    }
  }
}

TEST(SimdKernel, U64ShoupAxpyBoundaries) {
  const auto weights = boundary_elements<Fp61>();
  for (Level level : vector_levels()) {
    const auto* k = simd::u64_kernels(level);
    ASSERT_NE(k, nullptr);
    for (std::size_t wi = 0; wi < weights.size(); wi += 3) {
      const u64 w = weights[wi];
      const u64 wp = Fp61::shoup_precompute(w);
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{19},
                            std::size_t{64}}) {
        const auto a0 = boundary_vec<Fp61>(n, wi);
        const auto x = boundary_vec<Fp61>(n, wi + 5);
        auto got = a0;
        k->shoup_axpy(got.data(), x.data(), w, wp, n, Fp61::modulus);
        auto want = a0;
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = Fp61::add(want[i], Fp61::mul_shoup(x[i], w, wp));
        }
        ASSERT_EQ(got, want)
            << simd::level_name(level) << " w=" << w << " n=" << n;
      }
    }
  }
}

TEST(SimdKernel, U64Lazy192AxpyAllLaneCarry) {
  lsa::common::Xoshiro256ss rng(7);
  for (Level level : vector_levels()) {
    const auto* k = simd::u64_kernels(level);
    ASSERT_NE(k, nullptr);
    for (std::size_t n : tail_lengths()) {
      // Limbs are raw integers; force the carry chain in every lane at once
      // (lo = mi = ~0), then a mixed random pattern.
      for (int pattern = 0; pattern < 2; ++pattern) {
        std::vector<u64> lo(n), mi(n), hi(n), src(n);
        for (std::size_t i = 0; i < n; ++i) {
          lo[i] = pattern == 0 ? ~0ull : rng.next_u64();
          mi[i] = pattern == 0 ? ~0ull : rng.next_u64();
          hi[i] = pattern == 0 ? 1ull : (rng.next_u64() >> 2);
          src[i] = pattern == 0 ? ~0ull : rng.next_u64();
        }
        const u64 w = pattern == 0 ? ~0ull : rng.next_u64();
        auto glo = lo, gmi = mi, ghi = hi;
        k->lazy192_axpy(glo.data(), gmi.data(), ghi.data(), w, src.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          lazy192_ref(lo[i], mi[i], hi[i], w, src[i]);
        }
        ASSERT_EQ(glo, lo) << simd::level_name(level) << " lo n=" << n;
        ASSERT_EQ(gmi, mi) << simd::level_name(level) << " mi n=" << n;
        ASSERT_EQ(ghi, hi) << simd::level_name(level) << " hi n=" << n;
      }
    }
  }
}

TEST(SimdKernel, U64Lazy192DotStridedMatvec) {
  lsa::common::Xoshiro256ss rng(11);
  for (Level level : vector_levels()) {
    const auto* k = simd::u64_kernels(level);
    ASSERT_NE(k, nullptr);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                              std::size_t{13}, std::size_t{16},
                              std::size_t{19}}) {
      for (std::size_t terms : {std::size_t{1}, std::size_t{3},
                                std::size_t{32}}) {
        for (std::size_t stride : {std::size_t{1}, std::size_t{4}}) {
          std::vector<u64> coeffs(terms * stride), x(terms * lanes);
          for (auto& c : coeffs) c = rng.next_u64();
          for (auto& v : x) v = rng.next_u64();
          std::vector<u64> glo(lanes, 0xAA), gmi(lanes, 0xBB),
              ghi(lanes, 0xCC);  // dot overwrites — garbage must vanish
          k->lazy192_dot(glo.data(), gmi.data(), ghi.data(), coeffs.data(),
                         stride, x.data(), terms, lanes);
          for (std::size_t l = 0; l < lanes; ++l) {
            u64 lo = 0, mi = 0, hi = 0;
            for (std::size_t c = 0; c < terms; ++c) {
              lazy192_ref(lo, mi, hi, coeffs[c * stride], x[c * lanes + l]);
            }
            ASSERT_EQ(glo[l], lo) << simd::level_name(level) << " l=" << l;
            ASSERT_EQ(gmi[l], mi) << simd::level_name(level) << " l=" << l;
            ASSERT_EQ(ghi[l], hi) << simd::level_name(level) << " l=" << l;
          }
        }
      }
    }
  }
}

// -------------------------------------------------------- Goldilocks table

TEST(SimdKernel, GoldilocksAddSubEpsilonRegion) {
  for (Level level : vector_levels()) {
    const auto* k = simd::goldilocks_kernels(level);
    ASSERT_NE(k, nullptr);
    for (std::size_t n : tail_lengths()) {
      for (std::size_t phase = 0; phase < 5; ++phase) {
        const auto a0 = boundary_vec<Goldilocks>(n, phase);
        const auto x = boundary_vec<Goldilocks>(n, phase + 17);
        auto got = a0;
        k->add_mod(got.data(), x.data(), n);
        auto want = a0;
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = Goldilocks::add(want[i], x[i]);
        }
        ASSERT_EQ(got, want) << simd::level_name(level) << " add n=" << n;

        got = a0;
        k->sub_mod(got.data(), x.data(), n);
        want = a0;
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = Goldilocks::sub(want[i], x[i]);
        }
        ASSERT_EQ(got, want) << simd::level_name(level) << " sub n=" << n;
      }
    }
  }
}

TEST(SimdKernel, GoldilocksShoupKernelsBoundaries) {
  const auto weights = boundary_elements<Goldilocks>();
  for (Level level : vector_levels()) {
    const auto* k = simd::goldilocks_kernels(level);
    ASSERT_NE(k, nullptr);
    for (std::size_t wi = 0; wi < weights.size(); wi += 3) {
      const u64 w = weights[wi];
      const u64 wp = Goldilocks::shoup_precompute(w);
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{19},
                            std::size_t{64}}) {
        const auto a0 = boundary_vec<Goldilocks>(n, wi);
        const auto x = boundary_vec<Goldilocks>(n, wi + 5);

        auto got = a0;
        k->shoup_axpy(got.data(), x.data(), w, wp, n);
        auto want = a0;
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = Goldilocks::add(want[i],
                                    Goldilocks::mul_shoup(x[i], w, wp));
        }
        ASSERT_EQ(got, want)
            << simd::level_name(level) << " axpy w=" << w << " n=" << n;

        got = x;
        k->mul_shoup_inplace(got.data(), w, wp, n);
        want = x;
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = Goldilocks::mul_shoup(want[i], w, wp);
        }
        ASSERT_EQ(got, want)
            << simd::level_name(level) << " mul w=" << w << " n=" << n;
      }
    }
  }
}

TEST(SimdKernel, GoldilocksMulShoupRows) {
  lsa::common::Xoshiro256ss rng(23);
  for (Level level : vector_levels()) {
    const auto* k = simd::goldilocks_kernels(level);
    ASSERT_NE(k, nullptr);
    const std::size_t rows = 9, lanes = 11;
    std::vector<u64> s(rows), sp(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      s[r] = lsa::field::uniform<Goldilocks>(rng);
      sp[r] = Goldilocks::shoup_precompute(s[r]);
    }
    auto a = lsa::field::uniform_vector<Goldilocks>(rows * lanes, rng);
    auto got = a;
    k->mul_shoup_rows(got.data(), s.data(), sp.data(), rows, lanes);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t l = 0; l < lanes; ++l) {
        a[r * lanes + l] = Goldilocks::mul_shoup(a[r * lanes + l], s[r], sp[r]);
      }
    }
    ASSERT_EQ(got, a) << simd::level_name(level);
  }
}

TEST(SimdKernel, GoldilocksFold192RawLimbs) {
  constexpr u64 kR64 = 0xFFFFFFFFull;  // 2^64 mod p
  const u64 kR128 = Goldilocks::mul(kR64, kR64);
  lsa::common::Xoshiro256ss rng(31);
  for (Level level : vector_levels()) {
    const auto* k = simd::goldilocks_kernels(level);
    ASSERT_NE(k, nullptr);
    for (std::size_t n : tail_lengths()) {
      // Raw limbs take any u64 value, including >= p and all-ones.
      std::vector<u64> lo(n), mi(n), hi(n);
      for (std::size_t i = 0; i < n; ++i) {
        lo[i] = i % 3 == 0 ? ~0ull : rng.next_u64();
        mi[i] = i % 3 == 1 ? ~0ull : rng.next_u64();
        hi[i] = i % 3 == 2 ? ~0ull : rng.next_u64();
      }
      std::vector<u64> got(n, 0xDD);
      k->fold192(got.data(), lo.data(), mi.data(), hi.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const u64 want = Goldilocks::add(
            Goldilocks::mul(Goldilocks::from_u64(hi[i]), kR128),
            Goldilocks::add(Goldilocks::mul(Goldilocks::from_u64(mi[i]), kR64),
                            Goldilocks::from_u64(lo[i])));
        ASSERT_EQ(got[i], want)
            << simd::level_name(level) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernel, GoldilocksButterflies) {
  lsa::common::Xoshiro256ss rng(47);
  for (Level level : vector_levels()) {
    const auto* k = simd::goldilocks_kernels(level);
    ASSERT_NE(k, nullptr);
    for (std::size_t n : tail_lengths()) {
      std::vector<u64> tw(n), twp(n);
      for (std::size_t j = 0; j < n; ++j) {
        tw[j] = lsa::field::uniform<Goldilocks>(rng);
        twp[j] = Goldilocks::shoup_precompute(tw[j]);
      }
      const auto a0 = lsa::field::uniform_vector<Goldilocks>(n, rng);
      const auto b0 = lsa::field::uniform_vector<Goldilocks>(n, rng);

      auto ga = a0, gb = b0;
      k->butterfly_tw(ga.data(), gb.data(), tw.data(), twp.data(), n);
      auto wa = a0, wb = b0;
      for (std::size_t j = 0; j < n; ++j) {
        const u64 t = Goldilocks::mul_shoup(wb[j], tw[j], twp[j]);
        const u64 u = wa[j];
        wa[j] = Goldilocks::add(u, t);
        wb[j] = Goldilocks::sub(u, t);
      }
      ASSERT_EQ(ga, wa) << simd::level_name(level) << " tw-a n=" << n;
      ASSERT_EQ(gb, wb) << simd::level_name(level) << " tw-b n=" << n;
    }

    // SoA form: scalar twiddle per lane block, odd lane counts included.
    for (std::size_t lanes : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                              std::size_t{11}, std::size_t{16}}) {
      const std::size_t nj = 6;
      std::vector<u64> tw(nj), twp(nj);
      for (std::size_t j = 0; j < nj; ++j) {
        tw[j] = lsa::field::uniform<Goldilocks>(rng);
        twp[j] = Goldilocks::shoup_precompute(tw[j]);
      }
      const auto a0 = lsa::field::uniform_vector<Goldilocks>(nj * lanes, rng);
      const auto b0 = lsa::field::uniform_vector<Goldilocks>(nj * lanes, rng);
      auto ga = a0, gb = b0;
      k->butterfly_soa(ga.data(), gb.data(), tw.data(), twp.data(), nj, lanes);
      auto wa = a0, wb = b0;
      for (std::size_t j = 0; j < nj; ++j) {
        for (std::size_t l = 0; l < lanes; ++l) {
          const u64 t =
              Goldilocks::mul_shoup(wb[j * lanes + l], tw[j], twp[j]);
          const u64 u = wa[j * lanes + l];
          wa[j * lanes + l] = Goldilocks::add(u, t);
          wb[j * lanes + l] = Goldilocks::sub(u, t);
        }
      }
      ASSERT_EQ(ga, wa) << simd::level_name(level) << " soa lanes=" << lanes;
      ASSERT_EQ(gb, wb) << simd::level_name(level) << " soa lanes=" << lanes;
    }
  }
}

// ------------------------------------------------------------- dispatch

TEST(SimdKernel, PolicyForcesScalarLevel) {
  const Level base = simd::active_level();
  {
    simd::ScopedSimdPolicy forced(simd::SimdPolicy::kForceScalar);
    EXPECT_EQ(simd::active_level(), Level::kScalar);
    EXPECT_EQ(simd::goldilocks_active(), nullptr);
    EXPECT_EQ(simd::u32_active(), nullptr);
    EXPECT_EQ(simd::u64_active(), nullptr);
    {
      simd::ScopedSimdPolicy nested(simd::SimdPolicy::kAuto);
      EXPECT_EQ(simd::active_level(), base);
    }
    EXPECT_EQ(simd::active_level(), Level::kScalar);
  }
  EXPECT_EQ(simd::active_level(), base);
}

TEST(SimdKernel, DispatchTablesConsistent) {
  // Scalar never has a table; unavailable levels never return one.
  EXPECT_EQ(simd::u32_kernels(Level::kScalar), nullptr);
  EXPECT_EQ(simd::u64_kernels(Level::kScalar), nullptr);
  EXPECT_EQ(simd::goldilocks_kernels(Level::kScalar), nullptr);
  for (Level l : {Level::kNeon, Level::kAvx2, Level::kAvx512}) {
    if (!simd::level_available(l)) {
      EXPECT_EQ(simd::u32_kernels(l), nullptr) << simd::level_name(l);
      EXPECT_EQ(simd::u64_kernels(l), nullptr) << simd::level_name(l);
      EXPECT_EQ(simd::goldilocks_kernels(l), nullptr) << simd::level_name(l);
    } else {
      // An available level exposes fully-populated tables.
      const auto* k = simd::goldilocks_kernels(l);
      ASSERT_NE(k, nullptr) << simd::level_name(l);
      EXPECT_NE(k->butterfly_soa, nullptr);
      EXPECT_NE(simd::u32_kernels(l), nullptr);
      EXPECT_NE(simd::u64_kernels(l), nullptr);
    }
  }
  // The x86 levels carry the tiled split-word GEMM, the multi-block
  // keystream and the vector sampler; NEON keeps the scalar paths (null
  // entries).
  for (Level l : {Level::kAvx2, Level::kAvx512}) {
    if (simd::level_available(l)) {
      const auto* k = simd::u32_kernels(l);
      ASSERT_NE(k, nullptr) << simd::level_name(l);
      EXPECT_NE(k->gemm_split, nullptr) << simd::level_name(l);
      EXPECT_NE(k->chacha20_blocks, nullptr) << simd::level_name(l);
      EXPECT_NE(k->sample_pm32, nullptr) << simd::level_name(l);
    }
  }
#if defined(__x86_64__)
  // The CRC fold is gated on its own feature bits, never on the level: no
  // pclmul means slice-by-8 at both levels, and an AVX-512 host without
  // vpclmulqdq runs the AVX2 table's 128-bit body.
  const bool pclmul = __builtin_cpu_supports("pclmul") != 0;
  const bool vpclmulqdq = __builtin_cpu_supports("vpclmulqdq") != 0;
  const auto* k2 = simd::u32_kernels(Level::kAvx2);
  const auto* k512 = simd::u32_kernels(Level::kAvx512);
  if (k2 != nullptr) EXPECT_EQ(k2->crc32_fold != nullptr, pclmul);
  if (k512 != nullptr) {
    EXPECT_EQ(k512->crc32_fold != nullptr, pclmul);
    if (k2 != nullptr && pclmul) {
      EXPECT_EQ(k512->crc32_fold == k2->crc32_fold, !vpclmulqdq);
    }
  }
#endif
  EXPECT_LE(simd::vector_bytes(simd::detected_level()),
            simd::vector_bytes(Level::kAvx512));
}

}  // namespace

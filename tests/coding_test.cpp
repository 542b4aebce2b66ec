// Lagrange interpolation, matrix reference utilities, and the MaskCodec's
// MDS / T-privacy / one-shot-linearity properties.
#include <gtest/gtest.h>

#include <numeric>

#include "coding/lagrange.h"
#include "coding/mask_codec.h"
#include "coding/matrix.h"
#include "common/rng.h"
#include "common/stats.h"
#include "crypto/prg.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/random_field.h"
#include "field/simd/simd_policy.h"

#include "decode_oracle.h"

namespace {

using lsa::field::FlatMatrix;
using lsa::field::Fp32;
using rep = Fp32::rep;

TEST(Lagrange, RecoversPolynomialEvaluations) {
  // f(x) = 3 + 2x + 5x^2 over 4 points; interpolate at fresh points, both
  // through the oracle and through lagrange_weights_at.
  auto f = [](rep x) {
    return Fp32::add(Fp32::add(3, Fp32::mul(2, x)),
                     Fp32::mul(5, Fp32::mul(x, x)));
  };
  std::vector<rep> xs = {1, 2, 3, 4};
  std::vector<rep> ys;
  for (auto x : xs) ys.push_back(f(x));
  for (rep x0 : {0u, 5u, 100u, 12345u}) {
    EXPECT_EQ(lsa::test::oracle_interpolate_at<Fp32>(
                  std::span<const rep>(xs), std::span<const rep>(ys), x0),
              f(x0));
    const auto w = lsa::coding::lagrange_weights_at<Fp32>(
        std::span<const rep>(xs), x0);
    rep acc = Fp32::zero;
    for (std::size_t j = 0; j < xs.size(); ++j) {
      acc = Fp32::add(acc, Fp32::mul(w[j], ys[j]));
    }
    EXPECT_EQ(acc, f(x0));
  }
}

TEST(Lagrange, WeightsSumToOne) {
  // Interpolating the constant-1 polynomial: weights must sum to 1.
  std::vector<rep> xs = {2, 7, 11, 20, 29};
  for (rep x0 : {0u, 1u, 99u}) {
    auto w = lsa::coding::lagrange_weights_at<Fp32>(
        std::span<const rep>(xs), x0);
    rep sum = Fp32::zero;
    for (auto v : w) sum = Fp32::add(sum, v);
    EXPECT_EQ(sum, Fp32::one);
  }
}

TEST(Lagrange, DuplicatePointsThrow) {
  std::vector<rep> xs = {1, 2, 2};
  EXPECT_THROW((void)lsa::coding::lagrange_weights_at<Fp32>(
                   std::span<const rep>(xs), 0),
               lsa::CodingError);
}

TEST(Matrix, RankAndInverse) {
  lsa::coding::Matrix<Fp32> m(3, 3);
  // Identity has rank 3.
  for (std::size_t i = 0; i < 3; ++i) m.at(i, i) = 1;
  EXPECT_TRUE(m.is_invertible());
  // Duplicate a row: rank drops.
  lsa::coding::Matrix<Fp32> s(3, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    s.at(0, j) = static_cast<rep>(j + 1);
    s.at(1, j) = static_cast<rep>(j + 1);
    s.at(2, j) = static_cast<rep>(j * j + 1);
  }
  EXPECT_EQ(s.rank(), 2u);
  EXPECT_FALSE(s.is_invertible());
}

TEST(Matrix, VandermondeIsMds) {
  std::vector<rep> alphas = {1, 2, 3, 4, 5, 6};
  auto v = lsa::coding::vandermonde<Fp32>(std::span<const rep>(alphas), 3);
  // Every 3x3 submatrix of the 3x6 Vandermonde must be invertible.
  std::vector<std::size_t> rows = {0, 1, 2};
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = a + 1; b < 6; ++b) {
      for (std::size_t c = b + 1; c < 6; ++c) {
        std::vector<std::size_t> cols = {a, b, c};
        EXPECT_TRUE(v.submatrix(rows, cols).is_invertible());
      }
    }
  }
}

// ---------------------------------------------------------------- codec

struct CodecCase {
  std::size_t n, u, t, d;
};

class MaskCodecSweep : public ::testing::TestWithParam<CodecCase> {};

TEST_P(MaskCodecSweep, SingleMaskDecodesFromAnyUSubset) {
  const auto [n, u, t, d] = GetParam();
  lsa::common::Xoshiro256ss rng(n * 31 + u * 7 + t);
  lsa::coding::MaskCodec<Fp32> codec(n, u, t, d);
  auto mask = lsa::field::uniform_vector<Fp32>(d, rng);
  FlatMatrix<Fp32> shares(n, codec.segment_len());
  codec.encode_into(std::span<const rep>(mask), rng, shares);
  // Row views of the owners' shares, read in place.
  const auto rows_of = [&](const std::vector<std::size_t>& owners) {
    std::vector<const rep*> rows;
    for (auto o : owners) rows.push_back(shares.row_ptr(o));
    return rows;
  };

  // Decode from several U-subsets (contiguous windows + a scattered one).
  for (std::size_t start = 0; start + u <= n; start += std::max<std::size_t>(1, n / 3)) {
    std::vector<std::size_t> owners(u);
    std::iota(owners.begin(), owners.end(), start);
    EXPECT_EQ(codec.decode_aggregate_rows(owners, rows_of(owners)), mask);
  }
  std::vector<std::size_t> scattered;
  for (std::size_t j = 0; j < n && scattered.size() < u; j += 2) {
    scattered.push_back(j);  // evens first ...
  }
  for (std::size_t j = 1; j < n && scattered.size() < u; j += 2) {
    scattered.push_back(j);  // ... then odds: a non-contiguous U-subset
  }
  EXPECT_EQ(codec.decode_aggregate_rows(scattered, rows_of(scattered)), mask);
}

TEST_P(MaskCodecSweep, AggregateOfEncodedSharesDecodesToAggregateMask) {
  // The one-shot property: sum user shares first, decode once.
  const auto [n, u, t, d] = GetParam();
  lsa::common::Xoshiro256ss rng(n * 131 + u * 17 + t);
  lsa::coding::MaskCodec<Fp32> codec(n, u, t, d);

  // Arena row j*N + i = user i's share for holder j (encode_all's layout).
  std::vector<std::vector<rep>> masks(n);
  FlatMatrix<Fp32> arena(n * n, codec.segment_len());
  for (std::size_t i = 0; i < n; ++i) {
    masks[i] = lsa::field::uniform_vector<Fp32>(d, rng);
    codec.encode_into(std::span<const rep>(masks[i]), rng, arena,
                      /*base=*/i, /*stride=*/n);
  }
  // Simulate a surviving set: drop the last n-u users... keep first u+?
  std::vector<std::size_t> survivors(u);
  std::iota(survivors.begin(), survivors.end(), 0);

  std::vector<rep> expected(d, Fp32::zero);
  for (auto i : survivors) {
    lsa::field::add_inplace<Fp32>(std::span<rep>(expected),
                                  std::span<const rep>(masks[i]));
  }
  FlatMatrix<Fp32> agg_shares(survivors.size(), codec.segment_len());
  for (std::size_t r = 0; r < survivors.size(); ++r) {
    for (auto i : survivors) {
      lsa::field::add_inplace<Fp32>(agg_shares.row(r),
                                    arena.row(survivors[r] * n + i));
    }
  }
  EXPECT_EQ(codec.decode_aggregate(survivors, agg_shares), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaskCodecSweep,
    ::testing::Values(CodecCase{3, 2, 1, 6}, CodecCase{5, 4, 2, 10},
                      CodecCase{8, 5, 2, 33},   // d not divisible by U-T
                      CodecCase{10, 7, 3, 100}, CodecCase{6, 6, 5, 12},
                      CodecCase{12, 8, 0, 24},  // T = 0
                      CodecCase{16, 9, 4, 1},   // d = 1 (heavy padding)
                      CodecCase{20, 14, 7, 64}));

TEST(MaskCodec, EncodingMatrixIsMdsAndTPrivate) {
  // Exhaustive structural check at small parameters:
  //  (a) any U columns of W (the U x N encoding matrix) are invertible;
  //  (b) any T columns of W's bottom-T rows are invertible (T-privacy).
  const std::size_t n = 7, u = 4, t = 2;
  lsa::coding::MaskCodec<Fp32> codec(n, u, t, /*d=*/u - t);

  lsa::coding::Matrix<Fp32> w(u, n);
  for (std::size_t j = 0; j < n; ++j) {
    auto col = codec.encoding_column(j);
    for (std::size_t k = 0; k < u; ++k) w.at(k, j) = col[k];
  }
  // (a) MDS.
  std::vector<std::size_t> all_rows(u);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<std::size_t> cols(u);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b)
      for (std::size_t c = b + 1; c < n; ++c)
        for (std::size_t e = c + 1; e < n; ++e) {
          cols = {a, b, c, e};
          EXPECT_TRUE(w.submatrix(all_rows, cols).is_invertible())
              << a << "," << b << "," << c << "," << e;
        }
  // (b) T-privacy.
  std::vector<std::size_t> noise_rows = {u - t, u - t + 1};
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) {
      std::vector<std::size_t> two_cols = {a, b};
      EXPECT_TRUE(w.submatrix(noise_rows, two_cols).is_invertible())
          << a << "," << b;
    }
}

TEST(MaskCodec, TSharesLookUniform) {
  // Encode a fixed mask many times with fresh noise; any T shares must be
  // (marginally) uniform — mean of each share element near q/2.
  const std::size_t n = 5, u = 4, t = 2, d = 4;
  lsa::common::Xoshiro256ss rng(55);
  lsa::coding::MaskCodec<Fp32> codec(n, u, t, d);
  std::vector<rep> mask(d, 0);  // all-zero mask: worst case for leakage
  lsa::common::RunningStat stat;
  FlatMatrix<Fp32> shares(n, codec.segment_len());
  for (int trial = 0; trial < 3000; ++trial) {
    codec.encode_into(std::span<const rep>(mask), rng, shares);
    stat.add(static_cast<double>(shares(0, 0)) /
             static_cast<double>(Fp32::modulus));
    stat.add(static_cast<double>(shares(1, 0)) /
             static_cast<double>(Fp32::modulus));
  }
  EXPECT_NEAR(stat.mean(), 0.5, 0.02);
  EXPECT_NEAR(stat.stddev(), 0.2887, 0.02);  // sqrt(1/12)
}

TEST(MaskCodec, RejectsBadParameters) {
  EXPECT_THROW(lsa::coding::MaskCodec<Fp32>(4, 3, 3, 8), lsa::CodingError);
  EXPECT_THROW(lsa::coding::MaskCodec<Fp32>(4, 5, 1, 8), lsa::CodingError);
  EXPECT_THROW(lsa::coding::MaskCodec<Fp32>(4, 3, 1, 0), lsa::CodingError);
}

TEST(MaskCodec, DecodeErrorsAreTyped) {
  lsa::common::Xoshiro256ss rng(66);
  lsa::coding::MaskCodec<Fp32> codec(5, 4, 1, 9);
  auto mask = lsa::field::uniform_vector<Fp32>(9, rng);
  FlatMatrix<Fp32> shares(5, codec.segment_len());
  codec.encode_into(std::span<const rep>(mask), rng, shares);
  const auto rows = shares.row_ptrs();

  // Too few shares.
  std::vector<std::size_t> owners = {0, 1, 2};
  EXPECT_THROW((void)codec.decode_aggregate_rows(
                   owners, std::span<const rep* const>(rows.data(), 3)),
               lsa::ProtocolError);
  // Duplicate owners, adjacent or not once sorted.
  for (const auto& dup : {std::vector<std::size_t>{0, 1, 2, 2},
                          std::vector<std::size_t>{3, 0, 1, 3}}) {
    EXPECT_THROW((void)codec.decode_aggregate_rows(
                     dup, std::span<const rep* const>(rows.data(), 4)),
                 lsa::ProtocolError);
  }
  // Owner out of range.
  owners = {0, 1, 2, 5};
  EXPECT_THROW((void)codec.decode_aggregate_rows(
                   owners, std::span<const rep* const>(rows.data(), 4)),
               lsa::ProtocolError);
  // Wrong share length (flat arena narrower than segment_len).
  owners = {0, 1, 2, 3};
  EXPECT_THROW((void)codec.decode_aggregate(owners, FlatMatrix<Fp32>(4, 2)),
               lsa::ProtocolError);
}

// Encode output against the textbook Lagrange oracle. W's columns must be
// the Lagrange basis over the slot points evaluated at each share point,
// and share j must be the interpolant of every segment column evaluated
// at alpha_j. N = 13 and 21 leave partial 2- and 4-row tiles, no seg_len
// is a multiple of 8 or 16 lanes, and the share rows land strided in a
// wider arena, as encode_all writes them.
template <class F>
class MaskCodecEncodeOracle : public ::testing::Test {};
using EncodeOracleFields =
    ::testing::Types<Fp32, lsa::field::Fp61, lsa::field::Goldilocks>;
TYPED_TEST_SUITE(MaskCodecEncodeOracle, EncodeOracleFields);

template <class F>
void check_encode_against_oracle(std::size_t n, std::size_t u, std::size_t t,
                                 std::size_t d, std::uint64_t seed) {
  using R = typename F::rep;
  lsa::common::Xoshiro256ss rng(seed);
  const lsa::coding::MaskCodec<F> codec(n, u, t, d);
  const std::size_t seg = codec.segment_len();
  const auto mask = lsa::field::uniform_vector<F>(d, rng);
  FlatMatrix<F> noise(t, seg);
  for (std::size_t k = 0; k < t; ++k) {
    lsa::field::fill_uniform<F>(noise.row(k), rng);
  }
  // The codec's points: slot k at beta_k = k + 1, share j at
  // alpha_j = U + 1 + j (coding/mask_codec.h).
  std::vector<R> betas(u);
  for (std::size_t k = 0; k < u; ++k) betas[k] = F::from_u64(k + 1);
  const auto alpha = [&](std::size_t j) { return F::from_u64(u + 1 + j); };

  // encoding_column(j)[k] = l_k(alpha_j): interpolate the unit vector e_k.
  std::vector<R> unit(u, F::zero);
  for (std::size_t j = 0; j < n; ++j) {
    const auto col = codec.encoding_column(j);
    ASSERT_EQ(col.size(), u);
    for (std::size_t k = 0; k < u; ++k) {
      unit[k] = F::one;
      ASSERT_EQ(col[k], lsa::test::oracle_interpolate_at<F>(betas, unit,
                                                            alpha(j)))
          << "W column " << j << " slot " << k;
      unit[k] = F::zero;
    }
  }

  // Share rows base + j * stride of a wider arena; the rows between stay
  // untouched.
  const std::size_t base = 1, stride = 3;
  FlatMatrix<F> arena(base + n * stride, seg);
  codec.encode_with_noise_into(std::span<const R>(mask), noise, arena, base,
                               stride);
  std::vector<R> column(u);
  for (std::size_t l = 0; l < seg; ++l) {
    for (std::size_t k = 0; k < u - t; ++k) {
      const std::size_t at = k * seg + l;
      column[k] = at < d ? mask[at] : F::zero;
    }
    for (std::size_t k = 0; k < t; ++k) column[u - t + k] = noise(k, l);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(arena(base + j * stride, l),
                lsa::test::oracle_interpolate_at<F>(betas, column, alpha(j)))
          << "share " << j << " coordinate " << l;
    }
  }
  for (std::size_t r = 0; r < arena.rows(); ++r) {
    if (r >= base && (r - base) % stride == 0) continue;
    for (const R v : arena.row(r)) ASSERT_EQ(v, F::zero) << "arena row " << r;
  }
}

TYPED_TEST(MaskCodecEncodeOracle, SharesAndColumnsMatchLagrange) {
  using F = TypeParam;
  for (const auto policy :
       {lsa::field::simd::SimdPolicy::kAuto,
        lsa::field::simd::SimdPolicy::kForceScalar}) {
    lsa::field::simd::ScopedSimdPolicy scoped(policy);
    check_encode_against_oracle<F>(13, 9, 4, 185, 71);  // seg_len 37
    check_encode_against_oracle<F>(4, 3, 1, 7, 72);      // seg_len 4
    check_encode_against_oracle<F>(21, 17, 8, 300, 73);  // seg_len 34
  }
}

// The row-pointer encode a device runs into its share frames reads the
// U-T data segments in place from the mask; only a zero-padded tail
// segment and the T noise segments take scratch. Any U of its N shares
// must interpolate back to every slot: the mask's zero-padded data
// segments at the first U-T, and at the last T the noise segments that
// continue the mask's PRG stream.
void check_row_pointer_encode(std::size_t n, std::size_t u, std::size_t t,
                              std::size_t d, std::uint64_t seed) {
  const lsa::coding::MaskCodec<Fp32> codec(n, u, t, d);
  const std::size_t seg = codec.segment_len();
  lsa::crypto::Prg prg(lsa::crypto::seed_from_u64(seed));
  std::vector<rep> mask(d);
  lsa::field::fill_uniform<Fp32>(std::span<rep>(mask), prg);

  std::vector<rep> expected(u * seg, Fp32::zero);
  std::copy(mask.begin(), mask.end(), expected.begin());
  lsa::crypto::Prg noise_prg = prg;  // the draws the codec is about to make
  for (std::size_t k = 0; k < t; ++k) {
    lsa::field::fill_uniform<Fp32>(
        std::span<rep>(expected).subspan((u - t + k) * seg, seg), noise_prg);
  }

  // N separately allocated rows, as a device's share frames are.
  std::vector<std::vector<rep>> shares(n, std::vector<rep>(seg));
  std::vector<rep*> dst(n);
  for (std::size_t j = 0; j < n; ++j) dst[j] = shares[j].data();
  codec.encode_into(std::span<const rep>(mask), prg,
                    std::span<rep* const>(dst));

  std::vector<rep> betas(u);
  for (std::size_t k = 0; k < u; ++k) betas[k] = Fp32::from_u64(k + 1);
  for (const std::size_t first : {std::size_t{0}, n - u}) {
    std::vector<rep> xs(u);
    std::vector<const rep*> rows(u);
    for (std::size_t a = 0; a < u; ++a) {
      xs[a] = Fp32::from_u64(u + 1 + first + a);  // alpha_j = U + 1 + j
      rows[a] = shares[first + a].data();
    }
    EXPECT_EQ(lsa::test::oracle_decode<Fp32>(
                  xs, betas, std::span<const rep* const>(rows), seg),
              expected)
        << "N=" << n << " U=" << u << " T=" << t << " d=" << d
        << " shares from " << first;
  }
}

TEST(MaskCodecRowPointerEncode, MatchesOracleWithAndWithoutTailPadding) {
  for (const auto policy :
       {lsa::field::simd::SimdPolicy::kAuto,
        lsa::field::simd::SimdPolicy::kForceScalar}) {
    lsa::field::simd::ScopedSimdPolicy scoped(policy);
    // U-T = 40: seg_len 197, the last data segment holds 167 mask reps
    // and 30 zeros.
    check_row_pointer_encode(50, 45, 5, 7850, 81);
    // U-T = 2: seg_len 75, both data segments read in place.
    check_row_pointer_encode(6, 4, 2, 150, 82);
  }
}

}  // namespace

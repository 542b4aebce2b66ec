// Berlekamp-Welch Reed-Solomon correction and the codec's error-correcting
// aggregate decode: exact recovery up to the floor((n-U)/2) budget, loud
// refusal beyond it, and correct identification of the corrupted responders.
#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <vector>

#include "coding/error_correction.h"
#include "coding/mask_codec.h"
#include "common/rng.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/random_field.h"

namespace {

using F = lsa::field::Fp32;
using rep = F::rep;

std::vector<rep> random_poly(std::size_t n, std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed);
  return lsa::field::uniform_vector<F>(n, rng);
}

// ---------------------------------------------------------------------------
// Berlekamp-Welch on raw evaluations.
// ---------------------------------------------------------------------------

class BwSweep : public ::testing::TestWithParam<
                    std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(BwSweep, RecoversPolynomialAndLocatesErrors) {
  const auto [k, e, extra] = GetParam();
  const std::size_t n = k + 2 * e + extra;
  auto g = random_poly(k, 11 * k + e);
  lsa::coding::poly_trim<F>(g);

  std::vector<rep> xs(n), ys(n);
  for (std::size_t j = 0; j < n; ++j) {
    xs[j] = F::from_u64(5 + 3 * j);
    ys[j] = lsa::coding::poly_eval<F>(std::span<const rep>(g), xs[j]);
  }
  // Corrupt exactly e positions (spread across the range).
  std::vector<std::size_t> bad;
  for (std::size_t t = 0; t < e; ++t) {
    const std::size_t pos = (t * 7 + 1) % n;
    if (std::find(bad.begin(), bad.end(), pos) == bad.end()) {
      bad.push_back(pos);
      ys[pos] = F::add(ys[pos], F::from_u64(1 + t));
    }
  }
  std::sort(bad.begin(), bad.end());

  const auto got = lsa::coding::berlekamp_welch<F>(
      std::span<const rep>(xs), std::span<const rep>(ys), k, e);
  ASSERT_TRUE(got.has_value()) << "k=" << k << " e=" << e;
  EXPECT_EQ(got->poly, g);
  EXPECT_EQ(got->error_positions, bad);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BwSweep,
    ::testing::Values(std::make_tuple(1, 1, 0),   // constant poly
                      std::make_tuple(4, 0, 0),   // no error budget
                      std::make_tuple(4, 1, 0), std::make_tuple(4, 2, 1),
                      std::make_tuple(8, 3, 0), std::make_tuple(8, 1, 5),
                      std::make_tuple(16, 4, 2),
                      std::make_tuple(12, 0, 4)));  // redundancy, e = 0

TEST(BerlekampWelch, FewerErrorsThanBudgetStillWorks) {
  // Budget e = 3, only 1 actual corruption: the spurious locator roots must
  // not break the decode.
  const std::size_t k = 6, e = 3, n = k + 2 * e;
  auto g = random_poly(k, 77);
  lsa::coding::poly_trim<F>(g);
  std::vector<rep> xs(n), ys(n);
  for (std::size_t j = 0; j < n; ++j) {
    xs[j] = F::from_u64(2 + j);
    ys[j] = lsa::coding::poly_eval<F>(std::span<const rep>(g), xs[j]);
  }
  ys[4] = F::add(ys[4], 99);
  const auto got = lsa::coding::berlekamp_welch<F>(
      std::span<const rep>(xs), std::span<const rep>(ys), k, e);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->poly, g);
  EXPECT_EQ(got->error_positions, std::vector<std::size_t>{4});
}

TEST(BerlekampWelch, RefusesBeyondBudget) {
  // e+1 corruptions with budget e: must return nullopt, never a wrong poly.
  const std::size_t k = 5, e = 2, n = k + 2 * e;
  auto g = random_poly(k, 13);
  lsa::coding::poly_trim<F>(g);
  std::vector<rep> xs(n), ys(n);
  for (std::size_t j = 0; j < n; ++j) {
    xs[j] = F::from_u64(1 + 2 * j);
    ys[j] = lsa::coding::poly_eval<F>(std::span<const rep>(g), xs[j]);
  }
  for (const std::size_t pos : {0u, 3u, 6u}) {
    ys[pos] = F::add(ys[pos], F::from_u64(7 + pos));
  }
  const auto got = lsa::coding::berlekamp_welch<F>(
      std::span<const rep>(xs), std::span<const rep>(ys), k, e);
  EXPECT_FALSE(got.has_value());
}

TEST(BerlekampWelch, RejectsInsufficientEvaluations) {
  std::vector<rep> xs{1, 2, 3}, ys{4, 5, 6};
  EXPECT_THROW((void)lsa::coding::berlekamp_welch<F>(
                   std::span<const rep>(xs), std::span<const rep>(ys),
                   /*k=*/2, /*max_errors=*/1),
               lsa::CodingError);
}

TEST(BerlekampWelch, WorksOnGoldilocks) {
  using G = lsa::field::Goldilocks;
  using grep = G::rep;
  lsa::common::Xoshiro256ss rng(31);
  const auto g = lsa::field::uniform_vector<G>(5, rng);
  const std::size_t n = 9;  // k=5, e=2
  std::vector<grep> xs(n), ys(n);
  for (std::size_t j = 0; j < n; ++j) {
    xs[j] = G::from_u64(10 + j);
    ys[j] = lsa::coding::poly_eval<G>(std::span<const grep>(g), xs[j]);
  }
  ys[2] = G::add(ys[2], 1);
  ys[7] = G::add(ys[7], 123456789);
  const auto got = lsa::coding::berlekamp_welch<G>(
      std::span<const grep>(xs), std::span<const grep>(ys), 5, 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->error_positions, (std::vector<std::size_t>{2, 7}));
}

// ---------------------------------------------------------------------------
// Codec-level corrected aggregate decode.
// ---------------------------------------------------------------------------

struct CodecFixture {
  static constexpr std::size_t n = 14, u = 8, t = 3, d = 60;
  lsa::coding::MaskCodec<F> codec{n, u, t, d};
  std::vector<rep> mask;
  std::vector<std::size_t> owners;       // all n respond
  lsa::field::FlatMatrix<F> shares;      // single-user aggregate, row = owner

  CodecFixture() : shares(n, codec.segment_len()) {
    lsa::common::Xoshiro256ss rng(91);
    mask = lsa::field::uniform_vector<F>(d, rng);
    codec.encode_into(std::span<const rep>(mask), rng, shares);
    for (std::size_t j = 0; j < n; ++j) owners.push_back(j);
  }

  /// Corrected decode of the first m responses, read in place.
  [[nodiscard]] auto decode_first(std::size_t m) const {
    const auto rows = shares.row_ptrs();
    return codec.decode_aggregate_corrected(
        std::span<const std::size_t>(owners.data(), m),
        std::span<const rep* const>(rows.data(), m));
  }
};

TEST(CorrectedDecode, CleanSharesDecodeWithEmptyCorruptionSet) {
  CodecFixture fx;
  const auto out = fx.decode_first(CodecFixture::n);
  EXPECT_EQ(out.aggregate, fx.mask);
  EXPECT_TRUE(out.corrupted_owners.empty());
}

TEST(CorrectedDecode, CorrectsUpToTheRedundancyBudget) {
  CodecFixture fx;
  // 14 responses, U = 8: budget = 3 corrupted shares.
  lsa::common::Xoshiro256ss rng(92);
  for (const std::size_t j : {1u, 6u, 11u}) {
    for (auto& v : fx.shares.row(j)) v = lsa::field::uniform<F>(rng);
  }
  const auto out = fx.decode_first(CodecFixture::n);
  EXPECT_EQ(out.aggregate, fx.mask);
  EXPECT_EQ(out.corrupted_owners, (std::vector<std::size_t>{1, 6, 11}));
}

TEST(CorrectedDecode, SingleElementTamperingIsStillLocated) {
  CodecFixture fx;
  // seg_len = ceil(60 / (8-3)) = 12; flip one in-range element.
  ASSERT_EQ(fx.codec.segment_len(), 12u);
  fx.shares(4, 7) = F::add(fx.shares(4, 7), 1);  // one flipped element
  const auto out = fx.decode_first(CodecFixture::n);
  EXPECT_EQ(out.aggregate, fx.mask);
  EXPECT_EQ(out.corrupted_owners, std::vector<std::size_t>{4});
}

TEST(CorrectedDecode, ThrowsLoudlyBeyondBudget) {
  CodecFixture fx;
  lsa::common::Xoshiro256ss rng(93);
  for (const std::size_t j : {0u, 3u, 7u, 10u}) {  // 4 > budget of 3
    for (auto& v : fx.shares.row(j)) v = lsa::field::uniform<F>(rng);
  }
  EXPECT_THROW((void)fx.decode_first(CodecFixture::n), lsa::CodingError);
}

TEST(CorrectedDecode, ExactlyUResponsesMeansZeroBudgetAndZeroDetection) {
  // With exactly U responses the code has distance 0: a degree-<U
  // polynomial fits ANY U evaluations, so corruption is information-
  // theoretically undetectable. The corrected decode degrades to the plain
  // decode — correct on clean shares, silently wrong on tampered ones.
  // Detection needs U + 1 responses, correction of one share needs U + 2.
  CodecFixture fx;
  const auto clean = fx.decode_first(8);
  EXPECT_EQ(clean.aggregate, fx.mask);
  EXPECT_TRUE(clean.corrupted_owners.empty());

  fx.shares(2, 0) = F::add(fx.shares(2, 0), 5);
  const auto tampered = fx.decode_first(8);
  EXPECT_NE(tampered.aggregate, fx.mask);  // wrong, and undetectably so
  EXPECT_TRUE(tampered.corrupted_owners.empty());

  // One extra response restores detection (but not yet correction).
  EXPECT_THROW((void)fx.decode_first(9), lsa::CodingError);
}

}  // namespace

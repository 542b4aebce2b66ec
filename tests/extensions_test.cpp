// Extension features: verified (error-detecting) decoding, weighted secure
// aggregation (Remark 3), and quantizer auto-tuning.
#include <gtest/gtest.h>

#include <cmath>

#include "coding/mask_codec.h"
#include "common/rng.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/random_field.h"
#include "fl/secure_adapter.h"
#include "protocol/lightsecagg.h"

#include "autotune.h"

namespace {

using lsa::field::FlatMatrix;
using lsa::field::Fp32;
using rep = Fp32::rep;

/// One user's N shares of `mask` (row j = share j); with a single user the
/// shares are also the "aggregated" shares, which decode to the mask.
FlatMatrix<Fp32> encode_shares(const lsa::coding::MaskCodec<Fp32>& codec,
                               const std::vector<rep>& mask,
                               lsa::common::Xoshiro256ss& rng) {
  FlatMatrix<Fp32> shares(codec.num_users(), codec.segment_len());
  codec.encode_into(std::span<const rep>(mask), rng, shares);
  return shares;
}

TEST(VerifiedDecode, AgreesOnHonestShares) {
  lsa::common::Xoshiro256ss rng(1);
  lsa::coding::MaskCodec<Fp32> codec(/*N=*/8, /*U=*/5, /*T=*/2, /*d=*/21);
  auto mask = lsa::field::uniform_vector<Fp32>(21, rng);
  const auto shares = encode_shares(codec, mask, rng);

  // Owners 0..6 are the first 7 rows of the share matrix.
  std::vector<std::size_t> owners = {0, 1, 2, 3, 4, 5, 6};
  const auto rows = shares.row_ptrs();
  EXPECT_EQ(codec.decode_aggregate_verified_rows(
                owners, std::span<const rep* const>(rows.data(), 7)),
            mask);
}

TEST(VerifiedDecode, DetectsSingleTamperedShare) {
  lsa::common::Xoshiro256ss rng(2);
  lsa::coding::MaskCodec<Fp32> codec(8, 5, 2, 21);
  auto mask = lsa::field::uniform_vector<Fp32>(21, rng);
  auto shares = encode_shares(codec, mask, rng);

  std::vector<std::size_t> owners = {0, 1, 2, 3, 4, 5, 6};
  // A Byzantine responder perturbs one element of its aggregated share.
  shares(3, 0) = Fp32::add(shares(3, 0), 1);
  const auto rows = shares.row_ptrs();
  EXPECT_THROW((void)codec.decode_aggregate_verified_rows(
                   owners, std::span<const rep* const>(rows.data(), 7)),
               lsa::CodingError);
}

TEST(VerifiedDecode, DetectsTamperingInEverySharePosition) {
  lsa::common::Xoshiro256ss rng(3);
  lsa::coding::MaskCodec<Fp32> codec(7, 4, 1, 12);
  auto mask = lsa::field::uniform_vector<Fp32>(12, rng);
  const auto shares = encode_shares(codec, mask, rng);
  std::vector<std::size_t> owners = {0, 1, 2, 3, 4, 5};
  for (std::size_t victim = 0; victim < owners.size(); ++victim) {
    auto sub = shares;
    sub(victim, 2) = Fp32::add(sub(victim, 2), 12345);
    const auto rows = sub.row_ptrs();
    EXPECT_THROW((void)codec.decode_aggregate_verified_rows(
                     owners, std::span<const rep* const>(rows.data(), 6)),
                 lsa::CodingError)
        << "tampered position " << victim;
  }
}

TEST(VerifiedDecode, NeedsRedundancy) {
  lsa::common::Xoshiro256ss rng(4);
  lsa::coding::MaskCodec<Fp32> codec(6, 5, 2, 10);
  auto mask = lsa::field::uniform_vector<Fp32>(10, rng);
  const auto shares = encode_shares(codec, mask, rng);
  std::vector<std::size_t> owners = {0, 1, 2, 3, 4};  // exactly U
  const auto rows = shares.row_ptrs();
  EXPECT_THROW((void)codec.decode_aggregate_verified_rows(
                   owners, std::span<const rep* const>(rows.data(), 5)),
               lsa::ProtocolError);
}

TEST(WeightedAggregation, MatchesPlaintextWeightedAverage) {
  const std::size_t n = 6, d = 40;
  lsa::protocol::Params p{.num_users = n, .privacy = 2, .dropout = 1,
                          .target_survivors = 0, .model_dim = d};
  lsa::protocol::LightSecAgg<Fp32> proto(p, 5);

  lsa::common::Xoshiro256ss rng(6);
  std::vector<std::vector<double>> locals(n);
  for (auto& v : locals) {
    v.resize(d);
    for (auto& x : v) x = rng.next_gaussian();
  }
  std::vector<std::uint64_t> samples = {10, 250, 3, 77, 120, 40};
  std::vector<bool> dropped(n, false);
  dropped[2] = true;

  auto got = lsa::fl::secure_weighted_average<Fp32>(proto, locals, samples,
                                                    dropped, 1u << 16, rng);

  std::vector<double> expected(d, 0.0);
  double wsum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (dropped[i]) continue;
    wsum += static_cast<double>(samples[i]);
    for (std::size_t k = 0; k < d; ++k) {
      expected[k] += static_cast<double>(samples[i]) * locals[i][k];
    }
  }
  for (std::size_t k = 0; k < d; ++k) {
    EXPECT_NEAR(got[k], expected[k] / wsum, 1e-3) << "coord " << k;
  }
}

TEST(WeightedAggregation, EqualWeightsReduceToPlainAverage) {
  const std::size_t n = 5, d = 16;
  lsa::protocol::Params p{.num_users = n, .privacy = 1, .dropout = 1,
                          .target_survivors = 0, .model_dim = d};
  lsa::protocol::LightSecAgg<Fp32> proto_w(p, 7);
  lsa::protocol::LightSecAgg<Fp32> proto_u(p, 7);

  lsa::common::Xoshiro256ss rng(8);
  std::vector<std::vector<double>> locals(n);
  for (auto& v : locals) {
    v.resize(d);
    for (auto& x : v) x = rng.next_gaussian();
  }
  std::vector<bool> dropped(n, false);
  std::vector<std::uint64_t> ones(n, 1);

  lsa::common::Xoshiro256ss rng_a(9), rng_b(9);
  auto weighted = lsa::fl::secure_weighted_average<Fp32>(
      proto_w, locals, ones, dropped, 1u << 16, rng_a);
  auto plain = lsa::fl::secure_average<Fp32>(proto_u, locals, dropped,
                                             1u << 16, rng_b);
  for (std::size_t k = 0; k < d; ++k) {
    EXPECT_NEAR(weighted[k], plain[k], 1e-4);
  }
}

TEST(Autotune, PicksPowerOfTwoWithinHeadroom) {
  lsa::quant::AutotuneConfig cfg;
  cfg.summands = 10;
  cfg.max_weight = 64;
  cfg.safety_margin = 4.0;
  const auto c = lsa::quant::pick_levels<Fp32>(/*max_abs=*/0.5, cfg);
  EXPECT_EQ(std::popcount(c), 1);  // power of two
  // Bound holds with margin:
  EXPECT_LT(10.0 * 64 * static_cast<double>(c) * 0.5 * 4.0,
            static_cast<double>(Fp32::modulus) / 2.0 * 1.0001);
  // And c is maximal: doubling it violates the bound.
  EXPECT_GE(10.0 * 64 * static_cast<double>(2 * c) * 0.5 * 4.0,
            static_cast<double>(Fp32::modulus) / 2.0 * 0.9999);
}

TEST(Autotune, DegeneratesGracefully) {
  lsa::quant::AutotuneConfig cfg;
  cfg.summands = 1000000;
  cfg.max_weight = 1u << 20;
  const auto c = lsa::quant::pick_levels<Fp32>(1e6, cfg);
  EXPECT_EQ(c, cfg.min_levels);  // no safe level exists -> floor
}

TEST(Autotune, ScalesInverselyWithMagnitude) {
  lsa::quant::AutotuneConfig cfg;
  cfg.summands = 10;
  cfg.max_weight = 1;
  const auto small = lsa::quant::pick_levels<Fp32>(0.01, cfg);
  const auto large = lsa::quant::pick_levels<Fp32>(10.0, cfg);
  EXPECT_GT(small, large);
  EXPECT_NEAR(std::log2(double(small) / double(large)), 10.0, 1.0);
}

TEST(Autotune, MaxAbsHelper) {
  std::vector<double> xs = {0.1, -2.5, 1.0};
  EXPECT_DOUBLE_EQ(lsa::quant::max_abs(xs), 2.5);
}

}  // namespace

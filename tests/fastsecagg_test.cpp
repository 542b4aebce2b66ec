// FastSecAgg-specific behaviour: the K + T + D <= N guarantee budget, the
// online (non-precomputable) share traffic, multi-round reuse, and the
// statistical privacy of any T shares of a shared model.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/random_field.h"
#include "net/ledger.h"
#include "protocol/fastsecagg.h"
#include "protocol/lightsecagg.h"

namespace {

using F = lsa::field::Fp32;
using rep = F::rep;
using lsa::protocol::Params;

std::vector<std::vector<rep>> random_inputs(std::size_t n, std::size_t d,
                                            std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed);
  std::vector<std::vector<rep>> inputs(n);
  for (auto& x : inputs) x = lsa::field::uniform_vector<F>(d, rng);
  return inputs;
}

TEST(FastSecAgg, PackingRateIsTheGuaranteeBudgetRemainder) {
  // N = 12, T = 3, D = 4 -> U = 8, K = U - T = 5: exactly N - T - D... with
  // the default U = N - D. Raising T or D shrinks K one-for-one.
  Params p{.num_users = 12, .privacy = 3, .dropout = 4,
           .target_survivors = 0, .model_dim = 100};
  lsa::protocol::FastSecAgg<F> agg(p, 1);
  EXPECT_EQ(agg.packing_rate(), 5u);

  Params p2{.num_users = 12, .privacy = 6, .dropout = 4,
            .target_survivors = 0, .model_dim = 100};
  lsa::protocol::FastSecAgg<F> agg2(p2, 1);
  EXPECT_EQ(agg2.packing_rate(), 2u);  // privacy +3 => rate -3
}

TEST(FastSecAgg, ShareTrafficIsOnlineNotOffline) {
  // The defining system property vs LightSecAgg: FastSecAgg's N^2 share
  // exchange carries the *model*, so it cannot be precomputed — the ledger
  // must show zero offline bytes and all share traffic in upload/recovery.
  Params p{.num_users = 8, .privacy = 2, .dropout = 2,
           .target_survivors = 0, .model_dim = 60};
  lsa::net::Ledger fast_ledger(8);
  lsa::protocol::FastSecAgg<F> fast(p, 3, &fast_ledger);
  auto inputs = random_inputs(8, 60, 4);
  std::vector<bool> dropped(8, false);
  dropped[1] = true;
  (void)fast.run_round(inputs, dropped);

  const auto fast_offline =
      fast_ledger.total_user_sent_elems(lsa::net::Phase::kOffline, true);
  const auto fast_upload =
      fast_ledger.total_user_sent_elems(lsa::net::Phase::kUpload, true);
  EXPECT_EQ(fast_offline, 0u);
  EXPECT_GT(fast_upload, 0u);

  // LightSecAgg on the same round: share exchange in the offline phase.
  lsa::net::Ledger lsa_ledger(8);
  lsa::protocol::LightSecAgg<F> light(p, 3, &lsa_ledger);
  (void)light.run_round(inputs, dropped);
  EXPECT_GT(lsa_ledger.total_user_sent_elems(lsa::net::Phase::kOffline, true), 0u);
}

TEST(FastSecAgg, MultipleRoundsFreshRandomness) {
  Params p{.num_users = 6, .privacy = 2, .dropout = 1,
           .target_survivors = 0, .model_dim = 24};
  lsa::protocol::FastSecAgg<F> agg(p, 5);
  for (int round = 0; round < 5; ++round) {
    auto inputs = random_inputs(6, 24, 100 + round);
    std::vector<bool> dropped(6, false);
    dropped[static_cast<std::size_t>(round) % 6] = true;
    std::vector<rep> expect(24, F::zero);
    for (std::size_t i = 0; i < 6; ++i) {
      if (!dropped[i]) {
        lsa::field::add_inplace<F>(std::span<rep>(expect),
                                   std::span<const rep>(inputs[i]));
      }
    }
    EXPECT_EQ(agg.run_round(inputs, dropped), expect) << "round " << round;
  }
}

TEST(FastSecAgg, ThrowsBelowSurvivorThreshold) {
  Params p{.num_users = 6, .privacy = 2, .dropout = 2,
           .target_survivors = 0, .model_dim = 8};
  lsa::protocol::FastSecAgg<F> agg(p, 7);
  auto inputs = random_inputs(6, 8, 8);
  std::vector<bool> dropped(6, false);
  dropped[0] = dropped[1] = dropped[2] = true;  // 3 > D = 2
  EXPECT_THROW((void)agg.run_round(inputs, dropped), lsa::ProtocolError);
}

TEST(FastSecAgg, AnyTSharesOfAModelLookUniform) {
  // T-privacy of the ramp sharing when the shared vector is the *model*:
  // the marginal of any T shares must be indistinguishable from uniform.
  // chi^2 over byte buckets of share elements across many fresh sharings.
  const std::size_t n = 8, u = 5, t = 2, d = 20;
  lsa::coding::MaskCodec<F> codec(n, u, t, d);
  lsa::common::Xoshiro256ss rng(99);

  // A pathological, highly structured "model": all zeros.
  const std::vector<rep> model(d, F::zero);
  constexpr int kBuckets = 16;
  std::vector<std::uint64_t> counts(kBuckets, 0);
  std::uint64_t total = 0;
  lsa::field::FlatMatrix<F> shares(n, codec.segment_len());
  for (int trial = 0; trial < 400; ++trial) {
    codec.encode_into(std::span<const rep>(model), rng, shares);
    // Inspect shares of users 2 and 6 (an arbitrary T-subset).
    for (const std::size_t j : {std::size_t{2}, std::size_t{6}}) {
      for (const rep v : shares.row(j)) {
        counts[static_cast<std::size_t>(v) % kBuckets]++;
        ++total;
      }
    }
  }
  const double expected =
      static_cast<double>(total) / static_cast<double>(kBuckets);
  double chi2 = 0;
  for (const auto c : counts) {
    const double diff = static_cast<double>(c) - expected;
    chi2 += diff * diff / expected;
  }
  // 15 dof; 99.9th percentile ~ 37.7. Generous bound to avoid flakes.
  EXPECT_LT(chi2, 45.0);
}

}  // namespace

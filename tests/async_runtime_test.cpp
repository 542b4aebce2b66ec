// Asynchronous LightSecAgg as distributed state machines (App. F through
// the wire-format router): mixed-staleness aggregation, delayed-user and
// crash semantics, share lifecycle, multi-cycle operation, and the
// rejection of cycles that cannot be recovered.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "field/random_field.h"
#include "quant/staleness.h"
#include "runtime/async_machines.h"
#include "runtime/wire.h"

namespace {

using Fp = lsa::runtime::AsyncNetwork::Fp;
using rep = Fp::rep;
using Arrival = lsa::runtime::AsyncNetwork::Arrival;

constexpr std::size_t kN = 10, kT = 2, kU = 7, kD = 32;
constexpr std::size_t kBufferK = 4;
constexpr std::uint64_t kCg = 1u << 6;

lsa::protocol::Params make_params() {
  lsa::protocol::Params p;
  p.num_users = kN;
  p.privacy = kT;
  p.dropout = kN - kU;
  p.target_survivors = kU;
  p.model_dim = kD;
  return p;
}

std::vector<rep> random_update(std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed);
  return lsa::field::uniform_vector<Fp>(kD, rng);
}

/// Plaintext reference: sum_b w_b * update_b with the same quantized
/// staleness weights the protocol uses.
std::vector<rep> expected_weighted_sum(
    const std::vector<Arrival>& arrivals, std::uint64_t now,
    const lsa::quant::StalenessPolicy& policy) {
  std::vector<rep> out(kD, Fp::zero);
  for (const auto& a : arrivals) {
    const auto w = lsa::quant::quantized_staleness_weight(
        policy, now - a.born_round, kCg);
    lsa::field::axpy_inplace<Fp>(std::span<rep>(out), Fp::from_u64(w),
                                 std::span<const rep>(a.update));
  }
  return out;
}

TEST(AsyncRuntime, UniformStalenessMatchesPlainWeightedSum) {
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 3);

  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, /*born_round=*/5, random_update(100 + b)});
  }
  const auto out = net.run_cycle(/*now=*/5, arrivals);
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 5, constant));
  EXPECT_EQ(out.weight_sum, kBufferK * kCg);  // s(0) = 1 exactly
}

TEST(AsyncRuntime, MixedStalenessPolyWeighting) {
  // Updates born at rounds 2, 4, 7, 8 aggregated at round 8 with
  // Poly(alpha=1): weights c_g/(1+tau), tau in {6, 4, 1, 0} — the exact
  // App. F.3.3 combination of shares generated in different rounds.
  lsa::quant::StalenessPolicy poly{
      lsa::quant::StalenessKind::kPolynomial, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, poly, kCg, 5);

  std::vector<Arrival> arrivals{{1, 2, random_update(201)},
                                {3, 4, random_update(202)},
                                {5, 7, random_update(203)},
                                {8, 8, random_update(204)}};
  const auto out = net.run_cycle(/*now=*/8, arrivals);
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 8, poly));
  // Weight sum: 64/7 + 64/5 + 64/2 + 64 -> llround: 9 + 13 + 32 + 64.
  EXPECT_EQ(out.weight_sum, 9u + 13u + 32u + 64u);
}

TEST(AsyncRuntime, ContributorCrashAfterUploadStillIncluded) {
  // The async "delayed user": its masked update is buffered, then it
  // crashes. The surviving users' weighted shares still cancel its mask.
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 7);

  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, 3, random_update(300 + b)});
  }
  const auto out =
      net.run_cycle(/*now=*/4, arrivals, /*crash_before_recovery=*/{0, 1});
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 4, constant));
}

TEST(AsyncRuntime, TooFewReachableUsersAborts) {
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 9);
  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, 1, random_update(400 + b)});
  }
  // Crash 4 users: only 6 < U = 7 can respond.
  EXPECT_THROW((void)net.run_cycle(1, arrivals, {0, 1, 2, 3}),
               lsa::ProtocolError);
}

TEST(AsyncRuntime, AllZeroStalenessWeightsAbort) {
  // Poly(alpha = 4) at tau = 100 with c_g = 2: c_g * 101^-4 rounds to 0 for
  // every update. The cycle must fail, not normalise by a zero weight sum.
  lsa::quant::StalenessPolicy poly4{
      lsa::quant::StalenessKind::kPolynomial, 4.0};
  lsa::runtime::AsyncNetwork net(make_params(), /*buffer_k=*/1, poly4,
                                 /*c_g=*/2, 17);
  const std::vector<Arrival> arrivals{{1, 0, random_update(450)}};
  EXPECT_THROW((void)net.run_cycle(/*now=*/100, arrivals),
               lsa::ProtocolError);
  EXPECT_EQ(net.server().buffered(), 1u);  // uploaded; recovery refused
}

TEST(AsyncRuntime, UploadWithoutTimestampedSharesIsRejected) {
  // A masked upload whose owner never shared a mask for its born round.
  // The server buffers and manifests it; a user holding no share for the
  // manifest entry must reject the manifest.
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), /*buffer_k=*/1, constant, kCg,
                                 19);
  const auto upload = random_update(460);
  net.router().send_row(lsa::runtime::MsgType::kMaskedModel, /*sender=*/2,
                        /*receiver=*/static_cast<std::uint32_t>(kN),
                        /*round=*/4, std::span<const rep>(upload));
  net.pump();
  ASSERT_EQ(net.server().buffered(), 1u);
  net.server().send_manifest(/*now=*/4, constant, kCg);
  EXPECT_THROW(net.pump(), lsa::ProtocolError);
}

TEST(AsyncRuntime, SharesAreConsumedAfterAggregation) {
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 11);
  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, 2, random_update(500 + b)});
  }
  (void)net.run_cycle(2, arrivals);
  // Every user's store must be empty: all manifested shares were consumed.
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(net.user(j).stored_shares(), 0u) << "user " << j;
  }
}

TEST(AsyncRuntime, SameUserTwiceInOneCycleAtDifferentBornRounds) {
  // One user delivers updates born at rounds 10 and 11 into one buffer.
  // A repeated user takes run_cycle's serial submit path, and each upload's
  // mask is cancelled by the shares stamped with its own born round.
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), /*buffer_k=*/2, constant, kCg,
                                 21);
  const std::vector<Arrival> arrivals{{1, 10, random_update(550)},
                                      {1, 11, random_update(551)}};
  const auto out = net.run_cycle(/*now=*/12, arrivals);
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 12, constant));
  EXPECT_EQ(out.weight_sum, 2 * kCg);
}

TEST(AsyncRuntime, SecondUploadAtOneBornRoundRejected) {
  // Two uploads of one user at one born round carry one mask, which the
  // manifest would recover once: the server refuses the second before it
  // touches the born round's sum.
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), /*buffer_k=*/2, constant, kCg,
                                 23);
  const std::vector<Arrival> arrivals{{1, 5, random_update(560)},
                                      {1, 5, random_update(561)}};
  EXPECT_THROW((void)net.run_cycle(/*now=*/5, arrivals), lsa::ProtocolError);
  EXPECT_EQ(net.server().buffered(), 1u);
}

TEST(AsyncRuntime, FailedCycleLeavesTheNextCycleExact) {
  // Cycle 1 fails: users 6-9 crash before recovery, so only 6 < U = 7
  // answer its manifest, and the live users have consumed their shares of
  // the buffered updates. The failed finish retires what the manifest
  // sealed, so cycle 2, with everyone revived and four other users, is
  // exact.
  auto p = make_params();
  p.privacy = 3;
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(p, kBufferK, constant, kCg, 25);
  std::vector<Arrival> first;
  std::vector<Arrival> second;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    first.push_back({b, /*born_round=*/1, random_update(800 + b)});
    second.push_back({4 + b, /*born_round=*/2, random_update(810 + b)});
  }
  EXPECT_THROW((void)net.run_cycle(/*now=*/1, first, {6, 7, 8, 9}),
               lsa::ProtocolError);
  EXPECT_EQ(net.server().buffered(), 0u);
  for (std::size_t j = 0; j < kN; ++j) net.router().revive(j);
  const auto out = net.run_cycle(/*now=*/2, second);
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(second, 2, constant));
  EXPECT_EQ(out.weight_sum, kBufferK * kCg);
}

TEST(AsyncRuntime, MultipleCyclesWithInterleavedTimestamps) {
  lsa::quant::StalenessPolicy poly{
      lsa::quant::StalenessKind::kPolynomial, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, poly, kCg, 13);

  for (std::uint64_t cycle = 0; cycle < 3; ++cycle) {
    const std::uint64_t now = 10 * (cycle + 1);
    std::vector<Arrival> arrivals;
    for (std::size_t b = 0; b < kBufferK; ++b) {
      arrivals.push_back({(2 * b + cycle) % kN, now - b,
                          random_update(600 + 10 * cycle + b)});
    }
    const auto out = net.run_cycle(now, arrivals);
    EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, now, poly))
        << "cycle " << cycle;
  }
}

TEST(AsyncRuntime, ResultBroadcastReachesEveryUser) {
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 15);
  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b + 2, 6, random_update(700 + b)});
  }
  const auto out = net.run_cycle(6, arrivals);
  for (std::size_t j = 0; j < kN; ++j) {
    ASSERT_TRUE(net.user(j).last_result().has_value()) << j;
    EXPECT_EQ(*net.user(j).last_result(), out.weighted_sum) << j;
  }
}

}  // namespace

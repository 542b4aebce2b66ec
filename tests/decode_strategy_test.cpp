// Every shipped aggregate-decode strategy (barycentric / batched-ntt /
// auto) must match the textbook Lagrange oracle (decode_oracle.h) bit for
// bit on every parameter combination — serial and pooled, forced-scalar
// and dispatched, on fresh and reused plans — and the codec must recover
// exact aggregates through each of them, including on the NTT-friendly
// Goldilocks field, where a full LightSecAgg round is also exercised.
#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <vector>

#include "coding/decode_plan.h"
#include "coding/mask_codec.h"
#include "common/rng.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/random_field.h"
#include "field/simd/dispatch.h"
#include "field/simd/simd_policy.h"
#include "protocol/lightsecagg.h"
#include "sys/thread_pool.h"

#include "decode_oracle.h"

namespace {

using lsa::coding::DecodeStrategy;
using lsa::field::Fp32;
using lsa::field::Goldilocks;
using lsa::test::oracle_decode;

constexpr DecodeStrategy kAll[] = {DecodeStrategy::kBarycentric,
                                   DecodeStrategy::kBatchedNtt,
                                   DecodeStrategy::kAuto};

// ---------------------------------------------------------------------------
// Kernel-level equality with the oracle on raw share matrices: one fresh
// plan per strategy, as a caller decoding a survivor set once would build.
// ---------------------------------------------------------------------------

template <class F>
void expect_kernels_agree(std::size_t u, std::size_t num_betas,
                          std::size_t seg_len, std::uint64_t seed) {
  using rep = typename F::rep;
  lsa::common::Xoshiro256ss rng(seed);
  std::vector<rep> xs(u), betas(num_betas);
  for (std::size_t j = 0; j < u; ++j) xs[j] = F::from_u64(100 + 7 * j);
  for (std::size_t k = 0; k < num_betas; ++k) betas[k] = F::from_u64(1 + k);
  std::vector<std::vector<rep>> store(u);
  std::vector<const rep*> rows(u);
  for (std::size_t j = 0; j < u; ++j) {
    store[j] = lsa::field::uniform_vector<F>(seg_len, rng);
    rows[j] = store[j].data();
  }
  std::span<const rep* const> shares(rows);

  const auto ref = oracle_decode<F>(xs, betas, shares, seg_len);
  for (const auto strategy : kAll) {
    lsa::coding::BatchedDecodePlan<F> plan{std::span<const rep>(xs),
                                           std::span<const rep>(betas)};
    EXPECT_EQ(plan.run(strategy, shares, seg_len, {}), ref)
        << "strategy=" << lsa::coding::to_string(strategy) << " u=" << u
        << " betas=" << num_betas << " seg=" << seg_len;
  }
}

TEST(DecodeStrategy, KernelsAgreeOnGoldilocks) {
  expect_kernels_agree<Goldilocks>(4, 2, 16, 1);
  expect_kernels_agree<Goldilocks>(7, 3, 33, 2);    // odd U: carry-through
  expect_kernels_agree<Goldilocks>(16, 8, 128, 3);
  expect_kernels_agree<Goldilocks>(33, 5, 64, 4);
  expect_kernels_agree<Goldilocks>(64, 32, 17, 5);
  expect_kernels_agree<Goldilocks>(100, 30, 8, 6);  // U > NTT threshold
}

TEST(DecodeStrategy, KernelsAgreeOnFp32) {
  // kBatchedNtt degrades to schoolbook products on Fp32 but must stay
  // exact.
  expect_kernels_agree<Fp32>(4, 2, 16, 11);
  expect_kernels_agree<Fp32>(13, 6, 50, 12);
  expect_kernels_agree<Fp32>(32, 16, 20, 13);
}

TEST(DecodeStrategy, SingleShareSingleBeta) {
  expect_kernels_agree<Goldilocks>(1, 1, 5, 21);
}

// ---------------------------------------------------------------------------
// BatchedDecodePlan: bit-parity with the oracle across execution policies,
// plan reuse, and awkward tree shapes.
// ---------------------------------------------------------------------------

template <class F>
void expect_plan_parity(std::size_t u, std::size_t num_betas,
                        std::size_t seg_len, std::uint64_t seed) {
  using rep = typename F::rep;
  lsa::common::Xoshiro256ss rng(seed);
  std::vector<rep> xs(u), betas(num_betas);
  for (std::size_t j = 0; j < u; ++j) xs[j] = F::from_u64(1000 + 11 * j);
  for (std::size_t k = 0; k < num_betas; ++k) betas[k] = F::from_u64(1 + k);
  std::vector<std::vector<rep>> store(u);
  std::vector<const rep*> rows(u);
  for (std::size_t j = 0; j < u; ++j) {
    store[j] = lsa::field::uniform_vector<F>(seg_len, rng);
    rows[j] = store[j].data();
  }
  std::span<const rep* const> shares(rows);

  const auto ref = oracle_decode<F>(xs, betas, shares, seg_len);

  lsa::coding::BatchedDecodePlan<F> plan{std::span<const rep>(xs),
                                         std::span<const rep>(betas)};
  // Serial, first stream (pays setup).
  EXPECT_EQ(plan.run(DecodeStrategy::kBatchedNtt, shares, seg_len, {}), ref)
      << "u=" << u << " betas=" << num_betas << " seg=" << seg_len;
  // Reused plan (cached trees/tables) must stream the same bits.
  EXPECT_EQ(plan.run(DecodeStrategy::kBatchedNtt, shares, seg_len, {}), ref);
  EXPECT_EQ(plan.run(DecodeStrategy::kBarycentric, shares, seg_len, {}),
            ref);
  // Parallel policies, including chunk sizes that split the gather blocks.
  for (const std::size_t workers : {2ul, 4ul}) {
    lsa::sys::ThreadPool pool(workers);
    for (const std::size_t chunk : {0ul, 64ul, 1000ul}) {
      lsa::sys::ExecPolicy pol{&pool, chunk};
      EXPECT_EQ(plan.run(DecodeStrategy::kBatchedNtt, shares, seg_len, pol),
                ref)
          << "workers=" << workers << " chunk=" << chunk;
      EXPECT_EQ(plan.run(DecodeStrategy::kBarycentric, shares, seg_len,
                         pol),
                ref);
    }
  }
}

TEST(BatchedDecodePlan, ParityOnGoldilocks) {
  expect_plan_parity<Goldilocks>(4, 2, 16, 31);
  expect_plan_parity<Goldilocks>(7, 3, 33, 32);    // odd U: carry-through
  expect_plan_parity<Goldilocks>(16, 8, 128, 33);
  expect_plan_parity<Goldilocks>(33, 5, 64, 34);   // odd tree both sides
  expect_plan_parity<Goldilocks>(64, 32, 100, 35);
  expect_plan_parity<Goldilocks>(100, 30, 64, 36);  // above NTT threshold
  expect_plan_parity<Goldilocks>(96, 95, 40, 37);   // T = 1: tiny qlen
  expect_plan_parity<Goldilocks>(80, 1, 40, 38);    // single beta
  expect_plan_parity<Goldilocks>(1, 1, 9, 39);
}

TEST(BatchedDecodePlan, ParityOnNonNttFields) {
  // Schoolbook products everywhere — still exact, still plan-cached.
  expect_plan_parity<Fp32>(13, 6, 50, 41);
  expect_plan_parity<Fp32>(32, 16, 33, 42);
  expect_plan_parity<lsa::field::Fp61>(17, 7, 29, 43);
}

TEST(BatchedDecodePlan, AutoResolvesAndMatches) {
  using F = Goldilocks;
  using rep = F::rep;
  lsa::common::Xoshiro256ss rng(51);
  const std::size_t u = 40, nb = 16, seg = 64;
  std::vector<rep> xs(u), betas(nb);
  for (std::size_t j = 0; j < u; ++j) xs[j] = F::from_u64(500 + j);
  for (std::size_t k = 0; k < nb; ++k) betas[k] = F::from_u64(1 + k);
  std::vector<std::vector<rep>> store(u);
  std::vector<const rep*> rows(u);
  for (std::size_t j = 0; j < u; ++j) {
    store[j] = lsa::field::uniform_vector<F>(seg, rng);
    rows[j] = store[j].data();
  }
  lsa::coding::BatchedDecodePlan<F> plan{std::span<const rep>(xs),
                                         std::span<const rep>(betas)};
  // Below U = 512 the GEMM wins everywhere measured; concrete strategies
  // pass through unchanged.
  EXPECT_EQ(plan.resolve(DecodeStrategy::kAuto), DecodeStrategy::kBarycentric);
  EXPECT_EQ(plan.resolve(DecodeStrategy::kBatchedNtt),
            DecodeStrategy::kBatchedNtt);
  EXPECT_EQ(plan.resolve(DecodeStrategy::kBarycentric),
            DecodeStrategy::kBarycentric);
  const auto got =
      plan.run(DecodeStrategy::kAuto, std::span<const rep* const>(rows),
               seg, {});
  EXPECT_EQ(got, oracle_decode<F>(xs, betas,
                                  std::span<const rep* const>(rows), seg));
}

// ---------------------------------------------------------------------------
// SIMD dispatch: the auto-dispatched vector kernels and the forced-scalar
// reference must both stream the oracle's bits under every strategy, field
// and execution policy (the substrate's core contract).
// ---------------------------------------------------------------------------

template <class F>
void expect_simd_scalar_parity(std::size_t u, std::size_t num_betas,
                               std::size_t seg_len, std::uint64_t seed) {
  namespace simd = lsa::field::simd;
  using rep = typename F::rep;
  lsa::common::Xoshiro256ss rng(seed);
  std::vector<rep> xs(u), betas(num_betas);
  for (std::size_t j = 0; j < u; ++j) xs[j] = F::from_u64(2000 + 13 * j);
  for (std::size_t k = 0; k < num_betas; ++k) betas[k] = F::from_u64(1 + k);
  std::vector<std::vector<rep>> store(u);
  std::vector<const rep*> rows(u);
  for (std::size_t j = 0; j < u; ++j) {
    store[j] = lsa::field::uniform_vector<F>(seg_len, rng);
    rows[j] = store[j].data();
  }
  std::span<const rep* const> shares(rows);
  const auto ref = oracle_decode<F>(xs, betas, shares, seg_len);
  lsa::coding::BatchedDecodePlan<F> plan{std::span<const rep>(xs),
                                         std::span<const rep>(betas)};
  for (const auto strategy :
       {DecodeStrategy::kBarycentric, DecodeStrategy::kBatchedNtt}) {
    {
      simd::ScopedSimdPolicy guard(simd::SimdPolicy::kForceScalar);
      EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
      EXPECT_EQ(plan.run(strategy, shares, seg_len, {}), ref)
          << "forced-scalar strategy=" << lsa::coding::to_string(strategy)
          << " u=" << u << " betas=" << num_betas << " seg=" << seg_len;
    }
    {
      simd::ScopedSimdPolicy guard(simd::SimdPolicy::kAuto);
      EXPECT_EQ(plan.run(strategy, shares, seg_len, {}), ref)
          << "dispatched strategy=" << lsa::coding::to_string(strategy)
          << " u=" << u << " betas=" << num_betas << " seg=" << seg_len
          << " isa=" << simd::level_name(simd::detected_level());
    }
    // A pool fan-out must inherit the caller's forced-scalar policy.
    lsa::sys::ThreadPool pool(3);
    lsa::sys::ExecPolicy pol{&pool, 64};
    {
      simd::ScopedSimdPolicy guard(simd::SimdPolicy::kForceScalar);
      EXPECT_EQ(plan.run(strategy, shares, seg_len, pol), ref);
    }
    {
      simd::ScopedSimdPolicy guard(simd::SimdPolicy::kAuto);
      EXPECT_EQ(plan.run(strategy, shares, seg_len, pol), ref);
    }
  }
}

TEST(SimdDispatchParity, PlanStreamsOnGoldilocks) {
  expect_simd_scalar_parity<Goldilocks>(4, 2, 16, 61);
  expect_simd_scalar_parity<Goldilocks>(7, 3, 33, 62);
  expect_simd_scalar_parity<Goldilocks>(33, 5, 61, 63);   // odd tail lanes
  expect_simd_scalar_parity<Goldilocks>(64, 32, 100, 64);
  expect_simd_scalar_parity<Goldilocks>(100, 30, 24, 65);
}

TEST(SimdDispatchParity, PlanStreamsOnOtherFields) {
  expect_simd_scalar_parity<Fp32>(13, 6, 50, 71);
  expect_simd_scalar_parity<Fp32>(32, 16, 33, 72);
  expect_simd_scalar_parity<lsa::field::Fp61>(17, 7, 29, 73);
  expect_simd_scalar_parity<lsa::field::Fp61>(48, 24, 70, 74);
}

// Protocol-level: a full round with Params::simd forced scalar equals the
// auto-dispatched round bit-for-bit across dropout patterns.
TEST(SimdDispatchParity, LightSecAggRoundMatchesForcedScalar) {
  using F = Goldilocks;
  using rep = F::rep;
  for (const std::uint64_t seed : {201ull, 202ull, 203ull}) {
    lsa::common::Xoshiro256ss rng(seed);
    lsa::protocol::Params params;
    params.num_users = 10;
    params.privacy = 2;
    params.dropout = 3;
    params.model_dim = 48;
    std::vector<std::vector<rep>> inputs(params.num_users);
    for (auto& x : inputs) {
      x = lsa::field::uniform_vector<F>(params.model_dim, rng);
    }
    std::vector<bool> dropped(params.num_users, false);
    for (std::size_t i = 0; i < params.dropout; ++i) {
      dropped[rng.next_below(params.num_users)] = true;
    }

    params.simd = lsa::field::simd::SimdPolicy::kForceScalar;
    lsa::protocol::LightSecAgg<F> scalar_proto(params, /*master_seed=*/7);
    const auto scalar_agg = scalar_proto.run_round(inputs, dropped);

    params.simd = lsa::field::simd::SimdPolicy::kAuto;
    lsa::protocol::LightSecAgg<F> auto_proto(params, /*master_seed=*/7);
    EXPECT_EQ(auto_proto.run_round(inputs, dropped), scalar_agg)
        << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Codec-level: every strategy recovers the exact aggregate mask.
// ---------------------------------------------------------------------------

/// Row r = holder survivors[r]'s aggregated share: the sum over the
/// survivors i of arena row survivors[r] * n + i (encode_all's layout,
/// where row j*N + i holds user i's share for holder j).
template <class F>
lsa::field::FlatMatrix<F> aggregate_shares(
    const lsa::field::FlatMatrix<F>& arena, std::size_t n,
    const std::vector<std::size_t>& survivors) {
  lsa::field::FlatMatrix<F> agg(survivors.size(), arena.cols());
  for (std::size_t r = 0; r < survivors.size(); ++r) {
    for (const std::size_t i : survivors) {
      lsa::field::add_inplace<F>(agg.row(r),
                                 arena.row(survivors[r] * n + i));
    }
  }
  return agg;
}

template <class F>
class CodecStrategy : public ::testing::Test {};

using CodecFields = ::testing::Types<Fp32, Goldilocks>;
TYPED_TEST_SUITE(CodecStrategy, CodecFields);

TYPED_TEST(CodecStrategy, AllStrategiesRecoverAggregate) {
  using F = TypeParam;
  using rep = typename F::rep;
  const std::size_t n = 12, u = 8, t = 3, d = 100;
  lsa::coding::MaskCodec<F> codec(n, u, t, d);
  lsa::common::Xoshiro256ss rng(33);

  // Users 0..n-1 make masks; users {1,4,5} drop before recovery.
  lsa::field::FlatMatrix<F> masks(n, d);
  lsa::field::FlatMatrix<F> arena(n * n, codec.segment_len());
  for (std::size_t i = 0; i < n; ++i) {
    lsa::field::fill_uniform<F>(masks.row(i), rng);
    codec.encode_into(masks.row(i), rng, arena, /*base=*/i, /*stride=*/n);
  }
  std::vector<std::size_t> survivors{0, 2, 3, 6, 7, 8, 9, 10, 11};
  std::vector<rep> expected(d, F::zero);
  for (const std::size_t i : survivors) {
    lsa::field::add_inplace<F>(std::span<rep>(expected), masks.row(i));
  }

  const auto agg = aggregate_shares<F>(arena, n, survivors);
  for (const auto strategy : kAll) {
    const auto got = codec.decode_aggregate(survivors, agg, {}, strategy);
    EXPECT_EQ(got, expected) << lsa::coding::to_string(strategy);
  }
}

TYPED_TEST(CodecStrategy, StrategiesAgreeOnUnevenSegmentPadding) {
  using F = TypeParam;
  using rep = typename F::rep;
  // d not divisible by U-T: the padded tail must decode identically.
  const std::size_t n = 9, u = 6, t = 2, d = 37;  // seg_len = ceil(37/4) = 10
  lsa::coding::MaskCodec<F> codec(n, u, t, d);
  ASSERT_EQ(codec.segment_len(), 10u);
  lsa::common::Xoshiro256ss rng(55);
  const auto mask = lsa::field::uniform_vector<F>(d, rng);
  lsa::field::FlatMatrix<F> sh(n, codec.segment_len());
  codec.encode_into(std::span<const rep>(mask), rng, sh);

  std::vector<std::size_t> owners{0, 1, 2, 3, 4, 5};
  const auto all_rows = sh.row_ptrs();
  const std::span<const rep* const> rows(all_rows.data(), owners.size());

  const auto ref = lsa::test::oracle_codec_decode<F>(codec, owners, rows);
  EXPECT_EQ(ref, mask);  // single-user "aggregate" is the mask itself
  for (const auto strategy : kAll) {
    EXPECT_EQ(codec.decode_aggregate_rows(owners, rows, {}, strategy), ref)
        << lsa::coding::to_string(strategy);
  }
}

// ---------------------------------------------------------------------------
// Protocol-level: a full LightSecAgg round runs on the Goldilocks field.
// ---------------------------------------------------------------------------

// Randomized sweep: for many random (dropout pattern, parameter) draws the
// shipped strategies must agree bit-for-bit on the protocol's real decode
// inputs (aggregated shares of surviving users), not just on synthetic
// matrices.
class StrategyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrategyFuzz, RandomDropoutPatternsAllStrategiesAgree) {
  using F = Goldilocks;
  using rep = F::rep;
  lsa::common::Xoshiro256ss rng(GetParam());
  const std::size_t n = 8 + rng.next_below(10);        // 8..17
  const std::size_t t = 1 + rng.next_below(n / 3);     // 1..n/3
  const std::size_t u = t + 1 + rng.next_below(n - t - 1);  // t+1..n-1
  const std::size_t d = 16 + rng.next_below(100);
  lsa::coding::MaskCodec<F> codec(n, u, t, d);

  // Random masks for all users; a random surviving set of size >= u.
  lsa::field::FlatMatrix<F> masks(n, d);
  lsa::field::FlatMatrix<F> arena(n * n, codec.segment_len());
  for (std::size_t i = 0; i < n; ++i) {
    lsa::field::fill_uniform<F>(masks.row(i), rng);
    codec.encode_into(masks.row(i), rng, arena, /*base=*/i, /*stride=*/n);
  }
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < n; ++i) survivors.push_back(i);
  // Drop a random subset, keeping at least u.
  while (survivors.size() > u && (rng.next_u64() & 1)) {
    survivors.erase(survivors.begin() +
                    static_cast<std::ptrdiff_t>(
                        rng.next_below(survivors.size())));
  }

  std::vector<rep> expected(d, F::zero);
  for (const auto i : survivors) {
    lsa::field::add_inplace<F>(std::span<rep>(expected), masks.row(i));
  }
  const auto agg = aggregate_shares<F>(arena, n, survivors);
  for (const auto strategy : kAll) {
    ASSERT_EQ(codec.decode_aggregate(survivors, agg, {}, strategy), expected)
        << "seed=" << GetParam() << " n=" << n << " t=" << t << " u=" << u
        << " strategy=" << lsa::coding::to_string(strategy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyFuzz,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{21}));

TEST(DecodeStrategy, FullLightSecAggRoundOnGoldilocks) {
  using F = Goldilocks;
  using rep = F::rep;
  lsa::protocol::Params params;
  params.num_users = 10;
  params.privacy = 3;
  params.dropout = 3;
  params.model_dim = 64;
  lsa::protocol::LightSecAgg<F> proto(params, /*master_seed=*/99);

  lsa::common::Xoshiro256ss rng(77);
  std::vector<std::vector<rep>> inputs(params.num_users);
  for (auto& x : inputs) x = lsa::field::uniform_vector<F>(64, rng);
  std::vector<bool> dropped(params.num_users, false);
  dropped[2] = dropped[5] = true;

  const auto agg = proto.run_round(inputs, dropped);
  std::vector<rep> expected(64, F::zero);
  for (std::size_t i = 0; i < params.num_users; ++i) {
    if (dropped[i]) continue;
    lsa::field::add_inplace<F>(std::span<rep>(expected),
                               std::span<const rep>(inputs[i]));
  }
  EXPECT_EQ(agg, expected);
}

}  // namespace

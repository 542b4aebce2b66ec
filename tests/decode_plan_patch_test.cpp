// Incremental decode-plan maintenance must be invisible in the output:
// BatchedDecodePlan::patched_from applied to survivor churn up to the
// codec bound (MaskCodec::kMaxPatchChurn = 8) has to land on the SAME
// BITS as a from-scratch plan over the same points and as the textbook
// oracle (decode_oracle.h), for both the barycentric GEMM and the
// batched-NTT streaming path — swept exhaustively at churn 1/2 at small
// U, randomized at U = 257 (carry nodes) and at churn 3..8. The
// MaskCodec layer on top must route churn <= 8 survivor sets through the
// patch, rebuild above the bound, keep its plan cache LRU-bounded, keep
// the telemetry counters (full_builds / incremental_patches / evictions)
// honest, and decode every patched set to the oracle's bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "coding/decode_plan.h"
#include "coding/mask_codec.h"
#include "common/error.h"
#include "common/rng.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/random_field.h"

#include "decode_oracle.h"

namespace {

using lsa::coding::DecodeStrategy;
using lsa::field::Fp32;
using lsa::field::Goldilocks;

template <class F>
using Plan = lsa::coding::BatchedDecodePlan<F>;
template <class F>
using Rep = typename F::rep;

// ---------------------------------------------------------------------------
// Plan-level bit-identity: patched_from vs a fresh plan over the same points.
// ---------------------------------------------------------------------------

template <class F>
struct PatchFixture {
  using rep = Rep<F>;
  std::vector<rep> xs, betas;
  std::vector<std::vector<rep>> shares;
  std::vector<const rep*> rows;
  std::size_t seg_len;

  PatchFixture(std::size_t u, std::size_t nb, std::size_t seg,
               std::uint64_t seed)
      : seg_len(seg) {
    lsa::common::Xoshiro256ss rng(seed);
    xs.resize(u);
    betas.resize(nb);
    for (std::size_t j = 0; j < u; ++j) xs[j] = F::from_u64(100 + 7 * j);
    for (std::size_t k = 0; k < nb; ++k) betas[k] = F::from_u64(1 + k);
    shares.resize(u);
    rows.resize(u);
    for (std::size_t j = 0; j < u; ++j) {
      shares[j] = lsa::field::uniform_vector<F>(seg, rng);
      rows[j] = shares[j].data();
    }
  }

  /// A replacement value outside both the xs lattice and the betas.
  [[nodiscard]] rep fresh_value(std::size_t i) const {
    return F::from_u64(100000 + 13 * i);
  }
};

/// Builds a base plan with BOTH components materialized, patches it with
/// `reps`, and demands byte-equality against a from-scratch plan over the
/// patched point set and against the oracle, on both strategies.
template <class F>
void expect_patch_bit_identical(
    PatchFixture<F>& fx,
    const std::vector<typename Plan<F>::PointReplacement>& reps) {
  Plan<F> base{std::span<const Rep<F>>(fx.xs),
               std::span<const Rep<F>>(fx.betas)};
  // Force both lazy components so patched_from patches both.
  (void)base.run(DecodeStrategy::kBarycentric,
                 std::span<const Rep<F>* const>(fx.rows), fx.seg_len, {});
  (void)base.run(DecodeStrategy::kBatchedNtt,
                 std::span<const Rep<F>* const>(fx.rows), fx.seg_len, {});

  auto patched = Plan<F>::patched_from(
      base, std::span<const typename Plan<F>::PointReplacement>(reps));
  EXPECT_TRUE(patched->patched());
  EXPECT_GE(patched->patched_nodes(), reps.size());

  std::vector<Rep<F>> new_xs = fx.xs;
  for (const auto& r : reps) new_xs[r.pos] = r.value;
  Plan<F> fresh{std::span<const Rep<F>>(new_xs),
                std::span<const Rep<F>>(fx.betas)};
  const auto oracle = lsa::test::oracle_decode<F>(
      new_xs, fx.betas, std::span<const Rep<F>* const>(fx.rows), fx.seg_len);
  for (const auto s :
       {DecodeStrategy::kBarycentric, DecodeStrategy::kBatchedNtt}) {
    const auto got = patched->run(
        s, std::span<const Rep<F>* const>(fx.rows), fx.seg_len, {});
    const auto want = fresh.run(
        s, std::span<const Rep<F>* const>(fx.rows), fx.seg_len, {});
    ASSERT_EQ(got, want) << "u=" << fx.xs.size() << " churn=" << reps.size()
                         << " first_pos=" << reps.front().pos
                         << " strategy=" << lsa::coding::to_string(s);
    ASSERT_EQ(want, oracle) << "u=" << fx.xs.size()
                            << " strategy=" << lsa::coding::to_string(s);
  }
}

template <class F>
void exhaustive_plus_minus_one(std::size_t u, std::size_t nb,
                               std::size_t seg) {
  PatchFixture<F> fx(u, nb, seg, /*seed=*/u);
  for (std::size_t p = 0; p < u; ++p) {
    expect_patch_bit_identical(fx, {{p, fx.fresh_value(p)}});
  }
}

template <class F>
void exhaustive_plus_minus_two(std::size_t u, std::size_t nb,
                               std::size_t seg) {
  PatchFixture<F> fx(u, nb, seg, /*seed=*/u + 1);
  for (std::size_t a = 0; a < u; ++a) {
    for (std::size_t b = a + 1; b < u; ++b) {
      expect_patch_bit_identical(
          fx, {{a, fx.fresh_value(a)}, {b, fx.fresh_value(u + b)}});
    }
  }
}

TEST(DecodePlanPatch, ExhaustiveSingleChurnU8) {
  exhaustive_plus_minus_one<Goldilocks>(8, 4, 16);
}

TEST(DecodePlanPatch, ExhaustiveSingleChurnU64) {
  exhaustive_plus_minus_one<Goldilocks>(64, 16, 16);
}

TEST(DecodePlanPatch, ExhaustiveSingleChurnU257) {
  // Non-power-of-two: the ancestor walk crosses carry (odd-node) levels.
  exhaustive_plus_minus_one<Goldilocks>(257, 8, 8);
}

TEST(DecodePlanPatch, ExhaustiveDoubleChurnU8) {
  exhaustive_plus_minus_two<Goldilocks>(8, 4, 16);
}

TEST(DecodePlanPatch, ExhaustiveDoubleChurnU64) {
  exhaustive_plus_minus_two<Goldilocks>(64, 8, 8);
}

TEST(DecodePlanPatch, RandomizedDoubleChurnU257) {
  PatchFixture<Goldilocks> fx(257, 8, 8, /*seed=*/99);
  lsa::common::Xoshiro256ss rng(1234);
  for (std::size_t trial = 0; trial < 100; ++trial) {
    const std::size_t a = rng.next_u64() % 257;
    std::size_t b = rng.next_u64() % 257;
    while (b == a) b = rng.next_u64() % 257;
    expect_patch_bit_identical(
        fx, {{a, fx.fresh_value(2 * trial)}, {b, fx.fresh_value(2 * trial + 1)}});
  }
}

TEST(DecodePlanPatch, RandomizedChurnUpToBoundU64) {
  // Churn 3..8 (kMaxPatchChurn) at U = 64: random distinct positions,
  // patched plan must stay bit-identical to a fresh build on both paths.
  PatchFixture<Goldilocks> fx(64, 16, 8, /*seed=*/64);
  lsa::common::Xoshiro256ss rng(4242);
  std::size_t next_val = 0;
  for (std::size_t churn = 3;
       churn <= lsa::coding::MaskCodec<Goldilocks>::kMaxPatchChurn; ++churn) {
    for (std::size_t trial = 0; trial < 20; ++trial) {
      std::vector<std::size_t> pos;
      while (pos.size() < churn) {
        const std::size_t p = rng.next_u64() % 64;
        if (std::find(pos.begin(), pos.end(), p) == pos.end()) {
          pos.push_back(p);
        }
      }
      std::vector<Plan<Goldilocks>::PointReplacement> reps;
      reps.reserve(churn);
      for (const std::size_t p : pos) {
        reps.push_back({p, fx.fresh_value(next_val++)});
      }
      expect_patch_bit_identical(fx, reps);
    }
  }
}

TEST(DecodePlanPatch, NonNttFieldPatchesBarycentric) {
  // Fp32 has no NTT plane; the patched plan must still match fresh on the
  // GEMM path (patched_from only patches what the base built).
  PatchFixture<Fp32> fx(16, 8, 16, 7);
  Plan<Fp32> base{std::span<const Rep<Fp32>>(fx.xs),
                  std::span<const Rep<Fp32>>(fx.betas)};
  (void)base.run(DecodeStrategy::kBarycentric,
                 std::span<const Rep<Fp32>* const>(fx.rows), fx.seg_len, {});
  std::vector<Plan<Fp32>::PointReplacement> reps{{3, fx.fresh_value(0)},
                                                 {11, fx.fresh_value(1)}};
  auto patched = Plan<Fp32>::patched_from(
      base, std::span<const Plan<Fp32>::PointReplacement>(reps));
  std::vector<Rep<Fp32>> new_xs = fx.xs;
  for (const auto& r : reps) new_xs[r.pos] = r.value;
  Plan<Fp32> fresh{std::span<const Rep<Fp32>>(new_xs),
                   std::span<const Rep<Fp32>>(fx.betas)};
  EXPECT_EQ(patched->run(DecodeStrategy::kBarycentric,
                         std::span<const Rep<Fp32>* const>(fx.rows),
                         fx.seg_len, {}),
            fresh.run(DecodeStrategy::kBarycentric,
                      std::span<const Rep<Fp32>* const>(fx.rows), fx.seg_len,
                      {}));
}

TEST(DecodePlanPatch, RejectsInvalidReplacements) {
  PatchFixture<Goldilocks> fx(8, 4, 8, 3);
  Plan<Goldilocks> base{std::span<const Rep<Goldilocks>>(fx.xs),
                        std::span<const Rep<Goldilocks>>(fx.betas)};
  using PR = Plan<Goldilocks>::PointReplacement;
  const auto patch = [&](std::vector<PR> reps) {
    return Plan<Goldilocks>::patched_from(base,
                                          std::span<const PR>(reps));
  };
  EXPECT_THROW((void)patch({{8, fx.fresh_value(0)}}), lsa::CodingError);
  EXPECT_THROW((void)patch({{0, fx.xs[3]}}), lsa::CodingError);   // dup point
  EXPECT_THROW((void)patch({{0, fx.betas[1]}}), lsa::CodingError);  // beta
  // Sequential application: the second replacement colliding with the
  // FIRST replacement's new value is a duplicate too.
  EXPECT_THROW(
      (void)patch({{0, fx.fresh_value(0)}, {1, fx.fresh_value(0)}}),
      lsa::CodingError);
}

// ---------------------------------------------------------------------------
// MaskCodec layer: churn routing, telemetry, LRU bound.
// ---------------------------------------------------------------------------

using Codec = lsa::coding::MaskCodec<Goldilocks>;
using GRep = Goldilocks::rep;

constexpr DecodeStrategy kStrategies[] = {DecodeStrategy::kBatchedNtt,
                                          DecodeStrategy::kBarycentric,
                                          DecodeStrategy::kAuto};

/// Random aggregated-share rows for a given owner set; decode output is
/// checked against the oracle on the same rows.
struct CodecRows {
  std::vector<std::vector<GRep>> store;
  std::vector<const GRep*> rows;

  CodecRows(std::size_t u, std::size_t seg, lsa::common::Xoshiro256ss& rng) {
    store.resize(u);
    rows.resize(u);
    for (std::size_t j = 0; j < u; ++j) {
      store[j] = lsa::field::uniform_vector<Goldilocks>(seg, rng);
      rows[j] = store[j].data();
    }
  }
};

/// The oracle's decode of `data` presented under `owners`.
std::vector<GRep> oracle(const Codec& codec,
                         const std::vector<std::size_t>& owners,
                         const CodecRows& data) {
  return lsa::test::oracle_codec_decode<Goldilocks>(
      codec, owners, std::span<const GRep* const>(data.rows));
}

TEST(MaskCodecPatch, SmallChurnRoutesThroughPatch) {
  constexpr std::size_t kN = 40, kU = 8, kT = 2, kD = 64;
  Codec codec(kN, kU, kT, kD);
  lsa::common::Xoshiro256ss rng(42);
  CodecRows data(kU, codec.segment_len(), rng);

  std::vector<std::size_t> owners(kU);
  std::iota(owners.begin(), owners.end(), 0);  // {0..7}
  // Force the fast component too so the patch re-multiplies tree nodes.
  const auto first = codec.decode_aggregate_rows(
      owners, std::span<const GRep* const>(data.rows), {},
      DecodeStrategy::kBatchedNtt);
  const auto reused = codec.decode_aggregate_rows(
      owners, std::span<const GRep* const>(data.rows), {},
      DecodeStrategy::kBarycentric);
  auto st = codec.last_decode_stats();
  EXPECT_FALSE(st.plan_patched);
  EXPECT_TRUE(st.plan_reused);  // second decode, same owners
  EXPECT_EQ(st.full_builds, 1u);
  EXPECT_EQ(st.incremental_patches, 0u);
  EXPECT_EQ(first, oracle(codec, owners, data));
  EXPECT_EQ(reused, first);

  // ±1 churn: owner 3 leaves, owner 20 joins.
  owners[3] = 20;
  const auto patched_out = codec.decode_aggregate_rows(
      owners, std::span<const GRep* const>(data.rows), {},
      DecodeStrategy::kBatchedNtt);
  st = codec.last_decode_stats();
  EXPECT_TRUE(st.plan_patched);
  EXPECT_FALSE(st.plan_reused);
  EXPECT_GE(st.patched_nodes, 1u);
  EXPECT_EQ(st.full_builds, 1u);
  EXPECT_EQ(st.incremental_patches, 1u);
  EXPECT_EQ(patched_out, oracle(codec, owners, data));

  // ±2 churn off the ORIGINAL set (still cached, churn 2 <= bound).
  std::vector<std::size_t> owners2(kU);
  std::iota(owners2.begin(), owners2.end(), 0);
  owners2[0] = 21;
  owners2[5] = 22;
  const auto patched2 = codec.decode_aggregate_rows(
      owners2, std::span<const GRep* const>(data.rows), {},
      DecodeStrategy::kBatchedNtt);
  st = codec.last_decode_stats();
  EXPECT_TRUE(st.plan_patched);
  EXPECT_EQ(st.incremental_patches, 2u);
  EXPECT_EQ(patched2, oracle(codec, owners2, data));

  // Churn 3 is still within kMaxPatchChurn (= 8): patched too.
  std::vector<std::size_t> owners3(kU);
  std::iota(owners3.begin(), owners3.end(), 0);
  owners3[0] = 30;
  owners3[1] = 31;
  owners3[2] = 32;
  const auto patched3 = codec.decode_aggregate_rows(
      owners3, std::span<const GRep* const>(data.rows), {},
      DecodeStrategy::kBatchedNtt);
  st = codec.last_decode_stats();
  EXPECT_TRUE(st.plan_patched);
  EXPECT_FALSE(st.plan_reused);
  EXPECT_EQ(st.full_builds, 1u);
  EXPECT_EQ(st.incremental_patches, 3u);
  EXPECT_EQ(patched3, oracle(codec, owners3, data));
}

TEST(MaskCodecPatch, ChurnBoundaryPatchesAtEightRebuildsAtNine) {
  // kU = 16 so churn can exceed the bound. A set differing from the
  // cached base by exactly kMaxPatchChurn (8) members is patched and
  // bit-identical to the oracle; one more leaver (churn 9
  // against every cached set) forces a full rebuild.
  constexpr std::size_t kN = 256, kU = 16, kT = 4, kD = 64;
  static_assert(Codec::kMaxPatchChurn == 8,
                "boundary sets below assume the churn bound is 8");
  Codec codec(kN, kU, kT, kD);
  lsa::common::Xoshiro256ss rng(17);
  CodecRows data(kU, codec.segment_len(), rng);

  std::vector<std::size_t> base(kU);
  std::iota(base.begin(), base.end(), 0);  // {0..15}
  (void)codec.decode_aggregate_rows(
      base, std::span<const GRep* const>(data.rows), {},
      DecodeStrategy::kBatchedNtt);
  auto st = codec.last_decode_stats();
  EXPECT_EQ(st.full_builds, 1u);

  // Replace members 0..7 -> {100..107}: churn 8 == bound, patched.
  std::vector<std::size_t> at_bound(kU);
  std::iota(at_bound.begin(), at_bound.end(), 0);
  for (std::size_t i = 0; i < 8; ++i) at_bound[i] = 100 + i;
  const auto got8 = codec.decode_aggregate_rows(
      at_bound, std::span<const GRep* const>(data.rows), {},
      DecodeStrategy::kBatchedNtt);
  st = codec.last_decode_stats();
  EXPECT_TRUE(st.plan_patched);
  EXPECT_EQ(st.full_builds, 1u);
  EXPECT_EQ(st.incremental_patches, 1u);
  EXPECT_EQ(got8, oracle(codec, at_bound, data));

  // Replace members 0..8 -> {200..208}: churn 9 against the base AND
  // churn 9 against the churn-8 set (they share only {9..15}) — rebuild.
  std::vector<std::size_t> over_bound(kU);
  std::iota(over_bound.begin(), over_bound.end(), 0);
  for (std::size_t i = 0; i < 9; ++i) over_bound[i] = 200 + i;
  const auto got9 = codec.decode_aggregate_rows(
      over_bound, std::span<const GRep* const>(data.rows), {},
      DecodeStrategy::kBatchedNtt);
  st = codec.last_decode_stats();
  EXPECT_FALSE(st.plan_patched);
  EXPECT_FALSE(st.plan_reused);
  EXPECT_EQ(st.full_builds, 2u);
  EXPECT_EQ(st.incremental_patches, 1u);
  EXPECT_EQ(got9, oracle(codec, over_bound, data));
}

TEST(MaskCodecPatch, DecodeOrderIndependentAcrossPatchedPlans) {
  // The same survivor set presented in a different owner order must reuse
  // the cached (patched) plan and return identical bits.
  constexpr std::size_t kN = 40, kU = 8, kT = 2, kD = 32;
  Codec codec(kN, kU, kT, kD);
  lsa::common::Xoshiro256ss rng(7);
  CodecRows data(kU, codec.segment_len(), rng);

  std::vector<std::size_t> owners{0, 1, 2, 3, 4, 5, 6, 7};
  (void)codec.decode_aggregate_rows(
      owners, std::span<const GRep* const>(data.rows), {});
  owners[2] = 15;  // ±1 churn -> patched plan in cache
  const auto a = codec.decode_aggregate_rows(
      owners, std::span<const GRep* const>(data.rows), {});
  EXPECT_TRUE(codec.last_decode_stats().plan_patched);

  // Same set, reversed presentation; rows permuted to match their owners.
  std::vector<std::size_t> rev_owners(owners.rbegin(), owners.rend());
  std::vector<const GRep*> rev_rows(data.rows.rbegin(), data.rows.rend());
  const auto b = codec.decode_aggregate_rows(
      rev_owners, std::span<const GRep* const>(rev_rows), {});
  EXPECT_TRUE(codec.last_decode_stats().plan_reused);
  EXPECT_EQ(a, b);
}

TEST(MaskCodecPatch, LruBoundAndEvictionCounter) {
  // Pairwise-DISJOINT survivor sets (sliding by a whole kU = 16) have
  // churn 16 > kMaxPatchChurn vs every other set, so every lookup is a
  // full build; the cache must stay bounded at kMaxCachedPlans and count
  // each eviction.
  constexpr std::size_t kN = 680, kU = 16, kT = 4, kD = 16;
  constexpr std::size_t kSets = Codec::kMaxCachedPlans + 8;
  Codec codec(kN, kU, kT, kD);
  lsa::common::Xoshiro256ss rng(11);
  CodecRows data(kU, codec.segment_len(), rng);

  for (std::size_t s = 0; s < kSets; ++s) {
    std::vector<std::size_t> owners(kU);
    std::iota(owners.begin(), owners.end(), kU * s);
    (void)codec.decode_aggregate_rows(
        owners, std::span<const GRep* const>(data.rows), {});
  }
  auto st = codec.last_decode_stats();
  EXPECT_EQ(st.full_builds, kSets);
  EXPECT_EQ(st.incremental_patches, 0u);
  EXPECT_EQ(st.evictions, kSets - Codec::kMaxCachedPlans);

  // The oldest set was evicted: decoding it again is another full build.
  std::vector<std::size_t> first(kU);
  std::iota(first.begin(), first.end(), 0);
  (void)codec.decode_aggregate_rows(
      first, std::span<const GRep* const>(data.rows), {});
  st = codec.last_decode_stats();
  EXPECT_FALSE(st.plan_reused);
  EXPECT_EQ(st.full_builds, kSets + 1);

  // The most recent set is still resident: exact hit, no build.
  std::vector<std::size_t> last(kU);
  std::iota(last.begin(), last.end(), kU * (kSets - 1));
  (void)codec.decode_aggregate_rows(
      last, std::span<const GRep* const>(data.rows), {});
  st = codec.last_decode_stats();
  EXPECT_TRUE(st.plan_reused);
  EXPECT_EQ(st.full_builds, kSets + 1);
}

TEST(MaskCodecPatch, RandomizedChurnSoak) {
  // 100 rounds of ≤ 2-swap survivor churn, cycling through the shipped
  // strategies: every decode must match the oracle bit for bit and the
  // counters must account for every round exactly (build + patch + reuse
  // == rounds).
  constexpr std::size_t kN = 64, kU = 16, kT = 4, kD = 48;
  constexpr std::size_t kRounds = 100;
  Codec codec(kN, kU, kT, kD);
  lsa::common::Xoshiro256ss rng(2024);
  CodecRows data(kU, codec.segment_len(), rng);

  std::vector<std::size_t> owners(kU);
  std::iota(owners.begin(), owners.end(), 0);
  std::uint64_t reuses = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Swap up to 2 members for users outside the current set.
    const std::size_t swaps = rng.next_u64() % 3;
    for (std::size_t s = 0; s < swaps; ++s) {
      std::size_t candidate = rng.next_u64() % kN;
      while (std::find(owners.begin(), owners.end(), candidate) !=
             owners.end()) {
        candidate = rng.next_u64() % kN;
      }
      owners[rng.next_u64() % kU] = candidate;
    }
    const DecodeStrategy strategy = kStrategies[round % 3];
    const auto got = codec.decode_aggregate_rows(
        owners, std::span<const GRep* const>(data.rows), {}, strategy);
    if (codec.last_decode_stats().plan_reused) ++reuses;
    ASSERT_EQ(got, oracle(codec, owners, data))
        << "round " << round << " " << lsa::coding::to_string(strategy);
  }
  const auto st = codec.last_decode_stats();
  EXPECT_EQ(st.full_builds + st.incremental_patches + reuses, kRounds);
  EXPECT_GE(st.incremental_patches, 1u);
}

}  // namespace

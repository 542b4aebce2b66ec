// Parity of the chunked/parallel encode-decode engine with the per-user
// serial path: encode_all must match one encode_into per user, and the
// decode entry points (flat arena, row views, verified) must be
// bit-identical serial vs pooled across {Fp32, Fp61, Goldilocks} x decode
// strategies and equal the textbook oracle (decode_oracle.h), including
// dropout patterns at the U boundary (exactly U survivors / responders).
// Also pins down the protocol level: LightSecAgg rounds with and without a
// thread pool return identical aggregates.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "coding/mask_codec.h"
#include "common/rng.h"
#include "crypto/prg.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/random_field.h"
#include "protocol/lightsecagg.h"
#include "protocol/secagg.h"
#include "protocol/secagg_plus.h"
#include "sys/exec_policy.h"
#include "sys/thread_pool.h"

#include "decode_oracle.h"

namespace {

using lsa::field::FlatMatrix;
using lsa::field::Fp32;
using lsa::field::Fp61;
using lsa::field::Goldilocks;

template <class F>
class CodecParity : public ::testing::Test {};

using Fields = ::testing::Types<Fp32, Fp61, Goldilocks>;
TYPED_TEST_SUITE(CodecParity, Fields);

constexpr std::size_t kN = 12, kU = 8, kT = 3, kD = 50;

template <class F>
lsa::crypto::Prg user_prg(std::size_t i) {
  return lsa::crypto::Prg(lsa::crypto::seed_from_u64(0xc0dec + i));
}

TYPED_TEST(CodecParity, EncodeAllMatchesPerUserEncode) {
  using F = TypeParam;
  lsa::common::Xoshiro256ss rng(11);
  lsa::coding::MaskCodec<F> codec(kN, kU, kT, kD);

  FlatMatrix<F> masks(kN, kD);
  for (std::size_t i = 0; i < kN; ++i) {
    lsa::field::fill_uniform<F>(masks.row(i), rng);
  }

  // Per user: one encode_into into its own N-row matrix, fresh PRG per
  // user.
  std::vector<FlatMatrix<F>> per_user;
  for (std::size_t i = 0; i < kN; ++i) {
    auto prg = user_prg<F>(i);
    per_user.emplace_back(kN, codec.segment_len());
    codec.encode_into(masks.row(i), prg, per_user.back());
  }

  // Flat serial and flat parallel, same per-user PRGs.
  const auto factory = [](std::size_t i) { return user_prg<F>(i); };
  const auto serial = codec.encode_all(masks, factory);

  lsa::sys::ThreadPool pool(4);
  lsa::sys::ExecPolicy par{&pool, 256};
  const auto parallel = codec.encode_all(masks, factory, par);

  ASSERT_EQ(serial.rows(), kN * kN);
  ASSERT_EQ(serial.cols(), codec.segment_len());
  EXPECT_TRUE(serial == parallel);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      ASSERT_EQ(serial.row_copy(j * kN + i), per_user[i].row_copy(j))
          << "owner=" << i << " holder=" << j;
    }
  }
}

template <class F>
struct RoundFixture {
  using rep = typename F::rep;
  lsa::coding::MaskCodec<F> codec{kN, kU, kT, kD};
  FlatMatrix<F> masks{kN, kD};
  FlatMatrix<F> arena;
  std::vector<std::size_t> survivors;
  std::vector<rep> expected;  // sum of surviving masks

  explicit RoundFixture(std::uint64_t seed, std::size_t num_survivors) {
    lsa::common::Xoshiro256ss rng(seed);
    for (std::size_t i = 0; i < kN; ++i) {
      lsa::field::fill_uniform<F>(masks.row(i), rng);
    }
    arena = codec.encode_all(masks,
                             [](std::size_t i) { return user_prg<F>(i); });
    // Dropout at the tail: the first `num_survivors` users survive.
    survivors.resize(num_survivors);
    std::iota(survivors.begin(), survivors.end(), 0);
    expected.assign(kD, F::zero);
    for (std::size_t i : survivors) {
      lsa::field::add_inplace<F>(std::span<rep>(expected), masks.row(i));
    }
  }

  /// Aggregated share of holder j over the survivors.
  [[nodiscard]] std::vector<rep> agg_share(std::size_t j) const {
    std::vector<rep> acc(codec.segment_len(), F::zero);
    for (std::size_t i : survivors) {
      lsa::field::add_inplace<F>(std::span<rep>(acc),
                                 arena.row(j * kN + i));
    }
    return acc;
  }
};

TYPED_TEST(CodecParity, DecodeParityAtExactlyUBoundary) {
  using F = TypeParam;
  using rep = typename F::rep;
  // Exactly U survivors — the hardest legal dropout pattern (N - U drop).
  RoundFixture<F> fx(21, kU);

  std::vector<std::size_t> responders(fx.survivors.begin(),
                                      fx.survivors.begin() + kU);
  FlatMatrix<F> flat(kU, fx.codec.segment_len());
  for (std::size_t r = 0; r < kU; ++r) {
    const auto share = fx.agg_share(responders[r]);
    std::copy(share.begin(), share.end(), flat.row(r).begin());
  }

  const auto flat_serial = fx.codec.decode_aggregate(responders, flat);
  EXPECT_EQ(flat_serial, fx.expected);

  // Row views in reverse presentation order decode to the same bits.
  const auto rows = flat.row_ptrs();
  const std::vector<std::size_t> rev_owners(responders.rbegin(),
                                            responders.rend());
  const std::vector<const rep*> rev_rows(rows.rbegin(), rows.rend());
  EXPECT_EQ(fx.codec.decode_aggregate_rows(rev_owners, rev_rows),
            fx.expected);

  lsa::sys::ThreadPool pool(4);
  for (const std::size_t chunk : {3ul, 4096ul}) {
    lsa::sys::ExecPolicy par{&pool, chunk};
    EXPECT_EQ(fx.codec.decode_aggregate(responders, flat, par), fx.expected)
        << "chunk=" << chunk;
  }
}

TYPED_TEST(CodecParity, AllStrategiesAgreeUnderParallelPolicy) {
  using F = TypeParam;
  using rep = typename F::rep;
  RoundFixture<F> fx(31, kU + 2);  // a little redundancy, scattered owners

  // Use the *last* U survivors as responders (non-contiguous alphas).
  std::vector<std::size_t> responders(fx.survivors.end() - kU,
                                      fx.survivors.end());
  FlatMatrix<F> flat(kU, fx.codec.segment_len());
  for (std::size_t r = 0; r < kU; ++r) {
    const auto share = fx.agg_share(responders[r]);
    std::copy(share.begin(), share.end(), flat.row(r).begin());
  }

  const auto rows = flat.row_ptrs();
  EXPECT_EQ(lsa::test::oracle_codec_decode<F>(
                fx.codec, responders, std::span<const rep* const>(rows)),
            fx.expected);

  lsa::sys::ThreadPool pool(3);
  lsa::sys::ExecPolicy par{&pool, 16};
  using DS = lsa::coding::DecodeStrategy;
  for (const auto strategy : {DS::kBarycentric, DS::kBatchedNtt, DS::kAuto}) {
    const auto serial =
        fx.codec.decode_aggregate(responders, flat, {}, strategy);
    const auto parallel =
        fx.codec.decode_aggregate(responders, flat, par, strategy);
    EXPECT_EQ(serial, fx.expected) << to_string(strategy);
    EXPECT_EQ(parallel, fx.expected) << to_string(strategy);
  }
}

TYPED_TEST(CodecParity, VerifiedDecodeParityWithRedundantResponder) {
  using F = TypeParam;
  RoundFixture<F> fx(41, kU + 1);  // U + 1 survivors: minimum redundancy

  const auto& responders = fx.survivors;  // all U+1 respond
  FlatMatrix<F> flat(kU + 1, fx.codec.segment_len());
  for (std::size_t r = 0; r < kU + 1; ++r) {
    const auto share = fx.agg_share(responders[r]);
    std::copy(share.begin(), share.end(), flat.row(r).begin());
  }

  lsa::sys::ThreadPool pool(4);
  lsa::sys::ExecPolicy par{&pool, 64};
  EXPECT_EQ(fx.codec.decode_aggregate_verified(responders, flat), fx.expected);
  EXPECT_EQ(fx.codec.decode_aggregate_verified(responders, flat, par),
            fx.expected);

  // Tampering is still detected through the flat path.
  flat(0, 0) = F::add(flat(0, 0), F::one);
  EXPECT_THROW((void)fx.codec.decode_aggregate_verified(responders, flat),
               lsa::CodingError);
}

TYPED_TEST(CodecParity, LightSecAggRoundIdenticalWithAndWithoutPool) {
  using F = TypeParam;
  using rep = typename F::rep;
  lsa::protocol::Params params;
  params.num_users = 10;
  params.privacy = 2;
  params.dropout = 3;  // U resolves to N - D = 7
  params.model_dim = 33;

  lsa::common::Xoshiro256ss rng(5);
  std::vector<std::vector<rep>> inputs(params.num_users);
  for (auto& v : inputs) {
    v = lsa::field::uniform_vector<F>(params.model_dim, rng);
  }
  // Dropout at the U boundary: exactly D = 3 users drop.
  std::vector<bool> dropped(params.num_users, false);
  dropped[1] = dropped[4] = dropped[9] = true;

  lsa::protocol::LightSecAgg<F> serial(params, /*master_seed=*/97);
  const auto serial_out = serial.run_round(inputs, dropped);

  lsa::sys::ThreadPool pool(4);
  auto par_params = params;
  par_params.exec = lsa::sys::ExecPolicy{&pool, 128};
  lsa::protocol::LightSecAgg<F> parallel(par_params, /*master_seed=*/97);
  const auto parallel_out = parallel.run_round(inputs, dropped);

  EXPECT_EQ(serial_out, parallel_out);

  // And both equal the plain sum of surviving inputs.
  std::vector<rep> expect(params.model_dim, F::zero);
  for (std::size_t i = 0; i < params.num_users; ++i) {
    if (dropped[i]) continue;
    lsa::field::add_inplace<F>(std::span<rep>(expect),
                               std::span<const rep>(inputs[i]));
  }
  EXPECT_EQ(serial_out, expect);
}

TEST(RecoveryBatchParity, SecAggRoundIdenticalWithAndWithoutPool) {
  // The recovery phase batches its PRG re-expansions (survivor private
  // masks + dropped users' residual pairwise masks) through the pool; the
  // result must be bit-identical to the serial expand-one-apply-one loop.
  using F = Fp32;
  using rep = F::rep;
  lsa::protocol::Params params;
  params.num_users = 9;
  params.privacy = 2;
  params.dropout = 3;
  params.model_dim = 41;

  lsa::common::Xoshiro256ss rng(13);
  std::vector<std::vector<rep>> inputs(params.num_users);
  for (auto& v : inputs) {
    v = lsa::field::uniform_vector<F>(params.model_dim, rng);
  }
  std::vector<bool> dropped(params.num_users, false);
  dropped[0] = dropped[5] = dropped[8] = true;  // full D dropouts

  lsa::protocol::SecAgg<F> serial(params, /*master_seed=*/31);
  const auto serial_out = serial.run_round(inputs, dropped);

  lsa::sys::ThreadPool pool(4);
  auto par_params = params;
  par_params.exec = lsa::sys::ExecPolicy{&pool, 128};
  lsa::protocol::SecAgg<F> parallel(par_params, /*master_seed=*/31);
  const auto parallel_out = parallel.run_round(inputs, dropped);

  EXPECT_EQ(serial_out, parallel_out);

  std::vector<rep> expect(params.model_dim, F::zero);
  for (std::size_t i = 0; i < params.num_users; ++i) {
    if (dropped[i]) continue;
    lsa::field::add_inplace<F>(std::span<rep>(expect),
                               std::span<const rep>(inputs[i]));
  }
  EXPECT_EQ(serial_out, expect);
}

TEST(RecoveryBatchParity, SecAggPlusRoundIdenticalWithAndWithoutPool) {
  using F = Fp32;
  using rep = F::rep;
  lsa::protocol::Params params;
  params.num_users = 16;
  params.privacy = 1;
  params.dropout = 2;
  params.model_dim = 29;

  lsa::common::Xoshiro256ss rng(17);
  std::vector<std::vector<rep>> inputs(params.num_users);
  for (auto& v : inputs) {
    v = lsa::field::uniform_vector<F>(params.model_dim, rng);
  }
  std::vector<bool> dropped(params.num_users, false);
  dropped[3] = dropped[11] = true;

  lsa::protocol::SecAggPlus<F> serial(params, /*master_seed=*/53);
  const auto serial_out = serial.run_round(inputs, dropped);

  lsa::sys::ThreadPool pool(3);
  auto par_params = params;
  par_params.exec = lsa::sys::ExecPolicy{&pool, 64};
  lsa::protocol::SecAggPlus<F> parallel(par_params, /*master_seed=*/53);
  const auto parallel_out = parallel.run_round(inputs, dropped);

  EXPECT_EQ(serial_out, parallel_out);

  std::vector<rep> expect(params.model_dim, F::zero);
  for (std::size_t i = 0; i < params.num_users; ++i) {
    if (dropped[i]) continue;
    lsa::field::add_inplace<F>(std::span<rep>(expect),
                               std::span<const rep>(inputs[i]));
  }
  EXPECT_EQ(serial_out, expect);
}

TEST(RecoveryBatchParity, MultiRoundParityWithChurn) {
  // Several rounds with different dropout patterns: the reused batch
  // scratch arena must not leak state between rounds.
  using F = Fp32;
  using rep = F::rep;
  lsa::protocol::Params params;
  params.num_users = 7;
  params.privacy = 1;
  params.dropout = 2;
  params.model_dim = 23;

  lsa::sys::ThreadPool pool(4);
  auto par_params = params;
  par_params.exec = lsa::sys::ExecPolicy{&pool, 32};
  lsa::protocol::SecAgg<F> serial(params, /*master_seed=*/71);
  lsa::protocol::SecAgg<F> parallel(par_params, /*master_seed=*/71);

  lsa::common::Xoshiro256ss rng(23);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::vector<rep>> inputs(params.num_users);
    for (auto& v : inputs) {
      v = lsa::field::uniform_vector<F>(params.model_dim, rng);
    }
    std::vector<bool> dropped(params.num_users, false);
    if (round > 0) dropped[round % params.num_users] = true;
    if (round > 2) dropped[(round * 3) % params.num_users] = true;
    EXPECT_EQ(serial.run_round(inputs, dropped),
              parallel.run_round(inputs, dropped))
        << "round " << round;
  }
}

}  // namespace

// Field-genericity: the LightSecAgg protocol, codec and FastSecAgg must be
// bit-exact over every field the library ships (Fp32 — the paper's modulus,
// Fp61, Goldilocks), including dropout handling and multi-round reuse.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/random_field.h"
#include "protocol/fastsecagg.h"
#include "protocol/lightsecagg.h"

namespace {

using lsa::field::Fp32;
using lsa::field::Fp61;
using lsa::field::Goldilocks;

template <class F>
class FieldGenericProtocol : public ::testing::Test {};

using AllFields = ::testing::Types<Fp32, Fp61, Goldilocks>;
TYPED_TEST_SUITE(FieldGenericProtocol, AllFields);

template <class F>
std::vector<std::vector<typename F::rep>> random_inputs(std::size_t n,
                                                        std::size_t d,
                                                        std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed);
  std::vector<std::vector<typename F::rep>> inputs(n);
  for (auto& x : inputs) x = lsa::field::uniform_vector<F>(d, rng);
  return inputs;
}

template <class F>
std::vector<typename F::rep> plain_sum(
    const std::vector<std::vector<typename F::rep>>& inputs,
    const std::vector<bool>& dropped) {
  std::vector<typename F::rep> sum(inputs[0].size(), F::zero);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (dropped[i]) continue;
    lsa::field::add_inplace<F>(std::span<typename F::rep>(sum),
                               std::span<const typename F::rep>(inputs[i]));
  }
  return sum;
}

TYPED_TEST(FieldGenericProtocol, LightSecAggRoundTripWithDropouts) {
  using F = TypeParam;
  lsa::protocol::Params p{.num_users = 11, .privacy = 4, .dropout = 3,
                          .target_survivors = 0, .model_dim = 48};
  lsa::protocol::LightSecAgg<F> proto(p, 21);
  const auto inputs = random_inputs<F>(11, 48, 22);
  std::vector<bool> dropped(11, false);
  dropped[1] = dropped[4] = dropped[9] = true;
  EXPECT_EQ(proto.run_round(inputs, dropped), plain_sum<F>(inputs, dropped));
}

TYPED_TEST(FieldGenericProtocol, LightSecAggMultiRoundFreshMasks) {
  using F = TypeParam;
  lsa::protocol::Params p{.num_users = 7, .privacy = 2, .dropout = 2,
                          .target_survivors = 0, .model_dim = 20};
  lsa::protocol::LightSecAgg<F> proto(p, 23);
  for (int round = 0; round < 4; ++round) {
    const auto inputs = random_inputs<F>(7, 20, 30 + round);
    std::vector<bool> dropped(7, false);
    dropped[static_cast<std::size_t>(round) % 7] = true;
    EXPECT_EQ(proto.run_round(inputs, dropped),
              plain_sum<F>(inputs, dropped))
        << "round " << round;
  }
}

TYPED_TEST(FieldGenericProtocol, FastSecAggRoundTrip) {
  using F = TypeParam;
  lsa::protocol::Params p{.num_users = 9, .privacy = 3, .dropout = 2,
                          .target_survivors = 0, .model_dim = 36};
  lsa::protocol::FastSecAgg<F> proto(p, 25);
  const auto inputs = random_inputs<F>(9, 36, 26);
  std::vector<bool> dropped(9, false);
  dropped[0] = dropped[8] = true;
  EXPECT_EQ(proto.run_round(inputs, dropped), plain_sum<F>(inputs, dropped));
}

TYPED_TEST(FieldGenericProtocol, VerifiedDecodeDetectsTamperingEverywhere) {
  using F = TypeParam;
  using rep = typename F::rep;
  lsa::coding::MaskCodec<F> codec(10, 6, 2, 32);
  lsa::common::Xoshiro256ss rng(27);
  const auto mask = lsa::field::uniform_vector<F>(32, rng);
  lsa::field::FlatMatrix<F> shares(10, codec.segment_len());
  codec.encode_into(std::span<const rep>(mask), rng, shares);

  // U + 1 responses: owners 0..6 are the first 7 share rows.
  std::vector<std::size_t> owners{0, 1, 2, 3, 4, 5, 6};
  const auto rows = shares.row_ptrs();
  const std::span<const rep* const> responses(rows.data(), owners.size());
  EXPECT_EQ(codec.decode_aggregate_verified_rows(owners, responses), mask);

  shares(3, 0) = F::add(shares(3, 0), F::one);
  EXPECT_THROW((void)codec.decode_aggregate_verified_rows(owners, responses),
               lsa::CodingError);
}

}  // namespace

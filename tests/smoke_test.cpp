// Build smoke test: every substrate header compiles and basic ops work.
#include <gtest/gtest.h>

#include "coding/mask_codec.h"
#include "common/rng.h"
#include "crypto/key_agreement.h"
#include "crypto/prg.h"
#include "crypto/shamir.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "quant/quantizer.h"
#include "quant/staleness.h"

namespace {

using lsa::field::Fp32;

TEST(Smoke, FieldRoundTrip) {
  EXPECT_EQ(Fp32::add(Fp32::modulus - 1, 1), 0u);
  EXPECT_EQ(Fp32::mul(Fp32::inv(7), 7), 1u);
}

TEST(Smoke, MaskCodecRoundTrip) {
  lsa::common::Xoshiro256ss rng(42);
  lsa::coding::MaskCodec<Fp32> codec(/*N=*/5, /*U=*/4, /*T=*/2, /*d=*/10);
  auto mask = lsa::field::uniform_vector<Fp32>(10, rng);
  lsa::field::FlatMatrix<Fp32> shares(5, codec.segment_len());
  codec.encode_into(std::span<const Fp32::rep>(mask), rng, shares);
  // Single-user "aggregate": decoding the shares must return the mask.
  std::vector<std::size_t> owners = {0, 1, 2, 3};
  const auto rows = shares.row_ptrs();
  auto decoded = codec.decode_aggregate_rows(
      owners, std::span<const Fp32::rep* const>(rows.data(), 4));
  EXPECT_EQ(decoded, mask);
}

}  // namespace

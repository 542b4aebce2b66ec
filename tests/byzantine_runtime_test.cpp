// End-to-end Byzantine recovery in the distributed runtime: devices with
// valid framing but falsified aggregated shares, a server that locates and
// discards them via the error-correcting decode, and the failure modes at
// and beyond the redundancy budget.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "field/field_vec.h"
#include "field/random_field.h"
#include "runtime/machines.h"
#include "sys/exec_policy.h"
#include "sys/thread_pool.h"

namespace {

using Fp = lsa::runtime::Network::Fp;
using rep = Fp::rep;

lsa::protocol::Params make_params(std::size_t n, std::size_t t,
                                  std::size_t u, std::size_t d) {
  lsa::protocol::Params p;
  p.num_users = n;
  p.privacy = t;
  p.dropout = n - u;
  p.target_survivors = u;
  p.model_dim = d;
  return p;
}

std::vector<std::vector<rep>> random_models(std::size_t n, std::size_t d,
                                            std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed);
  std::vector<std::vector<rep>> models(n);
  for (auto& m : models) m = lsa::field::uniform_vector<Fp>(d, rng);
  return models;
}

std::vector<rep> expected_sum(const std::vector<std::vector<rep>>& models) {
  std::vector<rep> out(models[0].size(), Fp::zero);
  for (const auto& m : models) {
    lsa::field::add_inplace<Fp>(std::span<rep>(out),
                                std::span<const rep>(m));
  }
  return out;
}

// N = 12, U = 8: 12 responders give budget floor((12-8)/2) = 2 Byzantine.
constexpr std::size_t kN = 12, kT = 3, kU = 8, kD = 24;

TEST(ByzantineRuntime, HonestRoundUnaffectedByTolerantMode) {
  lsa::runtime::Network net(make_params(kN, kT, kU, kD), 7,
                            /*byzantine_tolerant=*/true);
  const auto models = random_models(kN, kD, 8);
  const auto result = net.run_round(0, models, {});
  EXPECT_EQ(result, expected_sum(models));
  EXPECT_TRUE(net.server().last_corrupted().empty());
}

TEST(ByzantineRuntime, LocatesAndDiscardsFalsifiedShares) {
  lsa::runtime::Network net(make_params(kN, kT, kU, kD), 9,
                            /*byzantine_tolerant=*/true);
  net.user(2).set_byzantine(true);
  net.user(9).set_byzantine(true);  // exactly the budget of 2

  const auto models = random_models(kN, kD, 10);
  const auto result = net.run_round(0, models, {});
  EXPECT_EQ(result, expected_sum(models));
  EXPECT_EQ(net.server().last_corrupted(),
            (std::vector<std::size_t>{2, 9}));
}

TEST(ByzantineRuntime, ByzantineResponderPlusCrashedUser) {
  // One user crashes after upload (consuming redundancy: 11 responses,
  // budget floor(3/2) = 1) and another falsifies: still exactly decodable,
  // with the crashed user's model INCLUDED (delayed-user semantics).
  lsa::runtime::Network net(make_params(kN, kT, kU, kD), 11,
                            /*byzantine_tolerant=*/true);
  net.user(5).set_byzantine(true);
  const auto models = random_models(kN, kD, 12);
  const auto result = net.run_round(0, models, {/*crash=*/3});
  EXPECT_EQ(result, expected_sum(models));
  EXPECT_EQ(net.server().last_corrupted(), std::vector<std::size_t>{5});
}

TEST(ByzantineRuntime, BeyondBudgetAbortsLoudly) {
  lsa::runtime::Network net(make_params(kN, kT, kU, kD), 13,
                            /*byzantine_tolerant=*/true);
  net.user(0).set_byzantine(true);
  net.user(4).set_byzantine(true);
  net.user(8).set_byzantine(true);  // 3 > budget of 2
  const auto models = random_models(kN, kD, 14);
  EXPECT_THROW((void)net.run_round(0, models, {}), lsa::CodingError);
}

TEST(ByzantineRuntime, WithoutToleranceAFalsifiedShareCanPoisonSilently) {
  // The motivation test: the plain server takes the first U responses; if
  // the Byzantine user is among them the aggregate is silently wrong.
  lsa::runtime::Network net(make_params(kN, kT, kU, kD), 15,
                            /*byzantine_tolerant=*/false);
  net.user(1).set_byzantine(true);  // user 1 is in the first U = 8
  const auto models = random_models(kN, kD, 16);
  const auto result = net.run_round(0, models, {});
  EXPECT_NE(result, expected_sum(models));
}

TEST(ByzantineRuntime, PooledCorrectedDecodeMatchesSerial) {
  // The corrected decode reads the server's share bank in place and runs
  // under the session policy. With a 3-worker pool and a model large
  // enough that each share (seg_len = 3 chunks of 4096 reps) splits into
  // several column blocks, the pooled Network must name the same
  // falsifier and return the same aggregate as the serial one.
  constexpr std::size_t kChunk = lsa::field::kDefaultChunkReps;
  constexpr std::size_t kBigD = (kU - kT) * 3 * kChunk;
  const auto models = random_models(kN, kBigD, 20);

  lsa::runtime::Network serial(make_params(kN, kT, kU, kBigD), 21,
                               /*byzantine_tolerant=*/true);
  serial.user(7).set_byzantine(true);
  const auto serial_out = serial.run_round(0, models, {});
  EXPECT_EQ(serial_out, expected_sum(models));
  EXPECT_EQ(serial.server().last_corrupted(), std::vector<std::size_t>{7});

  lsa::sys::ThreadPool pool(3);
  auto params = make_params(kN, kT, kU, kBigD);
  params.exec = lsa::sys::ExecPolicy{&pool, kChunk};
  lsa::runtime::Network pooled(params, 21, /*byzantine_tolerant=*/true);
  pooled.user(7).set_byzantine(true);
  EXPECT_EQ(pooled.run_round(0, models, {}), serial_out);
  EXPECT_EQ(pooled.server().last_corrupted(),
            serial.server().last_corrupted());
}

TEST(ByzantineRuntime, MultiRoundRecoveryAfterAttack) {
  // The Byzantine device is caught in round 0 and (say) expelled; rounds
  // with fresh masks keep working.
  lsa::runtime::Network net(make_params(kN, kT, kU, kD), 17,
                            /*byzantine_tolerant=*/true);
  net.user(6).set_byzantine(true);
  const auto models0 = random_models(kN, kD, 18);
  EXPECT_EQ(net.run_round(0, models0, {}), expected_sum(models0));
  EXPECT_EQ(net.server().last_corrupted(), std::vector<std::size_t>{6});

  net.user(6).set_byzantine(false);  // operator expelled / device reset
  const auto models1 = random_models(kN, kD, 19);
  EXPECT_EQ(net.run_round(1, models1, {}), expected_sum(models1));
  EXPECT_TRUE(net.server().last_corrupted().empty());
}

}  // namespace

// Distributed runtime: wire format, the serial reference's router (crash
// and fault-hook semantics), and LightSecAgg as communicating state
// machines (including the "delayed user" semantics the orchestrated
// implementation does not model).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/rng.h"
#include "field/random_field.h"
#include "quant/staleness.h"
#include "runtime/async_machines.h"
#include "runtime/machines.h"
#include "transport/concurrent_router.h"
#include "transport/frame.h"
#include "transport/stats.h"

namespace {

using namespace lsa::runtime;
using lsa::field::Fp32;
using lsa::transport::BufferPool;
using lsa::transport::ConcurrentRouter;
using lsa::transport::Inbound;
using rep = Fp32::rep;

/// A frame's raw bytes, as a peer puts them on the wire.
std::vector<std::uint8_t> wire_bytes(MsgType type, std::uint32_t sender,
                                     std::uint32_t receiver,
                                     std::uint64_t round,
                                     const std::vector<rep>& payload) {
  BufferPool pool;
  const auto frame = lsa::transport::build_frame(
      pool, type, sender, receiver, round, std::span<const rep>(payload));
  return {frame.bytes().begin(), frame.bytes().end()};
}

/// Ingests raw bytes and validates them the way a receiver does.
void parse_bytes(const std::vector<std::uint8_t>& bytes) {
  BufferPool pool;
  (void)lsa::transport::parse_frame(
      lsa::transport::frame_from_bytes(pool, bytes));
}

TEST(Wire, FrameRoundTrip) {
  const std::vector<rep> payload = {0, 1, 4294967290u, 42};
  const auto bytes =
      wire_bytes(MsgType::kAggregatedShares, 7, 12, 0xdeadbeefULL, payload);
  BufferPool pool;
  const auto frame = lsa::transport::frame_from_bytes(pool, bytes);
  const auto back = lsa::transport::parse_frame(frame);
  EXPECT_EQ(back.type, MsgType::kAggregatedShares);
  EXPECT_EQ(back.sender, 7u);
  EXPECT_EQ(back.receiver, 12u);
  EXPECT_EQ(back.round, 0xdeadbeefULL);
  EXPECT_EQ(std::vector<rep>(back.payload.begin(), back.payload.end()),
            payload);
}

TEST(Wire, CorruptionIsDetected) {
  auto bytes = wire_bytes(MsgType::kMaskedModel, 0, 1, 0, {1, 2, 3});
  bytes[kHeaderBytes + 1] ^= 0x40;  // flip a payload bit
  EXPECT_THROW(parse_bytes(bytes), lsa::ProtocolError);
}

TEST(Wire, TruncationIsDetected) {
  auto bytes = wire_bytes(MsgType::kMaskedModel, 0, 1, 0, {1, 2, 3});
  bytes.pop_back();
  EXPECT_THROW(parse_bytes(bytes), lsa::ProtocolError);
}

TEST(Wire, NonCanonicalElementsRejected) {
  // The sender frames (and checksums) whatever it is given; the receiver's
  // canonicality scan must still refuse it.
  const auto bytes =
      wire_bytes(MsgType::kMaskedModel, 0, 1, 0, {4294967295u});  // >= q
  EXPECT_THROW(parse_bytes(bytes), lsa::ProtocolError);
}

void send_one(ConcurrentRouter& router, std::uint32_t sender,
              std::uint32_t receiver, rep value) {
  const std::vector<rep> payload = {value};
  router.send_row(MsgType::kMaskedModel, sender, receiver, 0,
                  std::span<const rep>(payload));
}

TEST(Router, FifoDeliveryAndCrashSemantics) {
  ConcurrentRouter router(3, /*queue_capacity=*/8);
  send_one(router, 0, 1, 1);
  send_one(router, 0, 1, 2);
  router.crash(0);
  send_one(router, 0, 1, 3);  // dropped: sender is down

  Inbound got;
  ASSERT_TRUE(router.try_recv(1, got));
  EXPECT_EQ(got.view.payload[0], 1u);
  ASSERT_TRUE(router.try_recv(1, got));
  EXPECT_EQ(got.view.payload[0], 2u);
  EXPECT_FALSE(router.try_recv(1, got));  // nothing else

  // Frames addressed to a party that crashes are discarded undelivered.
  router.revive(0);
  send_one(router, 0, 1, 4);
  router.crash(1);
  EXPECT_FALSE(router.try_recv(1, got));
  EXPECT_TRUE(router.idle());
}

TEST(Router, FaultHookCanDropFrames) {
  ConcurrentRouter router(2, /*queue_capacity=*/8);
  int count = 0;
  router.set_fault_hook([&count](std::span<std::uint8_t>) {
    return ++count % 2 == 0;  // drop every other frame
  });
  for (int i = 0; i < 6; ++i) send_one(router, 0, 1, 9);
  Inbound got;
  int delivered = 0;
  while (router.try_recv(1, got)) ++delivered;
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(router.frames_dropped(), 3u);
}

lsa::protocol::Params net_params(std::size_t n, std::size_t t,
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
  for (auto& m : models) m = lsa::field::uniform_vector<Fp32>(d, rng);
  return models;
}

std::vector<rep> sum_of(const std::vector<std::vector<rep>>& models,
                        const std::vector<std::uint32_t>& users) {
  std::vector<rep> s(models[0].size(), Fp32::zero);
  for (auto u : users) {
    lsa::field::add_inplace<Fp32>(std::span<rep>(s),
                                  std::span<const rep>(models[u]));
  }
  return s;
}

TEST(NetworkRound, NoDropsAggregatesEveryone) {
  Network net(net_params(6, 2, 4, 24), 5);
  auto models = random_models(6, 24, 6);
  auto result = net.run_round(0, models, {});
  std::vector<std::uint32_t> all = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(result, sum_of(models, all));
  // Every live user received the broadcast result.
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(net.user(i).last_result().has_value());
    EXPECT_EQ(*net.user(i).last_result(), result);
  }
}

TEST(NetworkRound, DelayedUsersAreStillIncluded) {
  // Users 1 and 4 crash AFTER their masked models arrive: the aggregate
  // must still include them — their masks are recovered from the encoded
  // shares the others hold. This is Theorem 1's "delayed, not dropped"
  // worst case, which the state-machine runtime models for real.
  Network net(net_params(7, 2, 5, 16), 7);
  auto models = random_models(7, 16, 8);
  auto result = net.run_round(0, models, {1, 4});
  std::vector<std::uint32_t> everyone = {0, 1, 2, 3, 4, 5, 6};
  EXPECT_EQ(result, sum_of(models, everyone));
  // The crashed users never saw the result.
  EXPECT_FALSE(net.user(1).last_result().has_value());
  EXPECT_TRUE(net.user(0).last_result().has_value());
}

TEST(NetworkRound, TooManyCrashesFailLoudly) {
  Network net(net_params(6, 1, 5, 8), 9);
  auto models = random_models(6, 8, 10);
  // 5 = U survivors needed, but 2 crash -> only 4 responders.
  EXPECT_THROW((void)net.run_round(0, models, {0, 1}), lsa::ProtocolError);
  // The failed finish retired the round it sealed.
  EXPECT_TRUE(net.server().arrived(0).empty());
}

TEST(NetworkRound, WrongModelLengthSendsNothing) {
  // A start with a model of the wrong length fails before any encoded
  // share leaves the device: peers never bank shares for an upload that
  // cannot follow.
  Network net(net_params(5, 1, 4, 12), 3);
  const std::vector<rep> short_model(11, 1);
  EXPECT_THROW(net.user(0).start_round(0, short_model), lsa::ProtocolError);
  EXPECT_EQ(net.router().frames_sent(), 0u);
}

TEST(NetworkRound, NextRoundBankedAheadOfRecovery) {
  // Every device starts round 1 before round 0 is recovered, as a socket
  // peer banking ahead does (server::RemoteSession). The device share
  // stores and the server's upload ring then hold two live rounds, and
  // each round still recovers its exact sum.
  constexpr std::size_t kN = 5;
  Network net(net_params(kN, 1, 4, 12), 17);
  const std::vector<std::vector<std::vector<rep>>> models = {
      random_models(kN, 12, 40), random_models(kN, 12, 41)};
  for (std::uint64_t r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < kN; ++i) {
      net.user(i).start_round(r, models[r][i]);
    }
  }
  net.pump();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(net.user(i).stored_shares(), 2 * kN) << "user " << i;
  }
  const std::vector<std::uint32_t> all = {0, 1, 2, 3, 4};
  for (std::uint64_t r = 0; r < 2; ++r) {
    EXPECT_EQ(net.server().arrived(r), all) << "round " << r;
    net.server().begin_recovery(r);
    net.pump();  // survivor set out, aggregated shares back
    EXPECT_EQ(net.server().finish_round(r), sum_of(models[r], all))
        << "round " << r;
    net.pump();  // result broadcast
  }
}

TEST(NetworkRound, DuplicateUploadRejected) {
  // The server adds each masked model into the round's running sum as it
  // arrives. A second upload from a user who already uploaded would be
  // counted twice while its mask is recovered once: delivery refuses it
  // before it touches the sum, the round still recovers its exact sum, and
  // the next round is exact too.
  constexpr std::size_t kN = 5;
  constexpr std::size_t kD = 12;
  Network net(net_params(kN, 1, 4, kD), 19);
  const auto models = random_models(kN, kD, 50);
  for (std::size_t i = 0; i < kN; ++i) {
    net.user(i).start_round(0, models[i]);
  }
  net.pump();
  const std::vector<rep> second(kD, 7);
  net.router().send_row(MsgType::kMaskedModel, /*sender=*/2,
                        /*receiver=*/static_cast<std::uint32_t>(kN),
                        /*round=*/0, std::span<const rep>(second));
  EXPECT_THROW(net.pump(), lsa::ProtocolError);

  const std::vector<std::uint32_t> all = {0, 1, 2, 3, 4};
  EXPECT_EQ(net.server().arrived(0), all);
  net.server().begin_recovery(0);
  net.pump();  // survivor set out, aggregated shares back
  EXPECT_EQ(net.server().finish_round(0), sum_of(models, all));
  net.pump();  // result broadcast

  const auto next = random_models(kN, kD, 51);
  EXPECT_EQ(net.run_round(1, next, {}), sum_of(next, all));
}

TEST(NetworkRound, UploadAfterSurvivorSetRejected) {
  // The survivor set seals U1. An upload that arrives after it would enter
  // the round's sum with no recovered mask, so the server refuses it, and
  // the round still recovers the exact sum over its sealed U1.
  constexpr std::size_t kN = 6;
  Network net(net_params(kN, 1, 4, 12), 29);
  const auto models = random_models(kN, 12, 90);
  for (std::size_t i = 0; i < 5; ++i) net.user(i).start_round(0, models[i]);
  net.pump();
  net.server().begin_recovery(0);
  net.user(5).start_round(0, models[5]);
  EXPECT_THROW(net.pump(), lsa::ProtocolError);
  net.pump();  // the aggregated shares queued behind the refused upload
  EXPECT_EQ(net.server().finish_round(0), sum_of(models, {0, 1, 2, 3, 4}));
}

TEST(NetworkRound, MultipleRoundsWithFreshMasksAndRejoins) {
  Network net(net_params(5, 1, 4, 12), 11);
  for (std::uint64_t round = 0; round < 4; ++round) {
    // The previous round's casualty rejoins (cross-device users churn).
    for (std::size_t i = 0; i < 5; ++i) net.router().revive(i);
    auto models = random_models(5, 12, 100 + round);
    auto result = net.run_round(round, models, {round % 5});
    // Crashed user is still included (delayed semantics).
    std::vector<std::uint32_t> all = {0, 1, 2, 3, 4};
    EXPECT_EQ(result, sum_of(models, all)) << "round " << round;
  }
  // Share stores must not grow without bound: users that crashed mid-
  // recovery keep at most the retention window's worth of stale shares
  // (purged at the next round start), everyone else is fully consumed.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_LE(net.user(i).stored_shares(),
              2 * 5 * lsa::runtime::UserDevice::kShareRetentionRounds)
        << "user " << i;
  }
}

TEST(NetworkRound, CrashedUserRetiresSharesAtSecondRoundStart) {
  // A user that crashes after its round-0 upload misses round 0's survivor
  // set and keeps that round's N shares. Round 1's start keeps them (a
  // socket peer may bank round 1 while round 0 is still in recovery);
  // round 2's start retires them.
  constexpr std::size_t kN = 5;
  Network net(net_params(kN, 1, 4, 12), 23);
  const std::vector<std::uint32_t> all = {0, 1, 2, 3, 4};
  for (std::uint64_t round = 0; round < 3; ++round) {
    const auto models = random_models(kN, 12, 80 + round);
    const std::vector<std::size_t> crash =
        round == 0 ? std::vector<std::size_t>{4} : std::vector<std::size_t>{};
    EXPECT_EQ(net.run_round(round, models, crash), sum_of(models, all))
        << "round " << round;
    net.router().revive(4);
    EXPECT_EQ(net.user(4).stored_shares(), round < 2 ? kN : 0u)
        << "after round " << round;
  }
}

TEST(NetworkRound, ServerSeesOnlyMaskedUniformLookingData) {
  // Capture frames to the server during upload; payloads must differ from
  // the raw models (they are masked) — a wire-level privacy smoke check.
  lsa::protocol::Params p = net_params(4, 1, 3, 32);
  Network net(p, 13);
  auto models = random_models(4, 32, 14);

  bool saw_raw_model = false;
  net.router().set_fault_hook([&](std::span<std::uint8_t> frame) {
    const WireHeader h = read_header_checked(frame);
    if (h.type == MsgType::kMaskedModel &&
        std::memcmp(frame.data() + kHeaderBytes, models[h.sender].data(),
                    frame.size() - kHeaderBytes) == 0) {
      saw_raw_model = true;
    }
    return true;
  });
  (void)net.run_round(0, models, {});
  EXPECT_FALSE(saw_raw_model);
}

TEST(SerialReference, NetworkAndAsyncNetworkMakeNoPayloadCopies) {
  // The serial references ride the same zero-copy plane as the server
  // sessions: a round with post-upload dropouts and a buffer cycle with a
  // pre-recovery crash frame every payload once and copy none.
  const auto before = lsa::transport::snapshot();
  Network net(net_params(7, 2, 5, 16), 7);
  const auto models = random_models(7, 16, 8);
  EXPECT_EQ(net.run_round(0, models, {1, 4}),
            sum_of(models, {0, 1, 2, 3, 4, 5, 6}));

  const lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  AsyncNetwork async_net(net_params(6, 1, 4, 16), /*buffer_k=*/3, constant,
                         /*c_g=*/64, /*seed=*/5);
  const auto updates = random_models(3, 16, 9);
  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < 3; ++b) arrivals.push_back({b, 2, updates[b]});
  (void)async_net.run_cycle(/*now=*/3, arrivals,
                            /*crash_before_recovery=*/{5});

  const auto after = lsa::transport::snapshot();
  EXPECT_EQ(after.payload_copies - before.payload_copies, 0u);
  EXPECT_GT(after.frames_built - before.frames_built, 0u);
}

/// Installs a fault hook that folds every frame's bytes, in send order,
/// into a 64-bit FNV-1a digest.
void digest_traffic(ConcurrentRouter& router, std::uint64_t& h) {
  h = 0xcbf29ce484222325ull;
  router.set_fault_hook([&h](std::span<std::uint8_t> frame) {
    for (const auto b : frame) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
    return true;
  });
}

std::uint64_t sync_traffic_digest(bool persistent) {
  auto p = net_params(6, 2, 4, 150);
  p.persistent_cohort = persistent;
  std::uint64_t h = 0;  // outlives the router whose hook writes it
  Network net(p, 21);
  digest_traffic(net.router(), h);
  (void)net.run_round(0, random_models(6, 150, 60), {});
  (void)net.run_round(1, random_models(6, 150, 61), {2});
  return h;
}

std::uint64_t async_traffic_digest(bool persistent) {
  auto p = net_params(6, 2, 4, 150);
  p.persistent_cohort = persistent;
  const lsa::quant::StalenessPolicy poly{
      lsa::quant::StalenessKind::kPolynomial, 1.0};
  std::uint64_t h = 0;
  AsyncNetwork net(p, /*buffer_k=*/3, poly, /*c_g=*/64, /*seed=*/23);
  digest_traffic(net.router(), h);
  const auto u0 = random_models(3, 150, 70);
  const auto u1 = random_models(3, 150, 71);
  (void)net.run_cycle(/*now=*/3, {{0, 1, u0[0]}, {2, 3, u0[1]}, {4, 2, u0[2]}});
  (void)net.run_cycle(/*now=*/4, {{1, 4, u1[0]}, {2, 2, u1[1]}, {5, 3, u1[2]}},
                      /*crash_before_recovery=*/{3});
  return h;
}

TEST(SerialReference, DeviceTrafficGoldenDigests) {
  // Masks cancel in every aggregate, so no aggregate test notices a device
  // that draws the wrong mask stream (a swapped domain tag, an epoch mask
  // keyed on the round). These digests pin every byte the devices and the
  // server put on the wire — shares, masked uploads, survivor sets,
  // manifests, weighted shares and results — in per-round and persistent
  // mode, and must hold at every SIMD level.
  EXPECT_EQ(sync_traffic_digest(false), 0x47c6b71b1483897bull);
  EXPECT_EQ(sync_traffic_digest(true), 0xc97a56f76fb21cd7ull);
  EXPECT_EQ(async_traffic_digest(false), 0xd88a0fecf334aad7ull);
  EXPECT_EQ(async_traffic_digest(true), 0xd341300db869e923ull);
}

}  // namespace

// Async buffered-cycle sessions in the sharded server: bit-identity with
// the legacy single-threaded AsyncNetwork drive at equal seed, the pooled
// multi-block upload fold, U-boundary dropout under staleness, buffered
// rounds spanning many born-rounds, one cycle-admission rule,
// survivor-set plan-cache reuse across cycles, and mixed sync+async
// multi-session drives deterministic across pool sizes with zero
// send-side payload copies.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "field/random_field.h"
#include "quant/staleness.h"
#include "runtime/arrival_scheduler.h"
#include "runtime/async_machines.h"
#include "runtime/machines.h"
#include "server/aggregation_server.h"
#include "sys/thread_pool.h"
#include "transport/stats.h"

namespace {

using Fp = lsa::field::Fp32;
using rep = Fp::rep;
using Arrival = lsa::runtime::Arrival;

constexpr std::size_t kN = 10, kT = 2, kU = 7, kD = 32;
constexpr std::size_t kBufferK = 4;
constexpr std::uint64_t kCg = 1u << 6;

lsa::protocol::Params make_params(std::size_t n = kN, std::size_t t = kT,
                                  std::size_t u = kU, std::size_t d = kD) {
  lsa::protocol::Params p;
  p.num_users = n;
  p.privacy = t;
  p.dropout = n - u;
  p.target_survivors = u;
  p.model_dim = d;
  return p;
}

std::vector<rep> random_update(std::uint64_t seed, std::size_t d = kD) {
  lsa::common::Xoshiro256ss rng(seed);
  return lsa::field::uniform_vector<Fp>(d, rng);
}

/// Plaintext reference: sum_b w_b * update_b with the protocol's quantized
/// staleness weights.
std::vector<rep> expected_weighted_sum(
    const std::vector<Arrival>& arrivals, std::uint64_t now,
    const lsa::quant::StalenessPolicy& policy, std::size_t d = kD) {
  std::vector<rep> out(d, Fp::zero);
  for (const auto& a : arrivals) {
    const auto w = lsa::quant::quantized_staleness_weight(
        policy, now - a.born_round, kCg);
    lsa::field::axpy_inplace<Fp>(std::span<rep>(out), Fp::from_u64(w),
                                 std::span<const rep>(a.update));
  }
  return out;
}

lsa::server::AsyncSessionConfig async_config(std::uint64_t seed,
                                             std::uint64_t sched_seed) {
  lsa::server::AsyncSessionConfig cfg;
  cfg.params = make_params();
  cfg.seed = seed;
  cfg.buffer_k = kBufferK;
  cfg.staleness = {lsa::quant::StalenessKind::kPolynomial, 1.0};
  cfg.c_g = kCg;
  cfg.schedule = {.seed = sched_seed, .tau_max = 3};
  return cfg;
}

TEST(AsyncSession, ScheduledCyclesBitIdenticalToLegacyDrive) {
  // The seeded arrival schedule feeds both drives; every cycle's weighted
  // aggregate (and weight sum) must match the single-threaded legacy
  // AsyncNetwork bit for bit.
  const auto cfg = async_config(/*seed=*/21, /*sched_seed=*/5);
  lsa::runtime::ArrivalScheduler sched(cfg.schedule, kN, kD, kBufferK);
  lsa::runtime::AsyncNetwork legacy(cfg.params, kBufferK, cfg.staleness, kCg,
                                    /*seed=*/21);

  lsa::server::AsyncSession session(cfg);
  session.enqueue_scheduled_cycles(3);
  EXPECT_EQ(session.pending(), 3u);
  while (!session.done()) session.step();

  ASSERT_EQ(session.outputs().size(), 3u);
  for (std::uint64_t c = 0; c < 3; ++c) {
    const auto arrivals = sched.arrivals_for_cycle(c);
    const auto expect = legacy.run_cycle(sched.now_for_cycle(c), arrivals);
    EXPECT_EQ(session.outputs()[c].weighted_sum, expect.weighted_sum)
        << "cycle " << c;
    EXPECT_EQ(session.outputs()[c].weight_sum, expect.weight_sum)
        << "cycle " << c;
    EXPECT_EQ(session.outputs()[c].weighted_sum,
              expected_weighted_sum(arrivals, sched.now_for_cycle(c),
                                    cfg.staleness))
        << "cycle " << c;
  }
  EXPECT_EQ(session.stats().steps, 3u);
}

TEST(AsyncSession, PooledUploadFoldMatchesInlineNetwork) {
  // A pooled session's server folds each update into its born round's sum
  // in kUploadFoldGrain blocks over the session pool, from inside a pump
  // lane. At d = 2 grains + 17 every update splits into two full blocks
  // and a ragged tail; two cycles over several born rounds, the second
  // with a crash before recovery, must match the inline AsyncNetwork bit
  // for bit.
  constexpr std::size_t kBig = 2 * lsa::runtime::kUploadFoldGrain + 17;
  lsa::sys::ThreadPool pool(4);
  auto cfg = async_config(/*seed=*/41, /*sched_seed=*/1);
  cfg.params.model_dim = kBig;
  lsa::runtime::AsyncNetwork inline_net(cfg.params, kBufferK, cfg.staleness,
                                        kCg, /*seed=*/41);
  cfg.params.exec.pool = &pool;
  lsa::server::AsyncSession session(cfg);
  for (std::uint64_t c = 0; c < 2; ++c) {
    const std::uint64_t now = 5 + c;
    std::vector<Arrival> arrivals;
    for (std::size_t b = 0; b < kBufferK; ++b) {
      arrivals.push_back(
          {2 * b + c, now - b % 3, random_update(900 + 10 * c + b, kBig)});
    }
    const std::vector<std::size_t> crash =
        c == 1 ? std::vector<std::size_t>{9} : std::vector<std::size_t>{};
    const auto want = inline_net.run_cycle(now, arrivals, crash);
    const auto got = session.run_cycle(now, arrivals, crash);
    EXPECT_EQ(got.weighted_sum, want.weighted_sum) << "cycle " << c;
    EXPECT_EQ(got.weight_sum, want.weight_sum) << "cycle " << c;
    EXPECT_EQ(want.weighted_sum,
              expected_weighted_sum(arrivals, now, cfg.staleness, kBig))
        << "cycle " << c;
  }
}

TEST(AsyncSession, UBoundaryDropoutWithManyBornRounds) {
  // Exactly U weighted-share responders (3 of 10 users crash before
  // recovery) while the buffered rounds span FOUR distinct born-rounds —
  // the App. F.3.3 combination of shares generated in different rounds,
  // at the recovery boundary.
  const lsa::quant::StalenessPolicy poly{
      lsa::quant::StalenessKind::kPolynomial, 1.0};
  auto cfg = async_config(/*seed=*/33, /*sched_seed=*/1);
  lsa::server::AsyncSession session(cfg);
  lsa::runtime::AsyncNetwork legacy(cfg.params, kBufferK, poly, kCg, 33);

  const std::vector<Arrival> arrivals{{1, 2, random_update(201)},
                                      {3, 4, random_update(202)},
                                      {5, 7, random_update(203)},
                                      {6, 8, random_update(204)}};
  const std::vector<std::size_t> crash{7, 8, 9};  // 7 = U responders remain
  session.enqueue_cycle({/*now=*/8, arrivals, crash});
  session.step();
  const auto expect = legacy.run_cycle(8, arrivals, crash);

  ASSERT_EQ(session.outputs().size(), 1u);
  EXPECT_EQ(session.outputs()[0].weighted_sum, expect.weighted_sum);
  EXPECT_EQ(session.outputs()[0].weighted_sum,
            expected_weighted_sum(arrivals, 8, poly));
  // All manifested timestamped shares were consumed on the live users.
  for (std::size_t j = 0; j < kN; ++j) {
    if (j >= 7) continue;  // crashed
    EXPECT_EQ(session.user(j).stored_shares(), 0u) << "user " << j;
  }

  // One crash more (U - 1 responders) must fail loudly.
  lsa::server::AsyncSession too_few(async_config(34, 2));
  too_few.enqueue_cycle({8, arrivals, {4, 7, 8, 9}});
  EXPECT_THROW(too_few.step(), lsa::ProtocolError);
}

TEST(AsyncSession, RepeatedCyclesHitTheSurvivorSetPlanCache) {
  // No dropouts: every cycle's survivor set is the same first-U responder
  // set, so the decode plan is built once and reused on every later cycle.
  auto cfg = async_config(/*seed=*/44, /*sched_seed=*/9);
  lsa::server::AsyncSession session(cfg);
  session.enqueue_scheduled_cycles(4);
  while (!session.done()) session.step();

  const auto st = session.stats();
  EXPECT_EQ(st.kind, lsa::server::SessionKind::kAsync);
  EXPECT_EQ(st.steps, 4u);
  EXPECT_EQ(st.decode_plan_builds, 1u);
  EXPECT_EQ(st.decode_plan_reuses, 3u);
  EXPECT_TRUE(session.server().codec().last_decode_stats().plan_reused);
}

TEST(AsyncSession, OneAdmissionRuleForDirectAndQueuedCycles) {
  // The router admits cycles of up to max(N, K) arrivals, and every path
  // applies that one rule before any frame is sent: a direct run_cycle and
  // a queued cycle are refused alike, so neither can wedge the driving
  // thread on backpressure.
  std::vector<Arrival> too_many;  // N + 1 arrivals from two users
  for (std::size_t a = 0; a < kN + 1; ++a) {
    too_many.push_back({a % 2, 3, random_update(300 + a)});
  }
  lsa::server::AsyncSession session(async_config(1, 1));
  EXPECT_THROW((void)session.run_cycle(3, too_many), lsa::ProtocolError);
  EXPECT_THROW(session.enqueue_cycle({3, too_many, {}}), lsa::ProtocolError);
  EXPECT_EQ(session.router().frames_sent(), 0u);
  EXPECT_EQ(session.pending(), 0u);

  // K < A <= N distinct arrivals fit the same rule: queued, stepped on a
  // pool, and equal to the inline driver at the same seed.
  std::vector<Arrival> past_k;
  for (std::size_t u = 0; u < kBufferK + 1; ++u) {
    past_k.push_back({u, 1 + u % 3, random_update(400 + u)});
  }
  lsa::sys::ThreadPool pool(3);
  auto cfg = async_config(2, 1);
  cfg.params.exec.pool = &pool;
  lsa::server::AsyncSession pooled(cfg);
  pooled.enqueue_cycle({4, past_k, {}});
  pooled.step();
  lsa::runtime::AsyncNetwork inline_net(make_params(), kBufferK,
                                        cfg.staleness, kCg, 2);
  const auto expected = inline_net.run_cycle(4, past_k);
  ASSERT_EQ(pooled.outputs().size(), 1u);
  EXPECT_EQ(pooled.outputs()[0].weighted_sum, expected.weighted_sum);
  EXPECT_EQ(pooled.outputs()[0].weight_sum, expected.weight_sum);
  EXPECT_EQ(expected.weighted_sum,
            expected_weighted_sum(past_k, 4, cfg.staleness));
}

TEST(MixedServer, OneDriveRunsSyncAndAsyncCohortsDeterministically) {
  // 2 sync + 2 async sessions through ONE run_rounds() invocation, for two
  // pool sizes. Every aggregate must equal its single-threaded reference
  // (runtime::Network / runtime::AsyncNetwork) bit for bit, the send side
  // must perform zero intermediate payload copies, and repeated async
  // cycles must hit the survivor-set plan cache.
  const auto sync_p = make_params(7, 2, 5, 24);
  const std::vector<std::size_t> sync_crash{1, 4};  // exactly U respond
  std::vector<std::vector<std::vector<rep>>> sync_models(2);
  for (std::size_t s = 0; s < 2; ++s) {
    sync_models[s].resize(7);
    for (std::size_t i = 0; i < 7; ++i) {
      sync_models[s][i] = random_update(1000 + 50 * s + i, 24);
    }
  }
  std::vector<std::vector<rep>> sync_expected(2);
  for (std::size_t s = 0; s < 2; ++s) {
    lsa::runtime::Network net(sync_p, /*seed=*/500 + s);
    sync_expected[s] =
        net.run_round(0, sync_models[s], s == 0 ? sync_crash
                                                : std::vector<std::size_t>{});
  }

  // Async cohorts: A runs 3 scheduled cycles, B runs 2 explicit cycles
  // whose second crashes two users before recovery (8 > U responders).
  const auto cfg_a = async_config(/*seed=*/71, /*sched_seed=*/13);
  const auto cfg_b = async_config(/*seed=*/72, /*sched_seed=*/14);
  lsa::runtime::ArrivalScheduler sched_a(cfg_a.schedule, kN, kD, kBufferK);
  const std::vector<Arrival> b0{{0, 2, random_update(801)},
                                {2, 3, random_update(802)},
                                {4, 4, random_update(803)},
                                {5, 4, random_update(804)}};
  const std::vector<Arrival> b1{{1, 5, random_update(805)},
                                {3, 5, random_update(806)},
                                {6, 3, random_update(807)},
                                {7, 6, random_update(808)}};

  std::vector<lsa::runtime::AsyncNetwork::Output> a_expected;
  {
    lsa::runtime::AsyncNetwork legacy(cfg_a.params, kBufferK, cfg_a.staleness,
                                      kCg, 71);
    for (std::uint64_t c = 0; c < 3; ++c) {
      a_expected.push_back(legacy.run_cycle(sched_a.now_for_cycle(c),
                                            sched_a.arrivals_for_cycle(c)));
    }
  }
  std::vector<lsa::runtime::AsyncNetwork::Output> b_expected;
  {
    lsa::runtime::AsyncNetwork legacy(cfg_b.params, kBufferK, cfg_b.staleness,
                                      kCg, 72);
    b_expected.push_back(legacy.run_cycle(4, b0));
    b_expected.push_back(legacy.run_cycle(6, b1, {8, 9}));
  }

  for (const std::size_t pool_size : {2u, 4u}) {
    lsa::sys::ThreadPool pool(pool_size);
    lsa::server::AggregationServer server(&pool, /*num_shards=*/pool_size);

    std::vector<lsa::server::AggregationServer::RoundWork> works;
    for (std::size_t s = 0; s < 2; ++s) {
      auto pp = sync_p;
      pp.exec.pool = &pool;
      const auto id = server.open_session(
          lsa::server::SessionConfig{.params = pp, .seed = 500 + s});
      works.push_back({id, 0, &sync_models[s],
                       s == 0 ? sync_crash : std::vector<std::size_t>{}});
    }
    auto ca = cfg_a;
    ca.params.exec.pool = &pool;
    const auto id_a = server.open_async_session(ca);
    server.async_session(id_a).enqueue_scheduled_cycles(3);
    auto cb = cfg_b;
    cb.params.exec.pool = &pool;
    const auto id_b = server.open_async_session(cb);
    server.async_session(id_b).enqueue_cycle({4, b0, {}});
    server.async_session(id_b).enqueue_cycle({6, b1, {8, 9}});

    const auto before = lsa::transport::snapshot();
    const auto results = server.run_rounds(works);
    const auto after = lsa::transport::snapshot();
    EXPECT_EQ(after.payload_copies - before.payload_copies, 0u)
        << "send-side intermediate payload copy at pool size " << pool_size;

    ASSERT_EQ(results.size(), 2u);
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(results[s], sync_expected[s])
          << "sync session " << s << " pool " << pool_size;
    }
    const auto& out_a = server.async_session(id_a).outputs();
    ASSERT_EQ(out_a.size(), 3u);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(out_a[c].weighted_sum, a_expected[c].weighted_sum)
          << "async A cycle " << c << " pool " << pool_size;
      EXPECT_EQ(out_a[c].weight_sum, a_expected[c].weight_sum);
    }
    const auto& out_b = server.async_session(id_b).outputs();
    ASSERT_EQ(out_b.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(out_b[c].weighted_sum, b_expected[c].weighted_sum)
          << "async B cycle " << c << " pool " << pool_size;
    }

    EXPECT_EQ(server.rounds_completed(), 2u);
    EXPECT_EQ(server.cycles_completed(), 5u);
    // Repeated cycles with the same survivor set reuse the cached plan.
    EXPECT_GE(server.async_session(id_a).stats().decode_plan_reuses, 2u);
    const auto ps = server.stats();
    EXPECT_EQ(ps.per_session.size(), 4u);
    EXPECT_EQ(ps.rounds_completed, 2u);
    EXPECT_EQ(ps.cycles_completed, 5u);
    EXPECT_GT(ps.frames_sent, 0u);
  }
}

// ---------------------------------------------------- persistent cohorts

TEST(AsyncSession, PersistentCohortStableCyclesSetUpOncePerArriver) {
  // 10 buffer cycles with the same four arrivers: each device runs its
  // offline encode + timestamped share distribution exactly once (epoch
  // 0), the decode plan is built once, and every cycle's weighted
  // aggregate is bit-identical to the per-update (non-persistent) session
  // AND to the plaintext weighted-sum reference.
  constexpr std::size_t kCycles = 10;
  const auto base = async_config(/*seed=*/91, /*sched_seed=*/3);
  auto pcfg = base;
  pcfg.params.persistent_cohort = true;
  lsa::server::AsyncSession persistent(pcfg);
  lsa::server::AsyncSession legacy(base);

  for (std::uint64_t c = 0; c < kCycles; ++c) {
    const std::uint64_t now = c + 2;
    const std::vector<Arrival> arrivals{
        {0, now - 2, random_update(4000 + 10 * c)},
        {1, now - 1, random_update(4001 + 10 * c)},
        {2, now, random_update(4002 + 10 * c)},
        {3, now - 1, random_update(4003 + 10 * c)}};
    persistent.enqueue_cycle({now, arrivals, {}});
    persistent.step();
    legacy.enqueue_cycle({now, arrivals, {}});
    legacy.step();
    const auto& got = persistent.outputs().back();
    EXPECT_EQ(got.weighted_sum, legacy.outputs().back().weighted_sum)
        << "cycle " << c;
    EXPECT_EQ(got.weighted_sum,
              expected_weighted_sum(arrivals, now, base.staleness))
        << "cycle " << c;
  }

  const auto st = persistent.stats();
  EXPECT_EQ(st.offline_encodes, 4u);  // once per arriving device, NOT 40
  EXPECT_EQ(st.decode_plan_builds, 1u);
  EXPECT_EQ(st.decode_plan_reuses, kCycles - 1);
  EXPECT_EQ(legacy.stats().offline_encodes, 4u * kCycles);
  // Epoch shares are retained, not consumed per manifest.
  EXPECT_GT(persistent.user(5).stored_shares(), 0u);

  // Membership change: the next arrival of each device re-runs setup once.
  persistent.advance_epoch();
  const std::uint64_t now = kCycles + 2;
  const std::vector<Arrival> arrivals{{0, now, random_update(5000)},
                                      {1, now, random_update(5001)},
                                      {2, now, random_update(5002)},
                                      {3, now, random_update(5003)}};
  persistent.enqueue_cycle({now, arrivals, {}});
  persistent.step();
  EXPECT_EQ(persistent.outputs().back().weighted_sum,
            expected_weighted_sum(arrivals, now, base.staleness));
  EXPECT_EQ(persistent.stats().offline_encodes, 8u);
}

}  // namespace

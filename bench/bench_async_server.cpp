// Async buffered-cycle throughput through the unified session runtime.
//
// Three measurements at a paper-scale working point (N users, d model
// entries, buffer K = N/4, Poly(1) staleness):
//
//   1. buffer cycles/s of the single-threaded AsyncNetwork reference (the
//      same router, pumped on one lane) vs the same cohorts as
//      AsyncSessions pumped by the sharded server::AggregationServer, with
//      every async aggregate checked bit-identical to its serial reference
//      (same seed, same scheduled arrivals);
//   2. the one-shot weighted-decode telemetry: plan setup vs streaming
//      seconds and the survivor-set plan-cache hit count — repeated cycles
//      with the same responder set must pay setup once;
//   3. the transport copy counters across the server run — the send side
//      must perform ZERO intermediate payload copies (hard check, same as
//      bench_transport).
//
// A mixed batch (sync rounds + async cycles in ONE drive) is also timed to
// show heterogeneous cohorts sharing the process.
//
// Usage: bench_async_server [N] [d] [async_sessions] [cycles]
//                           [--smoke] [--json <path>]
// Defaults: 64 20000 4 6; --smoke shrinks to a CI-sized point and writes
// BENCH_async.json for the regression gate (check_async_regression.py).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "field/random_field.h"
#include "protocol/params.h"
#include "quant/staleness.h"
#include "runtime/arrival_scheduler.h"
#include "runtime/async_machines.h"
#include "runtime/machines.h"
#include "server/aggregation_server.h"
#include "sys/thread_pool.h"
#include "transport/stats.h"

namespace {

using lsa::field::Fp32;
using rep = Fp32::rep;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Setup {
  lsa::protocol::Params params;
  std::size_t buffer_k;
  lsa::quant::StalenessPolicy staleness{lsa::quant::StalenessKind::kPolynomial,
                                        1.0};
  std::uint64_t c_g = 1u << 6;
  std::uint64_t seed(std::size_t session) const { return 70 + session; }
  lsa::runtime::ArrivalSchedule schedule(std::size_t session) const {
    return {.seed = 900 + session, .tau_max = 3};
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 64, d = 20000, n_sessions = 4, cycles = 6;
  bool smoke = false;
  const char* json_path = "BENCH_async.json";
  std::size_t pos = 0;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else if (argv[a][0] == '-') {
      std::fprintf(stderr, "unknown flag %s (usage: bench_async_server "
                   "[N] [d] [async_sessions] [cycles] [--smoke] "
                   "[--json <path>])\n", argv[a]);
      return 2;
    } else {
      char* end = nullptr;
      const std::size_t v = std::strtoull(argv[a], &end, 10);
      if (end == argv[a] || *end != '\0' || v == 0) {
        std::fprintf(stderr, "bad positional argument %s\n", argv[a]);
        return 2;
      }
      if (pos == 0) n = v;
      if (pos == 1) d = v;
      if (pos == 2) n_sessions = v;
      if (pos == 3) cycles = v;
      ++pos;
    }
  }
  if (smoke && pos == 0) {
    n = 16;
    d = 2048;
    n_sessions = 2;
    cycles = 4;
  }

  Setup su;
  su.params.num_users = n;
  su.params.privacy = n / 10;
  su.params.dropout = n - (n * 8) / 10;
  su.params.target_survivors = (n * 8) / 10;
  su.params.model_dim = d;
  su.buffer_k = std::max<std::size_t>(2, n / 4);
  const std::size_t hw =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());

  lsa::bench::JsonReport json("async_server");
  lsa::bench::print_header(
      "Async buffered-cycle sessions through the unified session runtime");
  std::printf("N=%zu d=%zu K=%zu U=%zu, %zu async sessions x %zu cycles, "
              "%zu hw threads%s\n",
              n, d, su.buffer_k, su.params.target_survivors, n_sessions,
              cycles, hw, smoke ? " (smoke)" : "");

  // [1] Legacy single-threaded reference: one AsyncNetwork per cohort,
  // driven cycle by cycle with the same seeded arrival schedule the
  // sessions will consume. Outputs are kept as the bit-exactness oracle.
  std::vector<std::vector<lsa::runtime::AsyncNetwork::Output>>
      expected(n_sessions);
  double legacy_secs = 0;
  {
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < n_sessions; ++s) {
      lsa::runtime::ArrivalScheduler sched(su.schedule(s), n, d, su.buffer_k);
      lsa::runtime::AsyncNetwork net(su.params, su.buffer_k, su.staleness,
                                     su.c_g, su.seed(s));
      for (std::uint64_t c = 0; c < cycles; ++c) {
        expected[s].push_back(net.run_cycle(sched.now_for_cycle(c),
                                            sched.arrivals_for_cycle(c)));
      }
    }
    legacy_secs = seconds_since(t0);
  }
  const double total_cycles = double(n_sessions * cycles);
  std::printf("\n[1] %zu cohorts x %zu cycles\n", n_sessions, cycles);
  std::printf("  serial AsyncNetwork reference:        %8.3f s  %8.1f "
              "cycles/s\n",
              legacy_secs, total_cycles / legacy_secs);

  // [2] The same cohorts as async sessions in the sharded server, one
  // drive pumping all of them over the zero-copy transport.
  double server_secs = 0;
  std::uint64_t copies = 0;
  std::uint64_t plan_builds = 0, plan_reuses = 0;
  double setup_s = 0, stream_s = 0;
  {
    lsa::sys::ThreadPool pool(hw);
    lsa::server::AggregationServer server(&pool);
    std::vector<std::uint64_t> ids;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      lsa::server::AsyncSessionConfig cfg;
      cfg.params = su.params;
      cfg.params.exec.pool = &pool;
      cfg.seed = su.seed(s);
      cfg.buffer_k = su.buffer_k;
      cfg.staleness = su.staleness;
      cfg.c_g = su.c_g;
      cfg.schedule = su.schedule(s);
      ids.push_back(server.open_async_session(cfg));
      server.async_session(ids.back()).enqueue_scheduled_cycles(cycles);
    }
    const auto before = lsa::transport::snapshot();
    const auto t0 = Clock::now();
    server.drive();
    server_secs = seconds_since(t0);
    const auto after = lsa::transport::snapshot();
    copies = after.payload_copies - before.payload_copies;

    for (std::size_t s = 0; s < n_sessions; ++s) {
      const auto& outs = server.async_session(ids[s]).outputs();
      if (outs.size() != cycles) {
        std::printf("FAIL: session %zu completed %zu of %zu cycles\n", s,
                    outs.size(), cycles);
        return 1;
      }
      for (std::size_t c = 0; c < cycles; ++c) {
        if (outs[c].weighted_sum != expected[s][c].weighted_sum ||
            outs[c].weight_sum != expected[s][c].weight_sum) {
          std::printf("FAIL: session %zu cycle %zu differs from the legacy "
                      "single-threaded drive\n", s, c);
          return 1;
        }
      }
      const auto st = server.async_session(ids[s]).stats();
      plan_builds += st.decode_plan_builds;
      plan_reuses += st.decode_plan_reuses;
      setup_s += st.decode_setup_s;
      stream_s += st.decode_stream_s;
    }
  }
  std::printf("  sharded AsyncSessions (zero-copy):    %8.3f s  %8.1f "
              "cycles/s  (%.2fx)\n",
              server_secs, total_cycles / server_secs,
              legacy_secs / server_secs);
  std::printf("  aggregates bit-identical to the legacy drive: OK\n");
  std::printf("  send-side payload copies:             %8llu (must be 0)\n",
              static_cast<unsigned long long>(copies));
  if (copies != 0) {
    std::printf("FAIL: async server drive performed intermediate payload "
                "copies on the send side\n");
    return 1;
  }
  std::printf("\n[2] weighted one-shot decode telemetry (all sessions)\n");
  std::printf("  plan builds: %llu, plan-cache reuses: %llu "
              "(repeated survivor sets pay setup once)\n",
              static_cast<unsigned long long>(plan_builds),
              static_cast<unsigned long long>(plan_reuses));
  std::printf("  decode setup %.3f ms + stream %.3f ms\n", setup_s * 1e3,
              stream_s * 1e3);
  if (plan_reuses < n_sessions * (cycles - 1)) {
    std::printf("FAIL: expected >= %zu plan-cache reuses\n",
                n_sessions * (cycles - 1));
    return 1;
  }
  json.add("async_cycles",
           {{"n", double(n)},
            {"d", double(d)},
            {"sessions", double(n_sessions)},
            {"cycles", total_cycles},
            {"legacy_cycles_per_s", total_cycles / legacy_secs},
            {"sharded_cycles_per_s", total_cycles / server_secs},
            {"speedup_vs_legacy", legacy_secs / server_secs},
            {"send_side_payload_copies", double(copies)},
            {"decode_plan_builds", double(plan_builds)},
            {"decode_plan_reuses", double(plan_reuses)},
            {"decode_setup_s", setup_s},
            {"decode_stream_s", stream_s},
            {"bit_identical", 1.0}});

  // [3] Mixed batch: the same async cohorts plus as many sync cohorts, one
  // run_rounds() drive. Sync aggregates are checked against the
  // single-threaded Network reference.
  std::printf("\n[3] mixed batch: %zu sync rounds + %zu async cycles in one "
              "drive\n",
              n_sessions, n_sessions * cycles);
  std::vector<std::vector<std::vector<rep>>> model_sets(n_sessions);
  for (std::size_t s = 0; s < n_sessions; ++s) {
    lsa::common::Xoshiro256ss mrng(500 + s);
    model_sets[s].resize(n);
    for (auto& m : model_sets[s]) {
      m = lsa::field::uniform_vector<Fp32>(d, mrng);
    }
  }
  std::vector<std::vector<rep>> sync_expected(n_sessions);
  for (std::size_t s = 0; s < n_sessions; ++s) {
    lsa::runtime::Network net(su.params, su.seed(s));
    sync_expected[s] = net.run_round(0, model_sets[s], {});
  }
  double mixed_secs = 0;
  std::uint64_t mixed_copies = 0;
  {
    lsa::sys::ThreadPool pool(hw);
    lsa::server::AggregationServer server(&pool);
    std::vector<lsa::server::AggregationServer::RoundWork> works;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      auto pp = su.params;
      pp.exec.pool = &pool;
      const auto id = server.open_session(
          lsa::server::SessionConfig{.params = pp, .seed = su.seed(s)});
      works.push_back({id, 0, &model_sets[s], {}});

      lsa::server::AsyncSessionConfig cfg;
      cfg.params = pp;
      cfg.seed = su.seed(s);
      cfg.buffer_k = su.buffer_k;
      cfg.staleness = su.staleness;
      cfg.c_g = su.c_g;
      cfg.schedule = su.schedule(s);
      server.async_session(server.open_async_session(cfg))
          .enqueue_scheduled_cycles(cycles);
    }
    const auto before = lsa::transport::snapshot();
    const auto t0 = Clock::now();
    const auto results = server.run_rounds(works);
    mixed_secs = seconds_since(t0);
    const auto after = lsa::transport::snapshot();
    mixed_copies = after.payload_copies - before.payload_copies;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      if (results[s] != sync_expected[s]) {
        std::printf("FAIL: mixed drive sync session %zu differs from the "
                    "Network reference\n", s);
        return 1;
      }
    }
    if (server.rounds_completed() != n_sessions ||
        server.cycles_completed() != n_sessions * cycles) {
      std::printf("FAIL: mixed drive step accounting is off\n");
      return 1;
    }
  }
  std::printf("  one run_rounds() drive:               %8.3f s, "
              "send-side copies %llu (must be 0)\n",
              mixed_secs, static_cast<unsigned long long>(mixed_copies));
  if (mixed_copies != 0) {
    std::printf("FAIL: mixed drive performed send-side payload copies\n");
    return 1;
  }
  std::printf("  sync aggregates bit-identical to the Network reference: "
              "OK\n");
  json.add("mixed_drive", {{"sync_sessions", double(n_sessions)},
                           {"async_sessions", double(n_sessions)},
                           {"seconds", mixed_secs},
                           {"send_side_payload_copies", double(mixed_copies)},
                           {"bit_identical", 1.0}});

  // [4] Steady-state persistent cohorts (params.persistent_cohort): the
  // offline mask encode + share distribution run ONCE per cohort epoch;
  // every later round is masked-upload -> fan-in -> cached-plan decode
  // only. Aggregates stay bit-identical to the per-round protocol (the
  // epoch masks cancel exactly either way), so the comparison below is a
  // hard check, not a tolerance. The gate
  // (check_async_regression.py::steady_state) enforces the zero-setup
  // invariant: offline encodes and plan builds track cohort EPOCHS, not
  // rounds.
  const std::size_t ss_rounds = smoke ? 6 : 10;
  std::printf("\n[4] steady-state persistent cohort: %zu sync rounds, "
              "stable membership\n", ss_rounds);
  double ss_offline_per_user = 0, ss_plan_builds = 0;
  double legacy_round_secs = 0, persist_round_secs = 0;
  {
    auto pp = su.params;
    lsa::server::Session legacy_sess(
        lsa::server::SessionConfig{.params = pp, .seed = su.seed(0)});
    pp.persistent_cohort = true;
    lsa::server::Session persist_sess(
        lsa::server::SessionConfig{.params = pp, .seed = su.seed(0)});
    std::vector<std::vector<std::vector<rep>>> round_models(ss_rounds);
    for (std::size_t r = 0; r < ss_rounds; ++r) {
      lsa::common::Xoshiro256ss mrng(7000 + r);
      round_models[r].resize(n);
      for (auto& m : round_models[r]) {
        m = lsa::field::uniform_vector<Fp32>(d, mrng);
      }
    }
    std::vector<std::vector<rep>> legacy_out(ss_rounds);
    {
      const auto t0 = Clock::now();
      for (std::size_t r = 0; r < ss_rounds; ++r) {
        legacy_out[r] = legacy_sess.run_round(r, round_models[r], {});
      }
      legacy_round_secs = seconds_since(t0) / double(ss_rounds);
    }
    {
      const auto t0 = Clock::now();
      for (std::size_t r = 0; r < ss_rounds; ++r) {
        if (persist_sess.run_round(r, round_models[r], {}) != legacy_out[r]) {
          std::printf("FAIL: persistent-cohort round %zu differs from the "
                      "per-round session\n", r);
          return 1;
        }
      }
      persist_round_secs = seconds_since(t0) / double(ss_rounds);
    }
    const auto pst = persist_sess.stats();
    const auto lst = legacy_sess.stats();
    ss_offline_per_user = double(pst.offline_encodes) / double(n);
    ss_plan_builds = double(pst.decode_plan_builds);
    std::printf("  per-round session:  %8.4f s/round, %llu offline encodes\n",
                legacy_round_secs,
                static_cast<unsigned long long>(lst.offline_encodes));
    std::printf("  persistent cohort:  %8.4f s/round, %llu offline encodes, "
                "%llu plan builds (%.2fx per round)\n",
                persist_round_secs,
                static_cast<unsigned long long>(pst.offline_encodes),
                static_cast<unsigned long long>(pst.decode_plan_builds),
                legacy_round_secs / persist_round_secs);
    std::printf("  aggregates bit-identical to the per-round protocol: OK\n");
    if (pst.offline_encodes != n || pst.decode_plan_builds != 1 ||
        pst.decode_plan_reuses != ss_rounds - 1) {
      std::printf("FAIL: persistent cohort re-ran per-epoch setup "
                  "(%llu encodes, %llu builds, %llu reuses)\n",
                  static_cast<unsigned long long>(pst.offline_encodes),
                  static_cast<unsigned long long>(pst.decode_plan_builds),
                  static_cast<unsigned long long>(pst.decode_plan_reuses));
      return 1;
    }
  }
  // The async leg: the same scheduled cohort as session 0 in [1], run in
  // persistent mode — each arriving user pays its offline encode on its
  // FIRST manifested update only, and every buffered weighted aggregate
  // must still match the legacy per-update drive bit for bit.
  std::uint64_t async_persist_encodes = 0, async_legacy_encodes = 0;
  {
    lsa::sys::ThreadPool pool(hw);
    lsa::server::AggregationServer server(&pool);
    lsa::server::AsyncSessionConfig cfg;
    cfg.params = su.params;
    cfg.params.exec.pool = &pool;
    cfg.params.persistent_cohort = true;
    cfg.seed = su.seed(0);
    cfg.buffer_k = su.buffer_k;
    cfg.staleness = su.staleness;
    cfg.c_g = su.c_g;
    cfg.schedule = su.schedule(0);
    const auto id = server.open_async_session(cfg);
    server.async_session(id).enqueue_scheduled_cycles(cycles);
    server.drive();
    const auto& outs = server.async_session(id).outputs();
    for (std::size_t c = 0; c < cycles; ++c) {
      if (outs[c].weighted_sum != expected[0][c].weighted_sum ||
          outs[c].weight_sum != expected[0][c].weight_sum) {
        std::printf("FAIL: persistent async cycle %zu differs from the "
                    "legacy drive\n", c);
        return 1;
      }
    }
    async_persist_encodes = server.async_session(id).stats().offline_encodes;
  }
  {
    // Legacy encode count for the same schedule: one per submitted update.
    lsa::sys::ThreadPool pool(hw);
    lsa::server::AggregationServer server(&pool);
    lsa::server::AsyncSessionConfig cfg;
    cfg.params = su.params;
    cfg.params.exec.pool = &pool;
    cfg.seed = su.seed(0);
    cfg.buffer_k = su.buffer_k;
    cfg.staleness = su.staleness;
    cfg.c_g = su.c_g;
    cfg.schedule = su.schedule(0);
    const auto id = server.open_async_session(cfg);
    server.async_session(id).enqueue_scheduled_cycles(cycles);
    server.drive();
    async_legacy_encodes = server.async_session(id).stats().offline_encodes;
  }
  std::printf("  async leg: %llu offline encodes persistent vs %llu "
              "per-update (<= one per arriving user), bit-identical: OK\n",
              static_cast<unsigned long long>(async_persist_encodes),
              static_cast<unsigned long long>(async_legacy_encodes));
  if (async_persist_encodes > n ||
      async_persist_encodes > async_legacy_encodes) {
    std::printf("FAIL: persistent async cohort re-encoded epoch shares\n");
    return 1;
  }
  json.add("steady_state",
           {{"n", double(n)},
            {"rounds", double(ss_rounds)},
            {"offline_encodes_per_user", ss_offline_per_user},
            {"plan_builds", ss_plan_builds},
            {"legacy_round_s", legacy_round_secs},
            {"persistent_round_s", persist_round_secs},
            {"round_speedup_vs_per_round",
             legacy_round_secs / persist_round_secs},
            {"async_offline_encodes", double(async_persist_encodes)},
            {"async_legacy_offline_encodes", double(async_legacy_encodes)},
            {"bit_identical", 1.0}});
  json.write(json_path);
  return 0;
}

// lsa_client: one LightSecAgg user device as an external process.
//
// Connects to lsa_serverd over TCP or UDS, binds to (--session, --user)
// with the transport handshake, and runs --rounds full protocol rounds
// with deterministic models shared with the daemon's --verify mode:
//
//   ./example_lsa_client --connect uds:///tmp/lsa.sock --session 0 \
//       --user 3 --users 4 --privacy 1 --dropout 1 --dim 1024 \
//       --rounds 2 --seed 42
//
// --drop-round R exercises the crash/revive mapping: the client uploads
// its round-R masked model, flushes, and drops the connection — the
// delayed-not-dropped case (its model is still aggregated; it just never
// answers the recovery request). It reconnects at the start of the next
// round and keeps going.
//
// Exit codes: 0 ok; 1 fatal; 3 timeout / hub gone;
// 4 payload copies detected on the send path; 64 usage.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "field/simd/simd_policy.h"
#include "lsa_service_common.h"
#include "protocol/params.h"
#include "runtime/machines.h"
#include "server/remote_session.h"
#include "transport/socket/socket_transport.h"
#include "transport/stats.h"

namespace {

using lsa::transport::socket::Inbound;
using lsa::transport::socket::SocketAddr;
using lsa::transport::socket::SocketTransport;

int run(int argc, char** argv) {
  lsa::examples::Flags flags(argc, argv);
  const std::string connect_url = flags.str("connect", "uds:///tmp/lsa.sock");
  const std::uint64_t session = flags.u64("session", 0);
  const auto user = static_cast<std::uint32_t>(flags.u64("user", 0));
  lsa::protocol::Params params;
  params.num_users = flags.u64("users", 8);
  params.privacy = flags.u64("privacy", 1);
  params.dropout = flags.u64("dropout", 2);
  params.target_survivors = flags.u64("survivors", 0);
  params.model_dim = flags.u64("dim", 1024);
  // Steady-state cohort mode: offline encode + share distribution happen
  // once (epoch 0); rounds 1+ are masked-upload only. Pass the same value
  // to lsa_serverd so its --verify reference replays the same variant.
  params.persistent_cohort = flags.boolean("persistent", false);
  const std::uint64_t rounds = flags.u64("rounds", 1);
  const std::uint64_t seed = flags.u64("seed", 42);
  const std::uint64_t drop_round = flags.u64("drop-round", ~0ull);
  const std::uint64_t timeout_s = flags.u64("timeout-s", 60);
  flags.reject_unknown();
  params.validate_and_resolve();

  const SocketAddr addr = SocketAddr::parse(connect_url);
  auto transport = SocketTransport::connect(
      addr, session, user, static_cast<std::uint32_t>(params.num_users));
  lsa::runtime::UserDevice dev(user, params, seed, *transport);

  // All inbound protocol frames feed the device machine; the sink also
  // tracks which round's aggregate has landed so the main loop can block
  // on "my result for round r is here".
  std::int64_t result_round = -1;
  transport->set_sink([&](const Inbound& in) {
    // A dropped round's recovery request can still reach us: the hub
    // parks the survivor bitmap while we are down and flushes it on
    // reconnect. We abandoned that round, so skip it. And decline (not
    // crash on) any recovery request we cannot satisfy: shares are only
    // ever missing when our link broke mid-round (a close eats frames in
    // flight), and the daemon never waits on a user whose link broke
    // mid-round — crash semantics, not an error.
    if (in.view.type == lsa::runtime::MsgType::kSurvivorSet) {
      if (in.view.round == drop_round) return;
      try {
        dev.handle_view(in.view);
      } catch (const lsa::ProtocolError&) {
      }
      return;
    }
    dev.handle_view(in.view);
    if (in.view.type == lsa::runtime::MsgType::kAggregateResult) {
      result_round = static_cast<std::int64_t>(in.view.round);
    }
  });

  const lsa::field::simd::ScopedSimdPolicy simd_guard(params.simd);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    if (!transport->connected()) {
      transport->reconnect();  // revive after a --drop-round disconnect
    }
    const auto model =
        lsa::examples::service_model(seed, user, r, params.model_dim);
    dev.start_round(r, model);
    if (r == drop_round) {
      // Delayed, not dropped: the upload is flushed out before the
      // connection dies, so the aggregate still includes this user.
      transport->flush_pending(static_cast<int>(timeout_s) * 1000);
      transport->disconnect();
      std::printf("lsa_client %u: dropped after round %llu upload\n", user,
                  static_cast<unsigned long long>(r));
      continue;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    while (result_round < static_cast<std::int64_t>(r)) {
      transport->poll(20);
      // Re-check the result before the connection: the hub may broadcast
      // the aggregate and close in the same poll (daemon shutdown), and a
      // result that landed with the EOF still counts.
      if (result_round >= static_cast<std::int64_t>(r)) break;
      if (!transport->connected()) {
        std::fprintf(stderr, "lsa_client %u: hub closed the connection\n",
                     user);
        return 3;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr,
                     "lsa_client %u: timed out waiting for round %llu\n",
                     user, static_cast<unsigned long long>(r));
        return 3;
      }
    }
  }

  // The device writes its shares and upload straight into their frames:
  // any payload copy is a regression in the zero-copy contract.
  const std::uint64_t copies = lsa::transport::snapshot().payload_copies;
  if (copies != 0) {
    std::fprintf(stderr,
                 "lsa_client %u: %llu payload bytes copied (expected 0)\n",
                 user, static_cast<unsigned long long>(copies));
    return 4;
  }
  std::printf("lsa_client %u: completed %llu rounds (last result round "
              "%lld)\n",
              user, static_cast<unsigned long long>(rounds),
              static_cast<long long>(result_round));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsa_client: fatal: %s\n", e.what());
    return 1;
  }
}

// lsa_serverd: standalone LightSecAgg aggregation-server daemon.
//
// Listens on a TCP or Unix-domain socket, hosts one or more sessions on a
// sharded socket hub, and serves full LightSecAgg rounds to external client
// processes (examples/lsa_client.cpp):
//
//   ./example_lsa_serverd --listen uds:///tmp/lsa.sock \
//       --users 4 --privacy 1 --dropout 1 --dim 1024 --rounds 2 \
//       --seed 42 --verify 1
//
// --verify replays every session through the serial runtime::Network
// reference with the same deterministic models (lsa_service_common.h) and
// the dropout pattern that actually happened (per-round responder bitmaps),
// and demands bit-identical aggregates — the socket plane must not change
// a single bit of the protocol's output. Verification assumes the
// delayed-not-dropped client behavior (drop AFTER upload, which is what
// lsa_client --drop-round does); a client that dies before uploading makes
// the reference diverge by construction.
//
// Exit codes: 0 ok; 2 aggregate mismatch or unrecoverable round;
// 3 timeout; 4 payload copies detected on the serving path; 64 usage.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "lsa_service_common.h"
#include "protocol/params.h"
#include "runtime/machines.h"
#include "server/remote_session.h"
#include "transport/socket/socket_transport.h"
#include "transport/stats.h"

namespace {

using lsa::server::RemoteSession;
using lsa::transport::socket::SocketAddr;
using lsa::transport::socket::SocketTransport;

int serve(int argc, char** argv) {
  lsa::examples::Flags flags(argc, argv);
  const std::string listen_url = flags.str("listen", "uds:///tmp/lsa.sock");
  lsa::protocol::Params params;
  params.num_users = flags.u64("users", 8);
  params.privacy = flags.u64("privacy", 1);
  params.dropout = flags.u64("dropout", 2);
  params.target_survivors = flags.u64("survivors", 0);
  params.model_dim = flags.u64("dim", 1024);
  // Steady-state cohort mode: clients share-distribute once per epoch.
  // Must match the clients' --persistent flag so the --verify reference
  // replays the same protocol variant.
  params.persistent_cohort = flags.boolean("persistent", false);
  const std::uint64_t rounds = flags.u64("rounds", 1);
  const std::uint64_t num_sessions = flags.u64("sessions", 1);
  const std::uint64_t seed = flags.u64("seed", 42);
  const bool verify = flags.boolean("verify", false);
  const std::uint64_t timeout_s = flags.u64("timeout-s", 60);
  flags.reject_unknown();

  const SocketAddr addr = SocketAddr::parse(listen_url);
  auto hub = SocketTransport::listen(addr);
  if (addr.kind == SocketAddr::Kind::kTcp) {
    std::printf("lsa_serverd: listening on tcp://%s:%u\n", addr.host.c_str(),
                static_cast<unsigned>(hub->tcp_port()));
  } else {
    std::printf("lsa_serverd: listening on %s\n", addr.to_string().c_str());
  }
  std::fflush(stdout);

  std::vector<std::unique_ptr<RemoteSession>> sessions;
  for (std::uint64_t s = 0; s < num_sessions; ++s) {
    lsa::server::RemoteSessionConfig cfg;
    cfg.params = params;
    cfg.rounds = rounds;
    sessions.push_back(std::make_unique<RemoteSession>(*hub, s, cfg));
  }
  params.validate_and_resolve();  // after sessions copied the raw config

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(timeout_s);
  auto all_done = [&] {
    for (const auto& s : sessions) {
      if (!s->done()) return false;
    }
    return true;
  };
  while (!all_done()) {
    try {
      hub->poll(50);
    } catch (const lsa::ProtocolError& e) {
      std::fprintf(stderr, "lsa_serverd: %s\n", e.what());
      return 2;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "lsa_serverd: timed out waiting for rounds\n");
      return 3;
    }
  }
  // Give queued result broadcasts a moment to drain to the kernel before
  // the listener (and every connection) is torn down.
  const auto drain_deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(2);
  auto queued = [&] {
    std::size_t total = 0;
    for (std::uint64_t s = 0; s < num_sessions; ++s) {
      total += hub->queued_frames(s);
    }
    return total;
  };
  while (queued() > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    hub->poll(10);
  }

  const auto& st = hub->stats();
  std::printf(
      "lsa_serverd: done — %llu delivered, %llu relayed, %llu dropped, "
      "%llu accepts, %llu disconnects, %llu revives\n",
      static_cast<unsigned long long>(st.frames_delivered),
      static_cast<unsigned long long>(st.frames_relayed),
      static_cast<unsigned long long>(st.frames_dropped),
      static_cast<unsigned long long>(st.accepts),
      static_cast<unsigned long long>(st.disconnects),
      static_cast<unsigned long long>(st.revives));

  // The serving path must be copy-free: payloads are written once into
  // their frames and relayed/broadcast by refcount. Snapshot BEFORE the
  // verify drive so the count covers the serving path alone.
  const std::uint64_t serve_copies =
      lsa::transport::snapshot().payload_copies;
  if (serve_copies != 0) {
    std::fprintf(stderr,
                 "lsa_serverd: %llu payload bytes copied on the serving "
                 "path (expected 0)\n",
                 static_cast<unsigned long long>(serve_copies));
    return 4;
  }

  if (verify) {
    for (std::uint64_t s = 0; s < num_sessions; ++s) {
      lsa::runtime::Network net(params, seed);
      for (std::uint64_t r = 0; r < rounds; ++r) {
        // The reference's crashes persist across rounds; this round's
        // dropout pattern is exactly the socket run's non-responders.
        std::vector<std::size_t> crashed;
        const auto& responded = sessions[s]->responders(r);
        for (std::uint32_t u = 0; u < params.num_users; ++u) {
          net.router().revive(u);
          if (responded[u] == 0) crashed.push_back(u);
        }
        std::vector<std::vector<lsa::field::Fp32::rep>> models;
        for (std::uint32_t u = 0; u < params.num_users; ++u) {
          models.push_back(lsa::examples::service_model(seed, u, r,
                                                        params.model_dim));
        }
        const auto want = net.run_round(r, models, crashed);
        const auto& got = sessions[s]->aggregates().at(r);
        if (want != got) {
          std::fprintf(stderr,
                       "lsa_serverd: session %llu round %llu aggregate "
                       "MISMATCH vs serial reference\n",
                       static_cast<unsigned long long>(s),
                       static_cast<unsigned long long>(r));
          return 2;
        }
        std::printf("lsa_serverd: session %llu round %llu verified "
                    "bit-identical (%zu survivors responded)\n",
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(r),
                    params.num_users - crashed.size());
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return serve(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsa_serverd: fatal: %s\n", e.what());
    return 1;
  }
}

// Real-socket transport backend: epoll loop, framed TCP/UDS connections,
// session handshake, and the RemoteSession phase machine. The load-bearing
// claim is bit-identity: N client PROCESSES (here: threads with their own
// SocketTransport instances, which is the same code path minus fork) must
// produce byte-for-byte the aggregates of the serial runtime::Network at
// the same seed and dropout pattern — including dropout at the U boundary
// and a mid-round disconnect -> reconnect — with ZERO send-side payload
// copies on the socket plane.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "crypto/prg.h"
#include "field/random_field.h"
#include "protocol/params.h"
#include "runtime/machines.h"
#include "server/remote_session.h"
#include "transport/frame.h"
#include "transport/socket/socket_addr.h"
#include "transport/socket/socket_transport.h"
#include "transport/stats.h"

namespace {

using namespace lsa::transport::socket;
using lsa::field::Fp32;
using lsa::runtime::MsgType;
using lsa::runtime::Network;
using lsa::runtime::UserDevice;
using lsa::server::RemoteSession;
using lsa::server::RemoteSessionConfig;
using rep = Fp32::rep;

std::vector<rep> model_for(std::uint64_t seed, std::uint32_t user,
                           std::uint64_t round, std::size_t dim) {
  auto sub = lsa::crypto::derive_subseed(
      lsa::crypto::seed_from_u64(seed ^ (0x5eedull +
                                         user * 0x9e3779b97f4a7c15ull)),
      round);
  lsa::crypto::Prg prg(sub);
  return lsa::field::uniform_vector<Fp32>(dim, prg);
}

std::string fresh_uds_path(int tag) {
  return "/tmp/lsa_stt_" + std::to_string(::getpid()) + "_" +
         std::to_string(tag) + ".sock";
}

// Pumps hub and a set of clients until `pred` holds (single-threaded
// interleaving — every endpoint polled non-blocking, bounded).
template <class Pred>
void settle(SocketTransport* hub, std::vector<SocketTransport*> clients,
            Pred&& pred, int max_iters = 2000) {
  for (int i = 0; i < max_iters; ++i) {
    if (pred()) return;
    if (hub != nullptr) hub->poll(1);
    for (auto* c : clients) {
      if (c != nullptr) c->poll(0);
    }
  }
  FAIL() << "settle: condition not reached";
}

// ------------------------------------------------- full-round bit-identity

// N client threads run 3 full rounds against a daemon-shaped hub; round 1
// drops users {4,5} AFTER upload (delayed-not-dropped at the U boundary:
// the four stayers — exactly U of them — carry the recovery). Aggregates
// must be bit-identical to the serial Network reference, and the socket
// phase must not copy a single payload byte on the send side.
void run_full_rounds(const std::string& listen_url, int uds_tag) {
  lsa::protocol::Params params;
  params.num_users = 6;
  params.privacy = 1;
  params.dropout = 2;
  params.model_dim = 120;
  params.validate_and_resolve();
  ASSERT_EQ(params.target_survivors, 4u);

  const std::uint64_t kSeed = 2024;
  const std::uint64_t kRounds = 3;
  const std::uint64_t kDropRound = 1;

  std::vector<std::vector<std::vector<rep>>> models(kRounds);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::uint32_t u = 0; u < params.num_users; ++u) {
      models[r].push_back(model_for(kSeed, u, r, params.model_dim));
    }
  }

  const auto before = lsa::transport::snapshot();

  const SocketAddr listen_addr = SocketAddr::parse(listen_url);
  auto hub = SocketTransport::listen(listen_addr);
  SocketAddr client_addr = listen_addr;
  if (listen_addr.kind == SocketAddr::Kind::kTcp) {
    client_addr.port = hub->tcp_port();
  }
  (void)uds_tag;

  RemoteSessionConfig cfg;
  cfg.params = params;
  cfg.rounds = kRounds;
  RemoteSession sess(*hub, /*session_id=*/0, cfg);

  std::vector<std::thread> threads;
  std::vector<std::atomic<bool>> ok(params.num_users);
  for (auto& o : ok) o.store(false);

  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    threads.emplace_back([&, u] {
      auto t = SocketTransport::connect(client_addr, 0, u,
                                        static_cast<std::uint32_t>(
                                            params.num_users));
      UserDevice dev(u, params, kSeed, *t);
      const bool dropper = (u == 4 || u == 5);
      std::int64_t result_round = -1;
      t->set_sink([&](const Inbound& in) {
        // The hub parks the drop round's survivor bitmap while a dropper
        // is down and flushes it on reconnect — a round this client
        // abandoned (and whose shares its dead connection may have
        // eaten). Skip it; the session does not wait on droppers.
        if (dropper && in.view.type == MsgType::kSurvivorSet &&
            in.view.round == kDropRound) {
          return;
        }
        if (in.view.type == MsgType::kSurvivorSet) {
          // Decline a recovery request we cannot satisfy: shares can
          // only be missing when our link broke mid-round (a TCP close
          // eats frames in flight), and the session never waits on a
          // user whose link broke mid-round — crash semantics, not an
          // error.
          try {
            dev.handle_view(in.view);
          } catch (const lsa::ProtocolError&) {
          }
          return;
        }
        dev.handle_view(in.view);
        if (in.view.type == MsgType::kAggregateResult) {
          result_round = static_cast<std::int64_t>(in.view.round);
        }
      });
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        if (!t->connected()) t->reconnect();
        dev.start_round(r, models[r][u]);
        if (dropper && r == kDropRound) {
          t->flush_pending(10'000);
          t->disconnect();
          continue;
        }
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (result_round < static_cast<std::int64_t>(r)) {
          t->poll(5);
          if (result_round >= static_cast<std::int64_t>(r)) break;
          if (!t->connected() ||
              std::chrono::steady_clock::now() >= deadline) {
            return;  // ok stays false
          }
        }
      }
      ok[u].store(true);
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!sess.done() && std::chrono::steady_clock::now() < deadline) {
    hub->poll(20);
  }
  EXPECT_TRUE(sess.done());
  // Keep pumping the hub while the clients drain their result frames —
  // the last broadcast may still sit in write queues when done() flips.
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  auto all_ok = [&] {
    for (auto& o : ok) {
      if (!o.load()) return false;
    }
    return true;
  };
  while (!all_ok() && std::chrono::steady_clock::now() < drain_deadline) {
    hub->poll(10);
  }
  for (auto& th : threads) th.join();
  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    EXPECT_TRUE(ok[u].load()) << "client " << u << " failed";
  }
  ASSERT_EQ(sess.aggregates().size(), kRounds);

  // Counter-enforced zero-copy: the whole socket phase (hub + 6 clients)
  // built frames straight from arena rows and relayed by refcount. Taken
  // BEFORE the reference drive so it covers the socket phase alone.
  const auto mid = lsa::transport::snapshot();
  EXPECT_EQ(mid.payload_copies - before.payload_copies, 0u);

  Network net(params, kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    std::vector<std::size_t> crashed;
    for (std::uint32_t u = 0; u < params.num_users; ++u) {
      net.router().revive(u);
      if (sess.responders(r)[u] == 0) crashed.push_back(u);
    }
    if (r == kDropRound) {
      // Deterministic regardless of reconnect timing: a user whose link
      // broke mid-round is never waited on again while that round's
      // traffic may have died with the link (unsafe_until_), so exactly
      // the four stayers — U of them — answer the drop round's recovery.
      EXPECT_EQ(sess.responders(r),
                (std::vector<std::uint8_t>{1, 1, 1, 1, 0, 0}));
    } else if (r == 0) {
      EXPECT_TRUE(crashed.empty()) << "round " << r;
    } else {
      // Post-drop rounds: the stayers always answer, but a dropper may
      // legitimately sit this one out too — fast stayers bank round-r
      // traffic ahead, so the dropper's old link can have eaten round-r
      // shares and the unsafe_until_ fence then covers round r as well.
      // Either way the aggregate is crash-set-independent (checked below
      // bit-exactly against the reference with the same crashed set).
      for (std::uint32_t u = 0; u < 4; ++u) {
        EXPECT_EQ(sess.responders(r)[u], 1) << "stayer " << u << " round "
                                            << r;
      }
    }
    const auto want = net.run_round(r, models[r], crashed);
    EXPECT_EQ(want, sess.aggregates()[r]) << "round " << r;
  }
}

TEST(SocketTransport, FullRoundsBitIdenticalOverUds) {
  run_full_rounds("uds://" + fresh_uds_path(1), 1);
}

TEST(SocketTransport, FullRoundsBitIdenticalOverTcp) {
  run_full_rounds("tcp://127.0.0.1:0", 2);
}

// ------------------------------------- mid-round disconnect -> reconnect

// Single-threaded interleaved drive: user 3 uploads, then drops while the
// round is in flight (its model stays in the aggregate — delayed, not
// dropped), reconnects before the round finishes (a revive: it still gets
// the result broadcast), and participates fully in the next round.
TEST(SocketTransport, MidRoundDisconnectReconnectMapsToCrashRevive) {
  lsa::protocol::Params params;
  params.num_users = 4;
  params.privacy = 1;
  params.dropout = 1;
  params.model_dim = 60;
  params.validate_and_resolve();
  ASSERT_EQ(params.target_survivors, 3u);

  const std::uint64_t kSeed = 777;
  std::vector<std::vector<std::vector<rep>>> models(2);
  for (std::uint64_t r = 0; r < 2; ++r) {
    for (std::uint32_t u = 0; u < params.num_users; ++u) {
      models[r].push_back(model_for(kSeed, u, r, params.model_dim));
    }
  }

  const SocketAddr addr = SocketAddr::parse("uds://" + fresh_uds_path(3));
  auto hub = SocketTransport::listen(addr);
  RemoteSessionConfig cfg;
  cfg.params = params;
  cfg.rounds = 2;
  RemoteSession sess(*hub, 0, cfg);

  std::vector<std::unique_ptr<SocketTransport>> cts;
  std::vector<std::unique_ptr<UserDevice>> devs;
  std::vector<std::int64_t> result_round(params.num_users, -1);
  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    cts.push_back(SocketTransport::connect(
        addr, 0, u, static_cast<std::uint32_t>(params.num_users)));
    devs.push_back(std::make_unique<UserDevice>(u, params, kSeed, *cts[u]));
    cts[u]->set_sink([&, u](const Inbound& in) {
      devs[u]->handle_view(in.view);
      if (in.view.type == MsgType::kAggregateResult) {
        result_round[u] = static_cast<std::int64_t>(in.view.round);
      }
    });
  }
  auto all = [&] {
    std::vector<SocketTransport*> v;
    for (auto& c : cts) v.push_back(c.get());
    return v;
  };

  // Round 0: everyone uploads; user 3 drops right after its upload is on
  // the wire, without ever polling (it must not see the survivor bitmap).
  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    devs[u]->start_round(0, models[0][u]);
  }
  cts[3]->flush_pending(5'000);
  cts[3]->disconnect();
  // Hub collects 4 models, sees the EOF, begins recovery with the three
  // live users waiting; frames aimed at user 3 while it is down are
  // parked for its rebind (store-and-forward), and whatever sat on the
  // dead connection's write queue drains like crash(). Only the hub is
  // pumped here — the survivors must not respond yet, so the round is
  // still in flight when user 3 comes back.
  settle(hub.get(), {}, [&] {
    return sess.phase() == RemoteSession::Phase::kRecover;
  });
  // Reconnect BEFORE the round finishes: a revive. Not re-added to the
  // in-flight wait set — even though the parked bitmap reaches it on
  // rebind, its answer is ignored — but live again, so the result
  // broadcast reaches it.
  cts[3]->reconnect();
  settle(hub.get(), {cts[3].get()}, [&] { return hub->is_up(0, 3); });
  EXPECT_EQ(hub->stats().revives, 1u);
  EXPECT_EQ(sess.phase(), RemoteSession::Phase::kRecover);
  settle(hub.get(), all(), [&] { return sess.current_round() > 0; });
  ASSERT_EQ(sess.aggregates().size(), 1u);
  // The join/down windows forced the hub to park at least one frame, and
  // exactly one connection (user 3's first) was torn down.
  EXPECT_GE(hub->stats().frames_parked, 1u);
  EXPECT_EQ(hub->stats().disconnects, 1u);
  // Delayed, not dropped: responders were {0,1,2} but the aggregate
  // includes user 3's model.
  EXPECT_EQ(sess.responders(0),
            (std::vector<std::uint8_t>{1, 1, 1, 0}));
  settle(hub.get(), all(), [&] {
    return result_round[0] == 0 && result_round[3] == 0;
  });

  // Round 1: the revived user participates fully.
  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    devs[u]->start_round(1, models[1][u]);
  }
  settle(hub.get(), all(), [&] { return sess.done(); });
  ASSERT_EQ(sess.aggregates().size(), 2u);
  EXPECT_EQ(sess.responders(1),
            (std::vector<std::uint8_t>{1, 1, 1, 1}));

  Network net(params, kSeed);
  const auto want0 = net.run_round(0, models[0], {3});
  EXPECT_EQ(want0, sess.aggregates()[0]);
  net.router().revive(3);
  const auto want1 = net.run_round(1, models[1], {});
  EXPECT_EQ(want1, sess.aggregates()[1]);
}

// ------------------------------------------ uploads two rounds ahead

// The server machine holds two rounds at once (a parity ring keyed by
// round), so an upload tagged round r+2 has no slot of its own: folding
// it would re-key the live round's slot and wipe the uploads already
// summed there. The session drops it like a late frame. Round 0 meets it
// mid-collect (three uploads in), round 1 mid-recovery (all uploads in,
// no response yet); both rounds still complete bit-identical to the
// serial reference.
TEST(SocketTransport, UploadTwoRoundsAheadIsDropped) {
  lsa::protocol::Params params;
  params.num_users = 4;
  params.privacy = 1;
  params.dropout = 1;
  params.model_dim = 60;
  params.validate_and_resolve();

  const std::uint64_t kSeed = 909;
  std::vector<std::vector<std::vector<rep>>> models(2);
  for (std::uint64_t r = 0; r < 2; ++r) {
    for (std::uint32_t u = 0; u < params.num_users; ++u) {
      models[r].push_back(model_for(kSeed, u, r, params.model_dim));
    }
  }

  const SocketAddr addr = SocketAddr::parse("uds://" + fresh_uds_path(7));
  auto hub = SocketTransport::listen(addr);
  RemoteSessionConfig cfg;
  cfg.params = params;
  cfg.rounds = 2;
  RemoteSession sess(*hub, 0, cfg);

  const auto n = static_cast<std::uint32_t>(params.num_users);
  std::vector<std::unique_ptr<SocketTransport>> cts;
  std::vector<std::unique_ptr<UserDevice>> devs;
  for (std::uint32_t u = 0; u < n; ++u) {
    cts.push_back(SocketTransport::connect(addr, 0, u, n));
    devs.push_back(std::make_unique<UserDevice>(u, params, kSeed, *cts[u]));
    cts[u]->set_sink(
        [&, u](const Inbound& in) { devs[u]->handle_view(in.view); });
  }
  std::vector<SocketTransport*> all;
  for (auto& c : cts) all.push_back(c.get());
  const std::vector<rep> stray(params.model_dim, 5);
  // Sends a masked model tagged `round` from `user` and pumps only the hub
  // until the session has been handed it.
  auto send_stray = [&](std::uint32_t user, std::uint64_t round) {
    const std::uint64_t delivered = hub->stats().frames_delivered;
    cts[user]->send_row(MsgType::kMaskedModel, user, n, round,
                        std::span<const rep>(stray));
    settle(hub.get(), {}, [&] {
      return hub->stats().frames_delivered == delivered + 1;
    });
  };

  // Round 0, mid-collect.
  for (std::uint32_t u = 0; u < 3; ++u) {
    devs[u]->start_round(0, models[0][u]);
  }
  settle(hub.get(), all,
         [&] { return sess.machine().arrived(0).size() == 3; });
  send_stray(0, 2);
  EXPECT_EQ(sess.machine().arrived(0).size(), 3u);
  devs[3]->start_round(0, models[0][3]);
  settle(hub.get(), all, [&] { return sess.current_round() == 1; });

  // Round 1, mid-recovery: the hub alone takes every upload in and sends
  // the survivor bitmap before any client reads it.
  for (std::uint32_t u = 0; u < n; ++u) {
    devs[u]->start_round(1, models[1][u]);
  }
  settle(hub.get(), {},
         [&] { return sess.phase() == RemoteSession::Phase::kRecover; });
  send_stray(2, 3);
  settle(hub.get(), all, [&] { return sess.done(); });

  ASSERT_EQ(sess.aggregates().size(), 2u);
  Network net(params, kSeed);
  for (std::uint64_t r = 0; r < 2; ++r) {
    EXPECT_EQ(net.run_round(r, models[r], {}), sess.aggregates()[r])
        << "round " << r;
  }
}

// ----------------------------------------- broadcast buffer ownership

// A hub broadcast to K live connections builds exactly ONE frame; every
// write queue holds a reference to the same pooled block, and the last
// queue to drain recycles it.
TEST(SocketTransport, BroadcastSharesOneBufferAcrossQueues) {
  const SocketAddr addr = SocketAddr::parse("uds://" + fresh_uds_path(4));
  auto hub = SocketTransport::listen(addr);
  SessionHooks hooks;  // pure frame plumbing, no session machine
  hooks.on_frame = [](const Inbound&) {};
  hooks.on_bind = [](std::uint32_t, bool) {};
  hooks.on_disconnect = [](std::uint32_t) {};
  lsa::runtime::Transport& out =
      hub->register_session(7, 3, std::move(hooks));

  std::vector<std::unique_ptr<SocketTransport>> cts;
  std::vector<std::vector<rep>> got(3);
  for (std::uint32_t u = 0; u < 3; ++u) {
    cts.push_back(SocketTransport::connect(addr, 7, u, 3));
    cts[u]->set_sink([&, u](const Inbound& in) {
      got[u].assign(in.view.payload.begin(), in.view.payload.end());
    });
  }
  settle(hub.get(), {cts[0].get(), cts[1].get(), cts[2].get()}, [&] {
    return hub->is_up(7, 0) && hub->is_up(7, 1) && hub->is_up(7, 2);
  });

  hub->pause_writes(true);
  const std::vector<rep> payload = {1, 2, 3, 4, 5};
  const auto before = lsa::transport::snapshot();
  out.broadcast_row(MsgType::kAggregateResult, 3, /*round=*/0,
                    std::span<const rep>(payload), 3);
  const auto after = lsa::transport::snapshot();

  EXPECT_EQ(after.frames_built - before.frames_built, 1u);
  EXPECT_EQ(after.payload_copies - before.payload_copies, 0u);
  EXPECT_EQ(hub->queued_frames(7), 3u);
  // One block, three queue references.
  EXPECT_EQ(hub->pool().outstanding(), 1u);
  EXPECT_EQ(hub->queued_front_ref_count(7, 0), 3u);
  EXPECT_EQ(hub->queued_front_ref_count(7, 1), 3u);
  EXPECT_EQ(hub->queued_front_ref_count(7, 2), 3u);

  hub->pause_writes(false);
  settle(hub.get(), {cts[0].get(), cts[1].get(), cts[2].get()}, [&] {
    return got[0].size() == 5 && got[1].size() == 5 && got[2].size() == 5;
  });
  for (std::uint32_t u = 0; u < 3; ++u) EXPECT_EQ(got[u], payload);
  // All queues drained: the last release recycled the block.
  EXPECT_EQ(hub->pool().outstanding(), 0u);
}

// Frames addressed to a user with no bound connection park at the hub, up
// to the sync fan-in bound plus headroom (2N + 2 + 14, the in-process
// mailbox capacity); the overflow is dropped and counted.
TEST(SocketTransport, ParkedBinHoldsTheSyncFaninBound) {
  const SocketAddr addr = SocketAddr::parse("uds://" + fresh_uds_path(8));
  auto hub = SocketTransport::listen(addr);
  SessionHooks hooks;  // no clients ever connect
  hooks.on_frame = [](const Inbound&) {};
  hooks.on_bind = [](std::uint32_t, bool) {};
  hooks.on_disconnect = [](std::uint32_t) {};
  constexpr std::uint32_t kN = 3;
  lsa::runtime::Transport& out =
      hub->register_session(2, kN, std::move(hooks));

  const std::vector<rep> payload = {1, 2, 3};
  for (std::uint64_t i = 0; i < 2 * kN + 2 + 14 + 5; ++i) {
    out.send_row(MsgType::kSurvivorSet, kN, /*receiver=*/0, /*round=*/i,
                 std::span<const rep>(payload));
  }
  EXPECT_EQ(hub->stats().frames_parked, 22u);
  EXPECT_EQ(hub->stats().frames_dropped, 5u);
  EXPECT_EQ(hub->stats().frames_sent, 0u);
}

// -------------------------------------------------- handshake rejection

TEST(SocketTransport, RejectsBadHandshakes) {
  const SocketAddr addr = SocketAddr::parse("uds://" + fresh_uds_path(5));
  auto hub = SocketTransport::listen(addr);
  SessionHooks hooks;
  hooks.on_frame = [](const Inbound&) {};
  hooks.on_bind = [](std::uint32_t, bool) {};
  hooks.on_disconnect = [](std::uint32_t) {};
  (void)hub->register_session(1, 2, std::move(hooks));

  // Unknown session.
  {
    auto c = SocketTransport::connect(addr, /*session=*/99, 0, 2);
    settle(hub.get(), {c.get()}, [&] { return !c->connected(); });
    EXPECT_FALSE(c->handshaken());
  }
  // User id out of range for the session.
  {
    auto c = SocketTransport::connect(addr, 1, /*user=*/5, 2);
    settle(hub.get(), {c.get()}, [&] { return !c->connected(); });
    EXPECT_FALSE(c->handshaken());
  }
  EXPECT_GE(hub->stats().protocol_errors, 2u);
  // A well-formed handshake still works afterwards.
  {
    auto c = SocketTransport::connect(addr, 1, 0, 2);
    settle(hub.get(), {c.get()}, [&] { return c->handshaken(); });
    EXPECT_TRUE(hub->is_up(1, 0));
  }
}

// ------------------------------------------------ validation accounting

// Frames are validated once, where their bytes enter the process: the hub
// runs parse_frame on each hello and on each frame for its server
// machine, a client on each frame it reads, and nobody on the user->user
// shares the hub relays (their receiving client checks them end to end).
// Over one UDS round, driven on this thread so the counts are exact:
// validations = hub deliveries + client deliveries + the 2N handshake
// frames (N hellos, N welcomes).
TEST(SocketTransport, UdsRoundValidatesEachFrameOnceOffTheSocket) {
  lsa::protocol::Params params;
  params.num_users = 4;
  params.privacy = 1;
  params.dropout = 1;
  params.model_dim = 60;
  params.validate_and_resolve();
  const std::uint64_t kSeed = 31;
  std::vector<std::vector<rep>> models;
  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    models.push_back(model_for(kSeed, u, 0, params.model_dim));
  }

  const auto before = lsa::transport::snapshot();
  const SocketAddr addr = SocketAddr::parse("uds://" + fresh_uds_path(9));
  auto hub = SocketTransport::listen(addr);
  RemoteSessionConfig cfg;
  cfg.params = params;
  cfg.rounds = 1;
  RemoteSession sess(*hub, /*session_id=*/0, cfg);

  std::vector<std::unique_ptr<SocketTransport>> cts;
  std::vector<std::unique_ptr<UserDevice>> devs;
  std::vector<SocketTransport*> all;
  std::vector<std::int64_t> result_round(params.num_users, -1);
  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    cts.push_back(SocketTransport::connect(
        addr, 0, u, static_cast<std::uint32_t>(params.num_users)));
    all.push_back(cts.back().get());
    devs.push_back(std::make_unique<UserDevice>(u, params, kSeed, *cts[u]));
    cts[u]->set_sink([&, u](const Inbound& in) {
      devs[u]->handle_view(in.view);
      if (in.view.type == MsgType::kAggregateResult) {
        result_round[u] = static_cast<std::int64_t>(in.view.round);
      }
    });
  }
  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    devs[u]->start_round(0, models[u]);
  }
  settle(hub.get(), all, [&] {
    if (!sess.done()) return false;
    for (const auto r : result_round) {
      if (r != 0) return false;
    }
    return true;
  });
  const auto after = lsa::transport::snapshot();

  std::uint64_t delivered = hub->stats().frames_delivered;
  for (const auto* c : all) {
    EXPECT_TRUE(c->handshaken());
    delivered += c->stats().frames_delivered;
  }
  EXPECT_EQ(hub->stats().protocol_errors, 0u);
  EXPECT_GT(hub->stats().frames_relayed, 0u);
  EXPECT_EQ(after.frames_validated - before.frames_validated,
            delivered + 2 * params.num_users);

  Network net(params, kSeed);
  EXPECT_EQ(net.run_round(0, models, {}), sess.aggregates().at(0));
}

// ------------------------------------------------- persistent cohorts

TEST(SocketTransport, PersistentCohortTenRoundsOverUds) {
  // A stable 10-round persistent cohort over real sockets: every client
  // device runs its offline encode + share distribution exactly once
  // (counter-enforced per device), the hub-side decode builds its plan
  // exactly once, and every aggregate is bit-identical to the serial
  // Network reference running the same persistent protocol.
  lsa::protocol::Params params;
  params.num_users = 5;
  params.privacy = 1;
  params.dropout = 1;
  params.model_dim = 48;
  params.persistent_cohort = true;
  params.validate_and_resolve();

  const std::uint64_t kSeed = 4242;
  const std::uint64_t kRounds = 10;

  std::vector<std::vector<std::vector<rep>>> models(kRounds);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::uint32_t u = 0; u < params.num_users; ++u) {
      models[r].push_back(model_for(kSeed, u, r, params.model_dim));
    }
  }

  const SocketAddr addr = SocketAddr::parse("uds://" + fresh_uds_path(6));
  auto hub = SocketTransport::listen(addr);
  RemoteSessionConfig cfg;
  cfg.params = params;
  cfg.rounds = kRounds;
  RemoteSession sess(*hub, /*session_id=*/0, cfg);

  std::vector<std::thread> threads;
  std::vector<std::atomic<std::uint64_t>> encodes(params.num_users);
  std::vector<std::atomic<bool>> ok(params.num_users);
  for (auto& o : ok) o.store(false);

  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    threads.emplace_back([&, u] {
      auto t = SocketTransport::connect(
          addr, 0, u, static_cast<std::uint32_t>(params.num_users));
      UserDevice dev(u, params, kSeed, *t);
      std::int64_t result_round = -1;
      t->set_sink([&](const Inbound& in) {
        dev.handle_view(in.view);
        if (in.view.type == MsgType::kAggregateResult) {
          result_round = static_cast<std::int64_t>(in.view.round);
        }
      });
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        dev.start_round(r, models[r][u]);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (result_round < static_cast<std::int64_t>(r)) {
          t->poll(5);
          if (result_round >= static_cast<std::int64_t>(r)) break;
          if (!t->connected() ||
              std::chrono::steady_clock::now() >= deadline) {
            return;  // ok stays false
          }
        }
      }
      encodes[u].store(dev.offline_encodes());
      ok[u].store(true);
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!sess.done() && std::chrono::steady_clock::now() < deadline) {
    hub->poll(20);
  }
  EXPECT_TRUE(sess.done());
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  auto all_ok = [&] {
    for (auto& o : ok) {
      if (!o.load()) return false;
    }
    return true;
  };
  while (!all_ok() && std::chrono::steady_clock::now() < drain_deadline) {
    hub->poll(10);
  }
  for (auto& th : threads) th.join();

  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    ASSERT_TRUE(ok[u].load()) << "client " << u << " failed";
    // THE steady-state invariant: one offline setup per device for the
    // whole 10-round run, not one per round.
    EXPECT_EQ(encodes[u].load(), 1u) << "client " << u;
  }
  // Zero plan rebuilds after round 1 on the hub side.
  const auto st = sess.machine().codec().last_decode_stats();
  EXPECT_EQ(st.full_builds, 1u);
  EXPECT_EQ(st.incremental_patches, 0u);
  EXPECT_TRUE(st.plan_reused);

  ASSERT_EQ(sess.aggregates().size(), kRounds);
  Network net(params, kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    EXPECT_EQ(net.run_round(r, models[r], {}), sess.aggregates()[r])
        << "round " << r;
  }
}

}  // namespace

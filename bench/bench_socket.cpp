// Socket-plane bench: the real-socket backend (epoll over UDS/TCP) against
// the in-process ConcurrentRouter on the same frame traffic.
//
// Two experiments:
//
//   * relay throughput — one client streams F frames of one segment each
//     through the hub to a second client (the user->user relay path, the
//     hot edge of the offline mask exchange). Frames/s and payload MB/s
//     for UDS, TCP and the in-process mailbox baseline; the send side must
//     perform ZERO payload copies (counter-enforced) — frames writev
//     straight from pooled buffers.
//
//   * full rounds — N client threads (own SocketTransport each, the same
//     code path as N processes) run complete LightSecAgg rounds against a
//     daemon-shaped hub + RemoteSession; the aggregates must be
//     bit-identical to the serial runtime::Network at the same seed.
//
// Usage: bench_socket [N] [d] [--smoke] [--json <path>]
// Defaults 100 100000; --smoke shrinks to a CI-sized point (8 users,
// d=4096) — the Release CI job gates BENCH_socket.json through
// check_socket_regression.py / socket_tolerance.json.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_common.h"
#include "crypto/prg.h"
#include "protocol/params.h"
#include "runtime/machines.h"
#include "server/remote_session.h"
#include "transport/concurrent_router.h"
#include "transport/socket/socket_addr.h"
#include "transport/socket/socket_transport.h"
#include "transport/stats.h"

namespace {

using namespace lsa::transport::socket;
using lsa::field::Fp32;
using lsa::runtime::MsgType;
using rep = Fp32::rep;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<rep> model_for(std::uint64_t seed, std::uint32_t user,
                           std::uint64_t round, std::size_t dim) {
  auto sub = lsa::crypto::derive_subseed(
      lsa::crypto::seed_from_u64(seed ^ (0x5eedull +
                                         user * 0x9e3779b97f4a7c15ull)),
      round);
  lsa::crypto::Prg prg(sub);
  return lsa::field::uniform_vector<Fp32>(dim, prg);
}

struct RelayResult {
  double secs = 0;
  double frames_per_s = 0;
  double mbytes_per_s = 0;
  std::uint64_t send_copies = 0;
};

// One client streams `frames` seg_len-word frames through the hub to a
// second client over `url`.
RelayResult relay_socket(const std::string& url, std::size_t frames,
                         std::size_t seg_len) {
  const SocketAddr listen_addr = SocketAddr::parse(url);
  auto hub = SocketTransport::listen(listen_addr);
  SocketAddr addr = listen_addr;
  if (listen_addr.kind == SocketAddr::Kind::kTcp) {
    addr.port = hub->tcp_port();
  }
  SessionHooks hooks;
  hooks.on_frame = [](const Inbound&) {};
  hooks.on_bind = [](std::uint32_t, bool) {};
  hooks.on_disconnect = [](std::uint32_t) {};
  (void)hub->register_session(0, 2, std::move(hooks));

  const auto before = lsa::transport::snapshot();
  std::atomic<bool> stop{false};
  std::thread hub_thread([&] {
    while (!stop.load(std::memory_order_relaxed)) hub->poll(2);
  });

  std::atomic<bool> receiver_ready{false};
  std::atomic<std::size_t> received{0};
  std::thread receiver([&] {
    auto t = SocketTransport::connect(addr, 0, 1, 2);
    t->set_sink([&](const Inbound&) {
      received.fetch_add(1, std::memory_order_relaxed);
    });
    t->wait_handshake(10'000);
    receiver_ready.store(true);
    while (received.load(std::memory_order_relaxed) < frames) t->poll(5);
  });

  std::vector<rep> payload(seg_len);
  for (std::size_t j = 0; j < seg_len; ++j) {
    payload[j] = static_cast<rep>(j % 65521);
  }
  auto sender = SocketTransport::connect(addr, 0, 0, 2);
  sender->wait_handshake(10'000);
  while (!receiver_ready.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < frames; ++i) {
    sender->send_row(MsgType::kEncodedMaskShare, 0, 1, i,
                     std::span<const rep>(payload));
  }
  sender->flush_pending(30'000);
  receiver.join();
  const double secs = secs_since(t0);
  stop.store(true);
  hub_thread.join();

  const auto after = lsa::transport::snapshot();
  RelayResult r;
  r.secs = secs;
  r.frames_per_s = static_cast<double>(frames) / secs;
  r.mbytes_per_s =
      static_cast<double>(frames) * 4.0 * static_cast<double>(seg_len) /
      secs / 1e6;
  r.send_copies = after.payload_copies - before.payload_copies;
  return r;
}

// Same traffic through the in-process ConcurrentRouter (no kernel, no
// framing-from-stream): the upper bound the socket plane is measured
// against.
RelayResult relay_inproc(std::size_t frames, std::size_t seg_len) {
  // One link, with the mailbox bound runtime::Network gives a one-user
  // round.
  lsa::transport::ConcurrentRouter router(
      2, lsa::runtime::sync_fanin_bound(1) + lsa::runtime::kCapacityHeadroom);
  std::vector<rep> payload(seg_len);
  for (std::size_t j = 0; j < seg_len; ++j) {
    payload[j] = static_cast<rep>(j % 65521);
  }
  const auto before = lsa::transport::snapshot();
  const auto t0 = Clock::now();
  std::thread sender([&] {
    for (std::size_t i = 0; i < frames; ++i) {
      router.send_row(MsgType::kEncodedMaskShare, 0, 1, i,
                      std::span<const rep>(payload));
    }
  });
  std::size_t got = 0;
  lsa::transport::Inbound in;
  while (got < frames) {
    if (router.recv_wait(1, in, std::chrono::milliseconds(1000))) ++got;
  }
  const double secs = secs_since(t0);
  sender.join();
  const auto after = lsa::transport::snapshot();
  RelayResult r;
  r.secs = secs;
  r.frames_per_s = static_cast<double>(frames) / secs;
  r.mbytes_per_s =
      static_cast<double>(frames) * 4.0 * static_cast<double>(seg_len) /
      secs / 1e6;
  r.send_copies = after.payload_copies - before.payload_copies;
  return r;
}

struct RoundsResult {
  double secs = 0;
  bool bit_identical = false;
  std::uint64_t send_copies = 0;
};

// N client threads run `rounds` full LightSecAgg rounds against the hub;
// aggregates compared bit-for-bit with the serial reference.
RoundsResult full_rounds(const std::string& url,
                         const lsa::protocol::Params& params,
                         std::uint64_t rounds, std::uint64_t seed) {
  const SocketAddr listen_addr = SocketAddr::parse(url);
  auto hub = SocketTransport::listen(listen_addr);
  SocketAddr addr = listen_addr;
  if (listen_addr.kind == SocketAddr::Kind::kTcp) {
    addr.port = hub->tcp_port();
  }
  lsa::server::RemoteSessionConfig cfg;
  cfg.params = params;
  cfg.rounds = rounds;
  lsa::server::RemoteSession sess(*hub, 0, cfg);

  const auto before = lsa::transport::snapshot();
  const auto t0 = Clock::now();
  // Clients that finished (holding the final result, or given up), and
  // whether any gave up: a timed-out client fails the record.
  std::atomic<std::uint32_t> clients_done{0};
  std::atomic<bool> client_failed{false};
  std::vector<std::thread> threads;
  for (std::uint32_t u = 0; u < params.num_users; ++u) {
    threads.emplace_back([&, u] {
      auto t = SocketTransport::connect(
          addr, 0, u, static_cast<std::uint32_t>(params.num_users));
      lsa::runtime::UserDevice dev(u, params, seed, *t);
      std::int64_t result_round = -1;
      t->set_sink([&](const Inbound& in) {
        dev.handle_view(in.view);
        if (in.view.type == MsgType::kAggregateResult) {
          result_round = static_cast<std::int64_t>(in.view.round);
        }
      });
      for (std::uint64_t r = 0; r < rounds; ++r) {
        dev.start_round(r, model_for(seed, u, r, params.model_dim));
        const auto deadline = Clock::now() + std::chrono::seconds(120);
        while (result_round < static_cast<std::int64_t>(r)) {
          t->poll(5);
          if (!t->connected() || Clock::now() >= deadline) {
            client_failed.store(true);
            ++clients_done;
            return;
          }
        }
      }
      ++clients_done;
    });
  }
  // The session is done once the hub has QUEUED the last result; keep
  // polling until every client holds it (large result frames still need
  // the hub's write-ready flushes).
  const auto deadline = Clock::now() + std::chrono::seconds(300);
  while (clients_done.load() < params.num_users && Clock::now() < deadline) {
    hub->poll(20);
  }
  for (auto& th : threads) th.join();
  RoundsResult r;
  r.secs = secs_since(t0);
  const auto after = lsa::transport::snapshot();
  r.send_copies = after.payload_copies - before.payload_copies;

  if (client_failed.load() || !sess.done() ||
      sess.aggregates().size() != rounds) {
    return r;  // bit_identical stays false
  }
  lsa::runtime::Network net(params, seed);
  r.bit_identical = true;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    std::vector<std::vector<rep>> models;
    for (std::uint32_t u = 0; u < params.num_users; ++u) {
      models.push_back(model_for(seed, u, round, params.model_dim));
    }
    const auto want = net.run_round(round, models, {});
    if (want != sess.aggregates()[round]) r.bit_identical = false;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  lsa::bench::JsonReport json("socket");
  std::string json_path = "BENCH_socket.json";
  bool smoke = false;
  std::size_t n = 100;
  std::size_t d = 100'000;
  std::vector<std::size_t> positional;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else if (argv[a][0] == '-') {
      std::fprintf(stderr,
                   "unknown arg %s (usage: bench_socket [N] [d] [--smoke] "
                   "[--json <path>])\n",
                   argv[a]);
      return 2;
    } else {
      positional.push_back(std::strtoull(argv[a], nullptr, 10));
    }
  }
  if (positional.size() > 0) n = positional[0];
  if (positional.size() > 1) d = positional[1];
  if (smoke) {
    n = 8;
    d = 4096;
  }

  lsa::protocol::Params params;
  params.num_users = n;
  params.privacy = n / 2;
  params.target_survivors = std::max(n / 2 + 1, n * 7 / 10);
  params.dropout = n - params.target_survivors;
  params.model_dim = d;
  params.validate_and_resolve();
  const std::size_t seg_len =
      (d + params.num_segments() - 1) / params.num_segments();
  const std::size_t frames = smoke ? 2'000 : 20'000;

  const std::string uds_url =
      "uds:///tmp/lsa_bench_" + std::to_string(::getpid()) + ".sock";
  const std::string tcp_url = "tcp://127.0.0.1:0";

  std::printf("bench_socket: N=%zu d=%zu seg_len=%zu relay_frames=%zu\n", n,
              d, seg_len, frames);

  const auto inproc = relay_inproc(frames, seg_len);
  std::printf("  relay inproc: %.0f frames/s, %.1f MB/s\n",
              inproc.frames_per_s, inproc.mbytes_per_s);
  json.add("relay_inproc", {{"frames", double(frames)},
                            {"seg_len", double(seg_len)},
                            {"secs", inproc.secs},
                            {"frames_per_s", inproc.frames_per_s},
                            {"mbytes_per_s", inproc.mbytes_per_s}});

  bool failed = false;
  for (const auto& [name, url] :
       {std::pair<std::string, std::string>{"relay_uds", uds_url},
        {"relay_tcp", tcp_url}}) {
    const auto r = relay_socket(url, frames, seg_len);
    const double ratio = r.frames_per_s / inproc.frames_per_s;
    std::printf("  %s: %.0f frames/s, %.1f MB/s (%.3fx inproc), "
                "%llu send copies\n",
                name.c_str(), r.frames_per_s, r.mbytes_per_s, ratio,
                static_cast<unsigned long long>(r.send_copies));
    json.add(name, {{"frames", double(frames)},
                    {"seg_len", double(seg_len)},
                    {"secs", r.secs},
                    {"frames_per_s", r.frames_per_s},
                    {"mbytes_per_s", r.mbytes_per_s},
                    {"send_payload_copies", double(r.send_copies)},
                    {"vs_inproc_fps_ratio", ratio}});
    if (r.send_copies != 0) {
      std::fprintf(stderr, "FAIL: %s performed send-side payload copies\n",
                   name.c_str());
      failed = true;
    }
  }

  const std::uint64_t rounds = 2;
  for (const auto& [name, url] :
       {std::pair<std::string, std::string>{"rounds_uds", uds_url},
        {"rounds_tcp", tcp_url}}) {
    const auto r = full_rounds(url, params, rounds, /*seed=*/42);
    std::printf("  %s: %zu users x %llu rounds in %.2fs, bit_identical=%d, "
                "%llu send copies\n",
                name.c_str(), n, static_cast<unsigned long long>(rounds),
                r.secs, r.bit_identical ? 1 : 0,
                static_cast<unsigned long long>(r.send_copies));
    json.add(name, {{"users", double(n)},
                    {"dim", double(d)},
                    {"rounds", double(rounds)},
                    {"secs", r.secs},
                    {"bit_identical", r.bit_identical ? 1.0 : 0.0},
                    {"send_payload_copies", double(r.send_copies)}});
    if (!r.bit_identical) {
      std::fprintf(stderr, "FAIL: %s aggregates diverged from the serial "
                   "reference\n", name.c_str());
      failed = true;
    }
    if (r.send_copies != 0) {
      std::fprintf(stderr, "FAIL: %s performed send-side payload copies\n",
                   name.c_str());
      failed = true;
    }
  }

  json.write(json_path);
  return failed ? 1 : 0;
}

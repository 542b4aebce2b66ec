// Transport-plane throughput: the seed repo's copying router vs the
// zero-copy ConcurrentRouter, plus the sharded multi-session
// AggregationServer.
//
// Measurements at the paper-scale working point (N = 100 users,
// d = 100k model entries → ~5.7 KB share frames):
//
//   1. frames/s of the offline share fan-out (N*(N-1) share frames, each
//      consumed into an arena row at the receiver):
//        a. the SEED router — a faithful local reproduction of the
//           pre-transport-subsystem path (bitwise CRC-32, global FIFO
//           deque, payload copied into a message, into the frame and back
//           out at delivery). This is the baseline the >=5x acceptance
//           target is measured against;
//        b. ConcurrentRouter, single thread: zero-copy pooled frames;
//        c. ConcurrentRouter, one cohort per pool worker: aggregate MPSC
//           throughput of the sharded plane (scales with cores).
//   2. bytes copied per round, from the global transport counters — the
//      zero-copy path must report ZERO intermediate payload copies
//      (enforced with a hard check, same as tests/transport_test.cpp).
//   3. a full multi-session LightSecAgg round (with dropout at the U
//      boundary) through server::AggregationServer, checked bit-identical
//      against the single-threaded runtime::Network and timed against it.
//
// Usage: bench_transport [N] [d] [sessions] [--smoke] [--json <path>]
// Defaults 100 100000 4; --smoke shrinks to a CI-sized point (the Release
// CI gate runs it and checks BENCH_transport.json against
// bench/transport_tolerance.json via check_transport_regression.py).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "field/flat_matrix.h"
#include "field/random_field.h"
#include "protocol/params.h"
#include "runtime/machines.h"
#include "server/aggregation_server.h"
#include "sys/thread_pool.h"
#include "transport/concurrent_router.h"
#include "transport/stats.h"

namespace {

using lsa::field::Fp32;
using rep = Fp32::rep;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The seed repo's message: header fields plus an owned payload vector.
struct SeedMessage {
  lsa::runtime::MsgType type = lsa::runtime::MsgType::kEncodedMaskShare;
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
  std::uint64_t round = 0;
  std::vector<rep> payload;
};

/// The seed repo's wire path, reproduced byte-for-byte: bitwise CRC over
/// the payload, one fresh heap frame per message, payload copied into the
/// message, into the frame, and back out at delivery.
std::vector<std::uint8_t> seed_serialize(const SeedMessage& m) {
  using namespace lsa::runtime;
  std::vector<std::uint8_t> buf(kHeaderBytes + 4 * m.payload.size());
  const std::uint32_t crc = crc32_reference(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(m.payload.data()),
      4 * m.payload.size()));
  write_header(buf.data(), m.type, m.sender, m.receiver, m.round,
               static_cast<std::uint32_t>(m.payload.size()), crc);
  std::memcpy(buf.data() + kHeaderBytes, m.payload.data(),
              4 * m.payload.size());
  lsa::transport::counters().note_copy(4 * m.payload.size());
  return buf;
}

SeedMessage seed_deserialize(std::span<const std::uint8_t> buf) {
  using namespace lsa::runtime;
  SeedMessage m;
  std::memcpy(&m.sender, buf.data() + 4, 4);
  std::uint32_t n = 0;
  std::memcpy(&n, buf.data() + 20, 4);
  std::uint32_t crc_expected = 0;
  std::memcpy(&crc_expected, buf.data() + 24, 4);
  const std::uint8_t* p = buf.data() + kHeaderBytes;
  const std::uint32_t crc_actual =
      crc32_reference(std::span<const std::uint8_t>(p, 4ull * n));
  if (crc_actual != crc_expected) std::abort();
  m.payload.resize(n);
  std::memcpy(m.payload.data(), p, 4ull * n);
  lsa::transport::counters().note_copy(4ull * n);
  for (const auto v : m.payload) {
    if (!Fp32::is_canonical(v)) std::abort();
  }
  return m;
}

double fanout_seed(std::size_t n, std::size_t seg_len,
                   const lsa::field::FlatMatrix<Fp32>& shares) {
  std::deque<std::vector<std::uint8_t>> queue;  // the seed router's core
  lsa::field::FlatMatrix<Fp32> sink(n, seg_len);
  const auto t0 = Clock::now();
  auto drain = [&] {
    while (!queue.empty()) {
      auto frame = std::move(queue.front());
      queue.pop_front();
      const auto in = seed_deserialize(frame);
      auto dst = sink.row(in.sender);
      std::copy(in.payload.begin(), in.payload.end(), dst.begin());
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      SeedMessage m;
      m.type = lsa::runtime::MsgType::kEncodedMaskShare;
      m.sender = static_cast<std::uint32_t>(i);
      m.receiver = static_cast<std::uint32_t>(j);
      m.payload.assign(shares.row(i).begin(), shares.row(i).end());
      lsa::transport::counters().note_copy(4 * seg_len);
      queue.push_back(seed_serialize(m));
    }
    drain();
  }
  drain();
  return seconds_since(t0);
}

/// One cohort's offline share fan-out: every user ships one seg_len-row to
/// every other user; receivers consume each frame into an arena row.
/// Returns wall time; the copy counters are read by the caller.
double fanout_zero_copy(std::size_t n, std::size_t seg_len,
                        const lsa::field::FlatMatrix<Fp32>& shares) {
  lsa::transport::ConcurrentRouter router(n, 4 * n);
  lsa::field::FlatMatrix<Fp32> sink(n, seg_len);
  const auto t0 = Clock::now();
  lsa::transport::Inbound in;
  auto drain = [&] {
    for (std::size_t r = 0; r < n; ++r) {
      while (router.try_recv(r, in)) {
        auto dst = sink.row(in.view.sender);
        std::copy(in.view.payload.begin(), in.view.payload.end(),
                  dst.begin());
        in.buf.reset();
      }
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      router.send_row(lsa::runtime::MsgType::kEncodedMaskShare,
                      static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(j), 0, shares.row(i));
    }
    drain();
  }
  drain();
  return seconds_since(t0);
}

void print_row(const char* name, std::uint64_t frames, double secs,
               std::uint64_t copies, std::uint64_t copied_bytes,
               double baseline_fps) {
  const double fps = static_cast<double>(frames) / secs;
  std::printf("  %-34s %10.0f frames/s  %6.2fx  %8llu copies  %9.2f MB copied\n",
              name, fps, fps / baseline_fps,
              static_cast<unsigned long long>(copies),
              static_cast<double>(copied_bytes) / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  lsa::bench::JsonReport json("transport");
  std::size_t n = 100, d = 100000, n_sessions = 4;
  bool smoke = false;
  const char* json_path = "BENCH_transport.json";
  std::size_t pos = 0;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else if (argv[a][0] == '-') {
      std::fprintf(stderr, "unknown flag %s (usage: bench_transport [N] [d] "
                   "[sessions] [--smoke] [--json <path>])\n", argv[a]);
      return 2;
    } else {
      const std::size_t v = std::strtoull(argv[a], nullptr, 10);
      if (pos == 0) n = v;
      if (pos == 1) d = v;
      if (pos == 2) n_sessions = v;
      ++pos;
    }
  }
  if (smoke && pos == 0) {
    n = 16;
    d = 2048;
    n_sessions = 2;
  }
  const std::size_t t = n / 10;
  const std::size_t u = (n * 8) / 10;
  const std::size_t seg_len = (d + (u - t) - 1) / (u - t);
  const std::size_t hw = std::max<std::size_t>(
      2, std::thread::hardware_concurrency());

  std::printf("transport bench: N=%zu d=%zu seg_len=%zu (%zu-byte frames), "
              "%zu hw threads\n",
              n, d, seg_len, 4 * seg_len + lsa::runtime::kHeaderBytes, hw);

  // Shared share arena all drivers ship rows from.
  lsa::common::Xoshiro256ss rng(1);
  lsa::field::FlatMatrix<Fp32> shares(n, seg_len);
  for (std::size_t i = 0; i < n; ++i) {
    lsa::field::fill_uniform<Fp32>(shares.row(i), rng);
  }
  const std::uint64_t frames_per_cohort = n * (n - 1);

  std::printf("\n[1] offline share fan-out, %llu frames per cohort\n",
              static_cast<unsigned long long>(frames_per_cohort));

  auto before = lsa::transport::snapshot();
  const double seed_secs = fanout_seed(n, seg_len, shares);
  auto after = lsa::transport::snapshot();
  const double legacy_fps =
      static_cast<double>(frames_per_cohort) / seed_secs;
  print_row("seed router (bitwise CRC) [base]", frames_per_cohort, seed_secs,
            after.payload_copies - before.payload_copies,
            after.payload_bytes_copied - before.payload_bytes_copied,
            legacy_fps);

  before = lsa::transport::snapshot();
  const double zc_secs = fanout_zero_copy(n, seg_len, shares);
  after = lsa::transport::snapshot();
  const std::uint64_t zc_copies = after.payload_copies - before.payload_copies;
  print_row("ConcurrentRouter (zero-copy, 1T)", frames_per_cohort, zc_secs,
            zc_copies, after.payload_bytes_copied - before.payload_bytes_copied,
            legacy_fps);
  if (zc_copies != 0) {
    std::printf("FAIL: zero-copy path performed %llu payload copies\n",
                static_cast<unsigned long long>(zc_copies));
    return 1;
  }
  const double zc_fps = static_cast<double>(frames_per_cohort) / zc_secs;
  std::printf("  zero-copy speedup over the seed router: %.2fx %s\n",
              zc_fps / legacy_fps,
              zc_fps >= 5.0 * legacy_fps ? "(>=5x target met)"
                                         : "(<5x target MISSED)");
  json.add("fanout", {{"n", double(n)},
                      {"d", double(d)},
                      {"seed_router_fps", legacy_fps},
                      {"zero_copy_fps", zc_fps},
                      {"zero_copy_speedup", zc_fps / legacy_fps},
                      {"zero_copy_payload_copies", double(zc_copies)}});

  // Sharded plane: one cohort per pool worker, aggregate throughput.
  {
    lsa::sys::ThreadPool pool(hw);
    before = lsa::transport::snapshot();
    const auto t0 = Clock::now();
    pool.parallel_for(
        hw, [&](std::size_t) { (void)fanout_zero_copy(n, seg_len, shares); },
        /*grain=*/1);
    const double sharded_secs = seconds_since(t0);
    after = lsa::transport::snapshot();
    print_row("ConcurrentRouter (sharded)", frames_per_cohort * hw,
              sharded_secs, after.payload_copies - before.payload_copies,
              after.payload_bytes_copied - before.payload_bytes_copied,
              legacy_fps);
    const double sharded_fps =
        static_cast<double>(frames_per_cohort * hw) / sharded_secs;
    std::printf("  sharded speedup over the seed router: %.2fx\n",
                sharded_fps / legacy_fps);
    json.add("fanout_sharded", {{"workers", double(hw)},
                                {"fps", sharded_fps},
                                {"speedup_vs_seed",
                                 sharded_fps / legacy_fps}});
  }

  // [2] full multi-session rounds through the sharded server, checked
  // bit-identical against the single-threaded Network reference. Dropout
  // sits at the U boundary: exactly N - U users crash after upload.
  std::printf("\n[2] multi-session LightSecAgg rounds, %zu sessions "
              "(N=%zu d=%zu, dropout at U boundary)\n",
              n_sessions, n, d);
  lsa::protocol::Params p;
  p.num_users = n;
  p.privacy = t;
  p.dropout = n - u;
  p.target_survivors = u;
  p.model_dim = d;

  std::vector<std::size_t> crash;
  for (std::size_t k = 0; k < n - u; ++k) crash.push_back(k * 2 + 1);

  std::vector<std::vector<std::vector<rep>>> model_sets(n_sessions);
  for (std::size_t s = 0; s < n_sessions; ++s) {
    lsa::common::Xoshiro256ss mrng(900 + s);
    model_sets[s].resize(n);
    for (auto& m : model_sets[s]) {
      m = lsa::field::uniform_vector<Fp32>(d, mrng);
    }
  }

  double serial_secs = 0;
  std::vector<std::vector<rep>> expected(n_sessions);
  {
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < n_sessions; ++s) {
      lsa::runtime::Network net(p, /*seed=*/70 + s);
      expected[s] = net.run_round(0, model_sets[s], crash);
    }
    serial_secs = seconds_since(t0);
  }
  std::printf("  single-threaded Network x%zu:      %8.3f s\n", n_sessions,
              serial_secs);

  lsa::sys::ThreadPool pool(hw);
  lsa::server::AggregationServer server(&pool);
  std::vector<lsa::server::AggregationServer::RoundWork> works;
  for (std::size_t s = 0; s < n_sessions; ++s) {
    auto pp = p;
    pp.exec.pool = &pool;
    const auto id = server.open_session(
        lsa::server::SessionConfig{.params = pp, .seed = 70 + s});
    works.push_back({id, 0, &model_sets[s], crash});
  }
  before = lsa::transport::snapshot();
  const auto t0 = Clock::now();
  const auto results = server.run_rounds(works);
  const double sharded_secs = seconds_since(t0);
  after = lsa::transport::snapshot();
  std::printf("  sharded AggregationServer:        %8.3f s  (%.2fx)\n",
              sharded_secs, serial_secs / sharded_secs);
  std::printf("  send-side payload copies:         %8llu (must be 0)\n",
              static_cast<unsigned long long>(after.payload_copies -
                                              before.payload_copies));
  for (std::size_t s = 0; s < n_sessions; ++s) {
    if (results[s] != expected[s]) {
      std::printf("FAIL: session %zu aggregate differs from the "
                  "single-threaded reference\n", s);
      return 1;
    }
  }
  if (after.payload_copies != before.payload_copies) {
    std::printf("FAIL: sharded round performed intermediate payload "
                "copies\n");
    return 1;
  }
  std::printf("  aggregates bit-identical to the serial reference: OK\n");
  json.add("multi_session",
           {{"sessions", double(n_sessions)},
            {"serial_s", serial_secs},
            {"sharded_s", sharded_secs},
            {"speedup", serial_secs / sharded_secs},
            {"send_side_payload_copies",
             double(after.payload_copies - before.payload_copies)},
            {"bit_identical", 1.0}});
  json.write(json_path);
  return 0;
}

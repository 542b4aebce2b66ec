// End-to-end LightSecAgg round benchmark.
//
// Drives closed-loop rounds through the production entry points and checks
// every aggregate against the plaintext sum of all N models mod p (crash-
// after-upload users are included, so the sum is always over all N). The
// loop is closed with one round outstanding per session: a sync FL client's
// round r+1 model depends on round r's aggregate, so each model advances by
// the aggregate it just received.
//
//   * in-process workloads: server::AggregationServer::run_rounds, one sync
//     session, on a sys::ThreadPool of 3 workers plus the calling thread;
//   * socket workloads: server::RemoteSession on a SocketTransport hub over
//     TCP loopback — one hub thread, and one client thread that owns
//     all N SocketTransport/UserDevice clients.
//
// Every layer is timed from outside, around its public calls. With --trace 1
// the in-process round body (Session::run_round) is driven call by call in
// the same order, and the socket hub records when its session seals and
// finishes each traced round; traced and untraced rounds alternate, so the
// run also measures the tracing overhead.
//
// Usage: lsa_e2e --workload W --seed S --seconds X --trace 0|1
//                [--smoke] [--trace-out PATH]
// The last stdout line is one JSON object: correct / attempted / failed and
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// bench/e2e/run.py builds this binary and is the command to run.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coding/mask_codec.h"
#include "common/rng.h"
#include "crypto/prg.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/random_field.h"
#include "protocol/params.h"
#include "runtime/machines.h"
#include "server/aggregation_server.h"
#include "server/remote_session.h"
#include "sys/thread_pool.h"
#include "transport/socket/socket_addr.h"
#include "transport/socket/socket_transport.h"
#include "transport/stats.h"

namespace {

using Fp = lsa::field::Fp32;
using rep = Fp::rep;
using Clock = std::chrono::steady_clock;
using Models = std::vector<std::vector<rep>>;
using lsa::transport::socket::SocketAddr;
using lsa::transport::socket::SocketTransport;

constexpr std::size_t kWarmupRounds = 3;
/// Set-ups per run; setup_s is their median. With one set-up per run,
/// setup_s on mnist-n200-p10 spread by 26% between runs (12.2 to 17.5 s).
/// In-process, each set-up's session then runs 1/kSetups of the timed
/// rounds, so they are spread over the whole run: with every timed round on
/// the last session, round_s.p50 on mnist-n200-p10 spread by up to 28%.
constexpr std::size_t kSetups = 3;
/// round_s.p90 is read at the highest quantile that leaves this many samples
/// above it, capped at 0.9 (and floored at the median).
constexpr double kTailSamples = 10.0;
constexpr double kRoundDeadlineS = 60.0;
/// In-process pool: 3 workers plus the calling thread = 4 threads.
constexpr std::size_t kPoolWorkers = 3;
constexpr std::size_t kProbeReps = 5;

struct Workload {
  const char* name;
  bool socket;
  bool persistent;
  std::size_t n, t, u, d;
  /// Fresh crash-after-upload users per round (in-process only).
  std::size_t crashes;
  /// Socket only: timed rounds per hub session. RemoteSession keeps every
  /// aggregate it produced, so a fixed count per session keeps peak RSS
  /// independent of how fast rounds run.
  std::size_t session_rounds;
};

// Why each workload exists is recorded in bench/e2e/README.md.
constexpr Workload kWorkloads[] = {
    {"mnist-n200-p10", false, false, 200, 100, 140, 7850, 20, 0},
    {"femnist-n50-p30-persistent", false, true, 50, 25, 35, 1206590, 15, 0},
    {"tcp-femnist-n4", true, false, 4, 1, 3, 1206590, 0, 10},
    {"tcp-mnist-n4", true, false, 4, 1, 3, 7850, 0, 1000},
};

// --smoke: the same four code paths at tiny shapes.
constexpr Workload kSmokeWorkloads[] = {
    {"mnist-n200-p10", false, false, 20, 10, 14, 500, 2, 0},
    {"femnist-n50-p30-persistent", false, true, 10, 5, 7, 20000, 3, 0},
    {"tcp-femnist-n4", true, false, 4, 1, 3, 20000, 0, 5},
    {"tcp-mnist-n4", true, false, 4, 1, 3, 500, 0, 50},
};

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The quantile round_s.p90 reports for n samples: 0.9 once n >= 100.
double tail_q(std::size_t n) {
  return std::clamp(1.0 - kTailSamples / static_cast<double>(n), 0.5, 0.9);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

lsa::protocol::Params params_for(const Workload& w) {
  lsa::protocol::Params p;
  p.num_users = w.n;
  p.privacy = w.t;
  p.target_survivors = w.u;
  p.dropout = w.n - w.u;
  p.model_dim = w.d;
  p.persistent_cohort = w.persistent;
  return p;
}

// ----------------------------------------------------------------- inputs

Models initial_models(const Workload& w, std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ull + 0x6d6f64ull);
  Models m(w.n);
  for (auto& v : m) v = lsa::field::uniform_vector<Fp>(w.d, rng);
  return m;
}

/// Runs fn(begin, end) over [0, n) on the pool when there is one.
template <class Fn>
void for_blocks(lsa::sys::ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr) {
    fn(std::size_t{0}, n);
    return;
  }
  pool->parallel_for_blocked(n, fn, /*grain=*/4096);
}

/// The plaintext reference: sum of every model mod p, with plain 64-bit
/// adds so the check does not lean on the library's field kernels.
void plain_sum(const Models& m, std::vector<rep>& out,
               lsa::sys::ThreadPool* pool) {
  const std::size_t d = m.front().size();
  out.assign(d, 0);
  for_blocks(pool, d, [&](std::size_t b, std::size_t e) {
    std::vector<std::uint64_t> acc(e - b, 0);
    for (const auto& v : m) {
      for (std::size_t k = b; k < e; ++k) acc[k - b] += v[k];
    }
    for (std::size_t k = b; k < e; ++k) {
      out[k] = static_cast<rep>(acc[k - b] % Fp::modulus);
    }
  });
}

/// Closed loop: every model advances by the aggregate it just received.
void advance_models(Models& m, const std::vector<rep>& agg,
                    lsa::sys::ThreadPool* pool) {
  for_blocks(pool, agg.size(), [&](std::size_t b, std::size_t e) {
    for (auto& v : m) {
      for (std::size_t k = b; k < e; ++k) {
        v[k] = static_cast<rep>(
            (static_cast<std::uint64_t>(v[k]) + agg[k]) % Fp::modulus);
      }
    }
  });
}

std::vector<std::size_t> draw_crashes(lsa::common::Xoshiro256ss& rng,
                                      std::size_t n, std::size_t k) {
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(rng.next_below(n - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------------------------------------------------------------- tracing

struct Span {
  const char* name;
  std::int32_t parent;   ///< index into the span list, -1 = none
  std::uint32_t thread;  ///< 0 = main thread, 1 = hub thread
  std::uint64_t round;   ///< run-wide round id
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// In-memory span list, written out once the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  void reserve(std::size_t n) { spans_.reserve(n); }

  std::int32_t add(const char* name, std::int32_t parent, std::uint64_t round,
                   Clock::time_point a, Clock::time_point b,
                   std::uint32_t thread = 0) {
    spans_.push_back({name, parent, thread, round, ns(a), ns(b)});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is set later by close(), so children recorded
  /// in between can name it as their parent.
  std::int32_t open(const char* name, std::int32_t parent, std::uint64_t round,
                    Clock::time_point a) {
    return add(name, parent, round, a, a);
  }
  void close(std::int32_t idx, Clock::time_point b) {
    spans_[static_cast<std::size_t>(idx)].end_ns = ns(b);
  }
  void append(const std::vector<Span>& more) {
    spans_.insert(spans_.end(), more.begin(), more.end());
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// One timed round. The phase fields tile the round at the boundaries both
/// paths can observe: t0 start; t1 every device has started (offline encode
/// + share sends + masked upload); t2 the server has sealed U1; t3 the
/// aggregate is computed; t4 every device holds it. Only traced rounds
/// fill anything but round_s.
struct RoundRec {
  double round_s = 0.0;
  bool traced = false;
  double start_s = 0.0;     ///< t0 -> t1
  double fanin_s = 0.0;     ///< t1 -> t2
  double recovery_s = 0.0;  ///< t2 -> t3, minus decode
  double decode_s = 0.0;
  double decode_setup_s = 0.0;
  double result_s = 0.0;    ///< t3 -> t4
  double top_spans_s = 0.0; ///< time inside the round's top-level spans
  double user_max_over_mean = 0.0;
  int plan = 0;             ///< 0 built, 1 patched, 2 reused
  // In-process only.
  double seal_s = 0.0;
  double finish_self_s = 0.0;
  // Socket only.
  double hub_busy_s = 0.0;
  double poll_busy_s = 0.0;
};

int plan_kind(const lsa::coding::MaskCodec<Fp>::DecodeStats& st) {
  return st.plan_patched ? 1 : st.plan_reused ? 2 : 0;
}

double max_over_mean(
    const std::vector<std::pair<Clock::time_point, Clock::time_point>>& s) {
  double mx = 0.0;
  double sum = 0.0;
  for (const auto& [a, b] : s) {
    mx = std::max(mx, secs(a, b));
    sum += secs(a, b);
  }
  return ratio(mx * static_cast<double>(s.size()), sum);
}

/// Counter deltas over the timed rounds of every segment.
struct Counts {
  std::uint64_t frames_built = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_copies = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_reuses = 0;
  std::uint64_t offline_encodes = 0;
  // In-process: the session router's drops over the timed rounds. Socket:
  // like the hub counters below, read once the hub thread has stopped, so
  // they cover every round the hub served (hub_rounds), warm-up included.
  std::uint64_t frames_dropped = 0;
  std::uint64_t hub_rounds = 0;
  std::uint64_t frames_relayed = 0;
  std::uint64_t frames_parked = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t disconnects = 0;

  void add_transport(const lsa::transport::CountersSnapshot& a,
                     const lsa::transport::CountersSnapshot& b) {
    frames_built += b.frames_built - a.frames_built;
    payload_bytes += b.payload_bytes_framed - a.payload_bytes_framed;
    payload_copies += b.payload_copies - a.payload_copies;
    pool_allocs += b.pool_allocs - a.pool_allocs;
    pool_reuses += b.pool_reuses - a.pool_reuses;
  }
};

struct Run {
  const Workload& w;
  std::uint64_t seed;
  bool trace;
  Tracer tracer;
  Models models;
  std::vector<rep> expected;
  lsa::common::Xoshiro256ss crash_rng;
  std::vector<double> setup_s;
  std::vector<double> construct_s;
  std::vector<RoundRec> timed;
  /// Socket: wall time of the timed loops so far (sets the session count).
  double timed_wall_s = 0.0;
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t next_round_id = 0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> user_slots;

  Run(const Workload& wl, std::uint64_t s, bool tr)
      : w(wl),
        seed(s),
        trace(tr),
        tracer(Clock::now()),
        models(initial_models(wl, s)),
        crash_rng(s ^ 0xc7a5'4e5ull),
        user_slots(wl.n) {
    if (trace) tracer.reserve(std::size_t{1} << 16);
  }

  [[nodiscard]] bool ok() const { return failed == 0; }

  void fail(const char* what) {
    ++failed;
    std::fprintf(stderr, "lsa_e2e: %s: round failed: %s\n", w.name, what);
  }
};

// ------------------------------------------------------------ in-process

/// Session::run_round's body through the same public calls in the same
/// order, with a span around each call.
std::vector<rep> traced_inproc_round(Run& run, lsa::server::Session& sess,
                                     std::uint64_t r,
                                     const std::vector<std::size_t>& crashes,
                                     RoundRec& rec) {
  const lsa::field::simd::ScopedSimdPolicy simd_guard(sess.params().simd);
  Tracer& tr = run.tracer;
  const std::uint64_t id = run.next_round_id++;
  const std::size_t n = run.w.n;
  auto& slots = run.user_slots;
  double top = 0.0;
  auto span = [&](const char* name, std::int32_t root, Clock::time_point a,
                  Clock::time_point b) {
    tr.add(name, root, id, a, b);
    top += secs(a, b);
  };

  const auto t0 = Clock::now();
  const std::int32_t root = tr.open("round", -1, id, t0);
  sess.params().exec.run(n, [&](std::size_t i) {
    slots[i].first = Clock::now();
    sess.user(i).start_round(r, std::span<const rep>(run.models[i]));
    slots[i].second = Clock::now();
  });
  const auto t1 = Clock::now();
  const std::int32_t start = tr.add("user_start", root, id, t0, t1);
  top += secs(t0, t1);
  for (std::size_t i = 0; i < n; ++i) {
    tr.add("user_start.device", start, id, slots[i].first, slots[i].second);
  }

  const auto a1 = Clock::now();
  sess.pump();
  const auto b1 = Clock::now();
  span("pump.fanin", root, a1, b1);

  const auto a2 = Clock::now();
  for (const auto i : crashes) sess.router().crash(i);
  const auto b2 = Clock::now();
  span("crash", root, a2, b2);

  const auto a3 = Clock::now();
  sess.server().begin_recovery(r);
  const auto t2 = Clock::now();
  span("seal", root, a3, t2);

  const auto a4 = Clock::now();
  sess.pump();
  const auto b4 = Clock::now();
  span("pump.recovery", root, a4, b4);

  const auto a5 = Clock::now();
  auto result = sess.server().finish_round(r);
  const auto t3 = Clock::now();
  span("finish", root, a5, t3);
  const auto st = sess.server().codec().last_decode_stats();

  const auto a6 = Clock::now();
  sess.pump();
  const auto t4 = Clock::now();
  span("pump.result", root, a6, t4);
  tr.close(root, t4);

  rec.traced = true;
  rec.round_s = secs(t0, t4);
  rec.start_s = secs(t0, t1);
  rec.fanin_s = secs(t1, t2);
  rec.decode_s = st.setup_s + st.stream_s;
  rec.decode_setup_s = st.setup_s;
  rec.recovery_s = secs(t2, t3) - rec.decode_s;
  rec.result_s = secs(t3, t4);
  rec.top_spans_s = top;
  rec.user_max_over_mean = max_over_mean(slots);
  rec.plan = plan_kind(st);
  rec.seal_s = secs(a3, t2);
  rec.finish_self_s = secs(a5, t3) - rec.decode_s;
  return result;
}

/// One closed-loop round; false once it failed.
bool inproc_round(Run& run, lsa::server::AggregationServer& server,
                  std::uint64_t sid, std::uint64_t r, bool timed, bool traced,
                  lsa::sys::ThreadPool& pool) {
  auto& sess = server.session(sid);
  const auto crashes = draw_crashes(run.crash_rng, run.w.n, run.w.crashes);
  ++run.attempted;
  RoundRec rec;
  std::vector<rep> agg;
  try {
    if (traced) {
      agg = traced_inproc_round(run, sess, r, crashes, rec);
    } else {
      const auto t0 = Clock::now();
      auto out = server.run_rounds({{sid, r, &run.models, crashes}});
      rec.round_s = secs(t0, Clock::now());
      agg = std::move(out.front());
    }
  } catch (const std::exception& e) {
    run.fail(e.what());
    return false;
  }
  for (const auto i : crashes) sess.router().revive(i);
  plain_sum(run.models, run.expected, &pool);
  if (agg != run.expected) {
    run.fail("aggregate differs from the plaintext sum");
    return false;
  }
  if (rec.round_s > kRoundDeadlineS) {
    run.fail("missed the round deadline");
    return false;
  }
  if (timed) run.timed.push_back(rec);
  advance_models(run.models, agg, &pool);
  return true;
}

std::uint64_t offline_encodes(lsa::server::Session& sess, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += sess.user(i).offline_encodes();
  return total;
}

/// One set-up (session + warm-up rounds), then `timed_s` of timed rounds on
/// that session (at least one). Traced runs alternate traced and untraced
/// rounds.
void inproc_segment(Run& run, lsa::sys::ThreadPool& pool, double timed_s) {
  auto params = params_for(run.w);
  params.exec.pool = &pool;
  lsa::server::AggregationServer server(&pool, /*num_shards=*/1);

  const auto s0 = Clock::now();
  const std::uint64_t sid = server.open_session({params, run.seed});
  run.construct_s.push_back(secs(s0, Clock::now()));
  std::uint64_t r = 0;
  for (; r < kWarmupRounds; ++r) {
    if (!inproc_round(run, server, sid, r, false, false, pool)) return;
  }
  run.setup_s.push_back(secs(s0, Clock::now()));

  auto& sess = server.session(sid);
  const auto before = lsa::transport::snapshot();
  const std::uint64_t enc0 = offline_encodes(sess, run.w.n);
  const std::uint64_t drop0 = sess.router().frames_dropped();
  const auto w0 = Clock::now();
  for (std::size_t k = 0; k == 0 || secs(w0, Clock::now()) < timed_s;
       ++k, ++r) {
    const bool traced = run.trace && k % 2 == 1;
    if (!inproc_round(run, server, sid, r, true, traced, pool)) return;
  }
  run.counts.add_transport(before, lsa::transport::snapshot());
  run.counts.offline_encodes += offline_encodes(sess, run.w.n) - enc0;
  run.counts.frames_dropped += sess.router().frames_dropped() - drop0;
}

// ---------------------------------------------------------------- socket

struct Client {
  std::unique_ptr<SocketTransport> t;
  std::unique_ptr<lsa::runtime::UserDevice> dev;
  std::int64_t result_round = -1;
};

/// When the hub's session sealed and finished each round, stamped by the
/// hub thread right after the poll() call in which it happened.
struct HubStamp {
  std::atomic<std::int64_t> seal_ns{-1};
  std::atomic<std::int64_t> done_ns{-1};  ///< release: publishes the rest
  double decode_s = 0.0;
  double decode_setup_s = 0.0;
  int plan = 0;
};

/// State shared by the hub thread and the client thread.
struct HubShared {
  explicit HubShared(std::size_t rounds) : stamps(new HubStamp[rounds]) {}
  std::unique_ptr<HubStamp[]> stamps;
  /// Set by the client thread for the length of a traced round; the hub
  /// times and stamps only the polls that begin while it is set.
  std::atomic<bool> tracing{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<std::int64_t> busy_ns{0};  ///< time in polls that did work
  std::exception_ptr error;  ///< written before failed's release store
  std::vector<Span> spans;   ///< hub-thread spans, merged after join
};

/// The hub thread: spins on poll(0). During a traced round it times every
/// poll that handled at least one event and stamps the session's phase
/// changes; rounds finished in between are stamped late, and never read.
void hub_loop(SocketTransport& hub, const lsa::server::RemoteSession& sess,
              HubShared& sh, const Tracer& tr, std::uint64_t round_base) {
  std::uint64_t sealed = 0;  // rounds whose seal is stamped
  std::uint64_t done = 0;    // rounds whose completion is stamped
  try {
    while (!sh.stop.load(std::memory_order_acquire)) {
      if (!sh.tracing.load(std::memory_order_acquire)) {
        hub.poll(0);
        continue;
      }
      const auto a = Clock::now();
      const std::uint64_t round = sess.current_round();
      if (hub.poll(0) == 0) continue;
      const auto b = Clock::now();
      const std::int64_t b_ns = tr.ns(b);
      // relaxed: a sum read as per-round deltas, ordered by nothing.
      sh.busy_ns.fetch_add(b_ns - tr.ns(a), std::memory_order_relaxed);
      sh.spans.push_back(
          {"hub.poll", -1, 1, round_base + round, tr.ns(a), b_ns});
      if (sess.phase() == lsa::server::RemoteSession::Phase::kRecover &&
          sealed <= sess.current_round()) {
        sh.stamps[sess.current_round()].seal_ns.store(
            b_ns, std::memory_order_release);
        sealed = sess.current_round() + 1;
      }
      while (done < sess.aggregates().size()) {
        HubStamp& s = sh.stamps[done];
        if (sealed <= done) {  // sealed and finished within one poll
          s.seal_ns.store(b_ns, std::memory_order_release);
        }
        const auto st = sess.machine().codec().last_decode_stats();
        s.decode_s = st.setup_s + st.stream_s;
        s.decode_setup_s = st.setup_s;
        s.plan = plan_kind(st);
        s.done_ns.store(b_ns, std::memory_order_release);
        sealed = std::max(sealed, ++done);
      }
    }
  } catch (...) {
    sh.error = std::current_exception();
    sh.failed.store(true, std::memory_order_release);
  }
}

/// Stops and joins the hub thread on every exit path.
class HubThread {
 public:
  HubThread(SocketTransport& hub, const lsa::server::RemoteSession& sess,
            HubShared& sh, const Tracer& tr, std::uint64_t round_base)
      : sh_(sh),
        th_([&hub, &sess, &sh, &tr, round_base] {
          hub_loop(hub, sess, sh, tr, round_base);
        }) {}
  ~HubThread() { stop(); }
  HubThread(const HubThread&) = delete;
  HubThread& operator=(const HubThread&) = delete;

  void stop() {
    sh_.stop.store(true, std::memory_order_release);
    if (th_.joinable()) th_.join();
  }

 private:
  HubShared& sh_;
  std::thread th_;
};

bool socket_round(Run& run, std::vector<std::unique_ptr<Client>>& clients,
                  HubShared& sh, std::uint64_t r, bool timed, bool traced) {
  ++run.attempted;
  Tracer& tr = run.tracer;
  const std::uint64_t id = run.next_round_id++;
  RoundRec rec;
  double busy = 0.0;
  if (traced) sh.tracing.store(true, std::memory_order_release);
  const std::int64_t hub0 = sh.busy_ns.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  const std::int32_t root = traced ? tr.open("round", -1, id, t0) : -1;
  try {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (traced) run.user_slots[i].first = Clock::now();
      clients[i]->dev->start_round(r,
                                   std::span<const rep>(run.models[i]));
      if (traced) run.user_slots[i].second = Clock::now();
    }
    const auto t1 = Clock::now();
    if (traced) {
      const std::int32_t start = tr.add("user_start", root, id, t0, t1);
      for (std::size_t i = 0; i < clients.size(); ++i) {
        tr.add("user_start.device", start, id, run.user_slots[i].first,
               run.user_slots[i].second);
      }
      rec.start_s = secs(t0, t1);
      rec.user_max_over_mean = max_over_mean(run.user_slots);
    }
    // Drain: every client must hold this round's result; a client that
    // misses it by the deadline fails the round. Traced, the whole loop is
    // one span and the client polls that handled events are its children;
    // the rest of it is the client thread waiting.
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(kRoundDeadlineS));
    const auto d0 = Clock::now();
    const std::int32_t drain = traced ? tr.open("drain", root, id, d0) : -1;
    for (;;) {
      bool all = true;
      for (const auto& c : clients) {
        all = all && c->result_round >= static_cast<std::int64_t>(r);
      }
      if (all) break;
      for (auto& c : clients) {
        if (!traced) {
          c->t->poll(0);
        } else {
          const auto a = Clock::now();
          const std::size_t events = c->t->poll(0);
          const auto b = Clock::now();
          if (events > 0) {
            busy += secs(a, b);
            tr.add("client.poll", drain, id, a, b);
          }
        }
        if (!c->t->connected()) throw lsa::Error("client lost its link");
      }
      if (sh.failed.load(std::memory_order_acquire)) {
        std::rethrow_exception(sh.error);
      }
      if (Clock::now() >= deadline) {
        throw lsa::Error("a client missed the round deadline");
      }
    }
    const auto t4 = Clock::now();
    rec.round_s = secs(t0, t4);
    if (traced) {
      tr.close(drain, t4);
      tr.close(root, t4);
      HubStamp& s = sh.stamps[r];
      while (s.done_ns.load(std::memory_order_acquire) < 0) {
        if (sh.failed.load(std::memory_order_acquire)) {
          std::rethrow_exception(sh.error);
        }
        std::this_thread::yield();
      }
      // Hub stamps are taken when its poll() returns, so they may trail
      // the clients' view by that call's remainder: clamp into order.
      const std::int64_t n1 = tr.ns(t1);
      const std::int64_t n4 = tr.ns(t4);
      const std::int64_t n3 =
          std::clamp(s.done_ns.load(std::memory_order_relaxed), n1, n4);
      const std::int64_t n2 =
          std::clamp(s.seal_ns.load(std::memory_order_relaxed), n1, n3);
      rec.traced = true;
      rec.fanin_s = 1e-9 * static_cast<double>(n2 - n1);
      rec.decode_s = s.decode_s;
      rec.decode_setup_s = s.decode_setup_s;
      rec.recovery_s = 1e-9 * static_cast<double>(n3 - n2) - s.decode_s;
      rec.result_s = 1e-9 * static_cast<double>(n4 - n3);
      rec.plan = s.plan;
      rec.poll_busy_s = busy;
      rec.top_spans_s = rec.start_s + secs(d0, t4);
      rec.hub_busy_s =
          1e-9 * static_cast<double>(
                     sh.busy_ns.load(std::memory_order_relaxed) - hub0);
      sh.tracing.store(false, std::memory_order_release);
    }
  } catch (const std::exception& e) {
    run.fail(e.what());
    return false;
  }
  plain_sum(run.models, run.expected, nullptr);
  for (const auto& c : clients) {
    const auto& got = c->dev->last_result();
    if (!got.has_value() || *got != run.expected) {
      run.fail("a client's aggregate differs from the plaintext sum");
      return false;
    }
  }
  if (timed) run.timed.push_back(rec);
  advance_models(run.models, run.expected, nullptr);
  return true;
}

/// One hub session: set-up (listen, session, N client connects and
/// handshakes, warm-up rounds), then w.session_rounds timed rounds.
void socket_segment(Run& run) {
  const Workload& w = run.w;
  const auto params = params_for(w);
  const std::size_t rounds = kWarmupRounds + w.session_rounds;
  HubShared sh(rounds);

  const auto s0 = Clock::now();
  auto hub = SocketTransport::listen(SocketAddr::parse("tcp://127.0.0.1:0"));
  SocketAddr addr = SocketAddr::parse("tcp://127.0.0.1:0");
  addr.port = hub->tcp_port();
  lsa::server::RemoteSessionConfig cfg;
  cfg.params = params;
  cfg.rounds = rounds;
  lsa::server::RemoteSession sess(*hub, /*session_id=*/0, cfg);
  HubThread hub_thread(*hub, sess, sh, run.tracer, run.next_round_id);

  std::vector<std::unique_ptr<Client>> clients;
  for (std::uint32_t u = 0; u < w.n; ++u) {
    auto c = std::make_unique<Client>();
    c->t = SocketTransport::connect(addr, 0, u,
                                    static_cast<std::uint32_t>(w.n));
    c->dev = std::make_unique<lsa::runtime::UserDevice>(u, params, run.seed,
                                                        *c->t);
    Client* cp = c.get();
    c->t->set_sink([cp](const lsa::transport::socket::Inbound& in) {
      cp->dev->handle_view(in.view);
      if (in.view.type == lsa::runtime::MsgType::kAggregateResult) {
        cp->result_round = static_cast<std::int64_t>(in.view.round);
      }
    });
    clients.push_back(std::move(c));
  }
  for (auto& c : clients) c->t->wait_handshake(10'000);
  run.construct_s.push_back(secs(s0, Clock::now()));
  std::uint64_t r = 0;
  for (; r < kWarmupRounds; ++r) {
    if (!socket_round(run, clients, sh, r, false, false)) return;
  }
  run.setup_s.push_back(secs(s0, Clock::now()));

  auto encodes = [&] {
    std::uint64_t total = 0;
    for (const auto& c : clients) total += c->dev->offline_encodes();
    return total;
  };
  const auto before = lsa::transport::snapshot();
  const std::uint64_t enc0 = encodes();
  const auto w0 = Clock::now();
  for (std::size_t k = 0; k < w.session_rounds; ++k, ++r) {
    const bool traced = run.trace && k % 2 == 1;
    if (!socket_round(run, clients, sh, r, true, traced)) return;
  }
  run.timed_wall_s += secs(w0, Clock::now());
  run.counts.add_transport(before, lsa::transport::snapshot());
  run.counts.offline_encodes += encodes() - enc0;

  hub_thread.stop();
  const auto& hs = hub->stats();
  run.counts.hub_rounds += rounds;
  run.counts.frames_dropped += hs.frames_dropped;
  run.counts.frames_relayed += hs.frames_relayed;
  run.counts.frames_parked += hs.frames_parked;
  run.counts.protocol_errors += hs.protocol_errors;
  run.counts.disconnects += hs.disconnects;
  run.tracer.append(sh.spans);
}

// ----------------------------------------------------------------- probes

/// Median of kProbeReps timings of fn().
template <class Fn>
double probe(Fn&& fn) {
  std::vector<double> t;
  for (std::size_t k = 0; k < kProbeReps; ++k) {
    const auto a = Clock::now();
    fn();
    t.push_back(secs(a, Clock::now()));
  }
  return median(std::move(t));
}

/// Probe results land here so the timed calls cannot be optimized away.
volatile std::uint64_t g_probe_sink = 0;

struct Probes {
  double codec_construct_s = 0.0;
  double mask_prg_s = 0.0;
  double encode_one_s = 0.0;
};

/// Single-layer calls at the workload's shape, timed in isolation.
Probes run_probes(const Workload& w, std::uint64_t seed) {
  Probes p;
  std::uint64_t sink = 0;
  p.codec_construct_s = probe([&] {
    const lsa::coding::MaskCodec<Fp> c(w.n, w.u, w.t, w.d);
    sink += c.segment_len();
  });
  lsa::crypto::Prg prg(lsa::crypto::seed_from_u64(seed));
  std::vector<rep> mask;
  p.mask_prg_s = probe([&] {
    mask = lsa::field::uniform_vector<Fp>(w.d, prg);
    sink += mask[0];
  });
  const lsa::coding::MaskCodec<Fp> codec(w.n, w.u, w.t, w.d);
  lsa::field::FlatMatrix<Fp> arena(w.n, codec.segment_len());
  p.encode_one_s = probe([&] {
    codec.encode_into(std::span<const rep>(mask), prg, arena, 0, 1, 4096);
    sink += arena.row(0)[0];
  });
  g_probe_sink = sink;
  return p;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<double> pick(const std::vector<RoundRec>& rs, bool traced,
                         double RoundRec::*field) {
  std::vector<double> out;
  for (const auto& r : rs) {
    if (r.traced == traced) out.push_back(r.*field);
  }
  return out;
}

std::vector<Metric> end_to_end_metrics(const Run& run) {
  std::vector<double> rounds = pick(run.timed, false, &RoundRec::round_s);
  const double total = std::accumulate(rounds.begin(), rounds.end(), 0.0);
  const double n = static_cast<double>(rounds.size());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"round_s.p50", quantile(rounds, 0.5), "s"},
      {"round_s.p90", quantile(rounds, tail_q(rounds.size())), "s"},
      {"rounds_per_s", ratio(n, total), "1/s"},
      {"setup_s", median(run.setup_s), "s"},
      {"payload_bytes_per_round",
       ratio(static_cast<double>(run.counts.payload_bytes), n), "B"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run, const Probes& probes) {
  const auto& rs = run.timed;
  auto med = [&](double RoundRec::*f) { return median(pick(rs, true, f)); };
  double round_sum = 0.0;
  double top_sum = 0.0;
  double decode_sum = 0.0;
  double setup_sum = 0.0;
  double plans[3] = {0.0, 0.0, 0.0};
  for (const auto& r : rs) {
    if (!r.traced) continue;
    round_sum += r.round_s;
    top_sum += r.top_spans_s;
    decode_sum += r.decode_s;
    setup_sum += r.decode_setup_s;
    plans[r.plan] += 1.0;
  }
  const double traced_n = plans[0] + plans[1] + plans[2];
  const double all_n = static_cast<double>(rs.size());
  const auto& c = run.counts;
  const double drop_rounds =
      run.w.socket ? static_cast<double>(c.hub_rounds) : all_n;
  return {
      {"server.session_construct_s", median(run.construct_s), "s"},
      {"coding.codec_construct_s", probes.codec_construct_s, "s"},
      {"crypto.mask_prg_s", probes.mask_prg_s, "s"},
      {"coding.encode_one_s", probes.encode_one_s, "s"},
      {"runtime.user_start_s", med(&RoundRec::start_s), "s"},
      {"runtime.user_start_max_over_mean", med(&RoundRec::user_max_over_mean),
       "ratio"},
      {"runtime.offline_encodes_per_round",
       ratio(static_cast<double>(c.offline_encodes), all_n), "count"},
      {"transport.fanin_s", med(&RoundRec::fanin_s), "s"},
      {"transport.recovery_s", med(&RoundRec::recovery_s), "s"},
      {"coding.decode_s", med(&RoundRec::decode_s), "s"},
      {"coding.decode_setup_frac", ratio(setup_sum, decode_sum), "ratio"},
      {"transport.result_s", med(&RoundRec::result_s), "s"},
      {"transport.frames_per_round",
       ratio(static_cast<double>(c.frames_built), all_n), "count"},
      {"transport.frames_dropped_per_round",
       ratio(static_cast<double>(c.frames_dropped), drop_rounds), "count"},
      {"transport.pool_reuse_ratio",
       ratio(static_cast<double>(c.pool_reuses),
             static_cast<double>(c.pool_allocs + c.pool_reuses)),
       "ratio"},
      {"coding.plan_build_ratio", ratio(plans[0], traced_n), "ratio"},
      {"coding.plan_patch_ratio", ratio(plans[1], traced_n), "ratio"},
      {"coding.plan_reuse_ratio", ratio(plans[2], traced_n), "ratio"},
      {"trace.residual_frac", ratio(round_sum - top_sum, round_sum), "ratio"},
      {"trace.overhead_frac",
       ratio(med(&RoundRec::round_s),
             median(pick(rs, false, &RoundRec::round_s))) -
           1.0,
       "ratio"},
  };
}

/// Path-specific layer numbers: printed for people, not part of the
/// BENCHMARK.json list, whose metrics must exist on every workload.
std::vector<Metric> path_metrics(const Run& run) {
  const auto& rs = run.timed;
  auto med = [&](double RoundRec::*f) { return median(pick(rs, true, f)); };
  const auto& c = run.counts;
  std::vector<Metric> out = {
      {"transport.payload_copies", static_cast<double>(c.payload_copies),
       "count"},
      {"coding.decode_setup_s", med(&RoundRec::decode_setup_s), "s"},
  };
  if (!run.w.socket) {
    out.push_back({"runtime.seal_s", med(&RoundRec::seal_s), "s"});
    out.push_back({"runtime.finish_s", med(&RoundRec::finish_self_s), "s"});
    return out;
  }
  std::vector<double> wait;
  for (const auto& r : rs) {
    if (r.traced) wait.push_back(r.round_s - r.start_s - r.poll_busy_s);
  }
  out.push_back({"socket.hub_busy_s", med(&RoundRec::hub_busy_s), "s"});
  out.push_back({"socket.client_poll_s", med(&RoundRec::poll_busy_s), "s"});
  out.push_back({"socket.client_wait_s", median(wait), "s"});
  out.push_back({"socket.frames_relayed_per_round",
                 ratio(static_cast<double>(c.frames_relayed),
                       static_cast<double>(c.hub_rounds)),
                 "count"});
  out.push_back(
      {"socket.frames_parked", static_cast<double>(c.frames_parked), "count"});
  out.push_back({"socket.protocol_errors",
                 static_cast<double>(c.protocol_errors), "count"});
  out.push_back(
      {"socket.disconnects", static_cast<double>(c.disconnects), "count"});
  return out;
}

void print_human(const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

void print_json(const Run& run, bool correct,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  const char* sep = "";
  for (const auto& m : ms) {
    if (!std::isfinite(m.value)) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

bool write_trace(const Run& run, const std::string& path,
                 const std::vector<Metric>& ms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lsa_e2e: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"metrics\": {",
               run.w.name, static_cast<unsigned long long>(run.seed));
  const char* sep = "";
  for (const auto& m : ms) {
    std::fprintf(f, "%s\"%s\": %.17g", sep, m.name.c_str(),
                 std::isfinite(m.value) ? m.value : 0.0);
    sep = ", ";
  }
  std::fprintf(f, "},\n\"spans\": [");
  sep = "\n";
  for (const auto& s : run.tracer.spans()) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"round\": %llu, \"thread\": %u, "
                 "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}",
                 sep, s.name, static_cast<unsigned long long>(s.round),
                 s.thread, s.parent, 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns));
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "lsa_e2e: %s\nusage: lsa_e2e --workload W --seed S "
               "--seconds X --trace 0|1 [--smoke] [--trace-out PATH]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto value = [&]() -> std::string {
      if (a + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++a];
    };
    if (arg == "--workload") {
      name = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value() != "0";
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const auto& cand : smoke ? kSmokeWorkloads : kWorkloads) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload '" + name + "'").c_str());
  if (!(seconds > 0.0)) usage("--seconds must be positive");

  Run run(*w, seed, trace);
  std::printf("lsa_e2e: %s N=%zu T=%zu U=%zu d=%zu %s%s seed=%llu "
              "trace=%d\n",
              w->name, w->n, w->t, w->u, w->d,
              w->socket ? "tcp" : "in-process",
              w->persistent ? " persistent" : "",
              static_cast<unsigned long long>(seed), trace ? 1 : 0);
  try {
    if (w->socket) {
      for (std::size_t s = 0;
           run.ok() && (s < kSetups || run.timed_wall_s < seconds); ++s) {
        socket_segment(run);
      }
    } else {
      lsa::sys::ThreadPool pool(kPoolWorkers);
      for (std::size_t s = 0; run.ok() && s < kSetups; ++s) {
        inproc_segment(run, pool, seconds / static_cast<double>(kSetups));
      }
    }
  } catch (const std::exception& e) {
    ++run.attempted;
    run.fail(e.what());
  }

  bool correct = run.ok() && !run.timed.empty();
  if (run.counts.payload_copies != 0) {
    std::fprintf(stderr, "lsa_e2e: %llu intermediate payload copies\n",
                 static_cast<unsigned long long>(run.counts.payload_copies));
    correct = false;
  }
  if (run.counts.protocol_errors != 0) {
    std::fprintf(stderr, "lsa_e2e: %llu socket protocol errors\n",
                 static_cast<unsigned long long>(run.counts.protocol_errors));
    correct = false;
  }

  const std::size_t untraced = pick(run.timed, false, &RoundRec::round_s).size();
  std::printf("  timed rounds: %zu untraced, %zu traced; set-ups: %zu; "
              "round_s.p90 is the q=%.3f quantile\n",
              untraced, run.timed.size() - untraced, run.setup_s.size(),
              tail_q(untraced));
  std::vector<Metric> metrics;
  if (trace) {
    metrics = per_layer_metrics(run, run_probes(*w, seed));
    print_human(metrics);
    const auto extra = path_metrics(run);
    print_human(extra);
    if (!trace_out.empty()) {
      auto all = metrics;
      all.insert(all.end(), extra.begin(), extra.end());
      correct = write_trace(run, trace_out, all) && correct;
    }
  } else {
    metrics = end_to_end_metrics(run);
    print_human(metrics);
  }
  print_json(run, correct, metrics);
  return correct ? 0 : 1;
}

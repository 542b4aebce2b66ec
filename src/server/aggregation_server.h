// Session-sharded aggregation server over the concurrent transport — the
// unified runtime for heterogeneous cohorts.
//
// The paper's system (Fig. 4) is one server terminating N user connections
// for one cohort. A production deployment multiplexes MANY cohorts —
// independent rounds at different parameters, different tenants, and, in
// LightSecAgg's case, different *protocol modes*: the one-shot mask
// reconstruction commutes with weighted sums, so the same process can also
// serve asynchronous, FedBuff-style buffered cohorts (paper §4.2, App. F)
// that SecAgg-style pairwise masking cannot (Remark 1). This server owns
// that multiplexing:
//
//   * a session is one cohort behind the `SessionBase` interface (id, shard
//     affinity, step()/done(), stats snapshot). Two concrete kinds exist:
//       - `Session` (sync): N UserDevice machines + one
//         runtime::AggregationServer; step() = one whole round;
//       - `AsyncSession`: N AsyncUserDevice machines + one
//         runtime::AsyncAggregationServer; step() = one *buffer cycle*
//         (arrivals at staleness → K-buffered manifest → weighted-share
//         fan-in → one-shot decode of the weighted aggregate mask).
//     Each session owns its arenas and its transport::ConcurrentRouter
//     (per-receiver MPSC mailboxes, pooled zero-copy frames); nothing is
//     shared between sessions but the thread pool and the instrumentation
//     counters;
//   * sessions are sharded session_id % num_shards; run_rounds()/drive()
//     executes one task per shard on the sys::ThreadPool, each shard
//     pumping its sessions' queued steps to completion serially while the
//     shards proceed concurrently — sync and async cohorts interleave in
//     one process, one drive. Only the shard task touches a session's
//     queue, between steps; a step's own fan-out never does;
//   * within a session, the phases fan out over the session's ExecPolicy:
//     user start_round / arrival submit_update (encode + zero-copy share
//     fan-out) runs one user per lane — genuinely concurrent MPSC sends —
//     and delivery pumps one receiver mailbox per lane.
//     ThreadPool::parallel_for is nested-safe (the caller participates in
//     block claiming), so shard tasks and intra-session fan-out may share
//     one pool.
//
// Determinism: every reduction in the state machines is ordered by user
// *index* (never by arrival order), async decode survivor sets are the
// sorted responder ids, and field arithmetic is exact — so a session's
// aggregate is bit-identical to its single-threaded reference
// (runtime::Network / runtime::AsyncNetwork) at the same seed, whatever
// the interleaving (asserted in tests/transport_test.cpp,
// tests/async_session_test.cpp and the benches). Async arrival patterns
// come from the seeded runtime::ArrivalScheduler so both sides consume
// identical cycles.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "protocol/params.h"
#include "quant/staleness.h"
#include "runtime/arrival_scheduler.h"
#include "runtime/async_machines.h"
#include "runtime/machines.h"
#include "sys/exec_policy.h"
#include "sys/thread_pool.h"
#include "transport/concurrent_router.h"

namespace lsa::server {

enum class SessionKind { kSync, kAsync };

[[nodiscard]] constexpr const char* to_string(SessionKind k) {
  return k == SessionKind::kSync ? "sync" : "async";
}

/// Point-in-time snapshot of one session's progress and decode telemetry.
struct SessionStats {
  std::uint64_t id = 0;
  SessionKind kind = SessionKind::kSync;
  /// Rounds (sync) or buffer cycles (async) completed by this session.
  std::uint64_t steps = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  /// One-shot decode telemetry accumulated over the session's steps: how
  /// often the survivor-set plan cache hit exactly, hit a small-churn
  /// (≤ MaskCodec::kMaxPatchChurn) neighbor
  /// (incremental patch), or built from scratch — plus the LRU eviction
  /// count and the setup-vs-stream split.
  std::uint64_t decode_plan_builds = 0;
  std::uint64_t decode_plan_reuses = 0;
  std::uint64_t decode_plan_patches = 0;
  std::uint64_t decode_evictions = 0;
  double decode_setup_s = 0.0;
  double decode_stream_s = 0.0;
  lsa::coding::DecodeStrategy last_decode_used =
      lsa::coding::DecodeStrategy::kAuto;
  /// Offline encode + share-distribution passes summed over the cohort's
  /// devices. In persistent-cohort mode a stable cohort shows exactly N
  /// (one per device per epoch); in per-round mode it grows every round.
  std::uint64_t offline_encodes = 0;
};

/// One cohort as seen by the shard driver: queued steps (whole rounds for
/// sync sessions, buffer cycles for async ones) executed in FIFO order.
class SessionBase {
 public:
  using Fp = lsa::field::Fp32;
  using rep = Fp::rep;

  virtual ~SessionBase() = default;

  /// Server-assigned id; shard affinity is id % num_shards.
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::size_t shard_of(std::size_t num_shards) const {
    return static_cast<std::size_t>(id_ % num_shards);
  }

  [[nodiscard]] virtual SessionKind kind() const = 0;
  /// Queued steps not yet executed.
  [[nodiscard]] virtual std::size_t pending() const = 0;
  [[nodiscard]] bool done() const { return pending() == 0; }
  /// Executes the oldest queued step. Throws on an unrecoverable step
  /// (e.g. fewer than U responders); the session's remaining queue is
  /// abandoned by the driver in that case.
  virtual void step() = 0;
  virtual void clear_pending() = 0;
  [[nodiscard]] virtual SessionStats stats() const = 0;

 protected:
  /// THE queue-capacity rule for server-owned routers: the session type's
  /// largest single-phase fan-in (runtime::sync_fanin_bound /
  /// runtime::async_fanin_bound — the rules live next to the machines and
  /// also size the serial references' routers) is the floor, since a
  /// configured bound below it would wedge the (possibly only) driving
  /// thread on backpressure with nobody left to drain. 0 picks bound +
  /// ConcurrentRouter::kCapacityHeadroom.
  [[nodiscard]] static std::size_t resolve_queue_capacity(
      std::size_t configured, std::size_t fanin_bound) {
    if (configured == 0) {
      return fanin_bound + lsa::transport::ConcurrentRouter::kCapacityHeadroom;
    }
    lsa::require<lsa::ProtocolError>(
        configured >= fanin_bound,
        "session: queue_capacity below this session type's phase fan-in "
        "bound");
    return configured;
  }

  /// Folds one decode's stats into the session telemetry.
  void note_step(const lsa::coding::MaskCodec<Fp>::DecodeStats& st) {
    ++steps_;
    if (st.plan_patched) {
      ++plan_patches_;
    } else if (st.plan_reused) {
      ++plan_reuses_;
    } else {
      ++plan_builds_;
    }
    evictions_ = st.evictions;  // cumulative over the codec's lifetime
    setup_s_ += st.setup_s;
    stream_s_ += st.stream_s;
    last_used_ = st.used;
  }

  void fill_common_stats(SessionStats& out,
                         const lsa::transport::ConcurrentRouter& r) const {
    out.id = id_;
    out.kind = kind();
    out.steps = steps_;
    out.frames_sent = r.frames_sent();
    out.frames_delivered = r.frames_delivered();
    out.frames_dropped = r.frames_dropped();
    out.decode_plan_builds = plan_builds_;
    out.decode_plan_reuses = plan_reuses_;
    out.decode_plan_patches = plan_patches_;
    out.decode_evictions = evictions_;
    out.decode_setup_s = setup_s_;
    out.decode_stream_s = stream_s_;
    out.last_decode_used = last_used_;
  }

 private:
  friend class AggregationServer;
  std::uint64_t id_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t plan_builds_ = 0;
  std::uint64_t plan_reuses_ = 0;
  std::uint64_t plan_patches_ = 0;
  std::uint64_t evictions_ = 0;
  double setup_s_ = 0.0;
  double stream_s_ = 0.0;
  lsa::coding::DecodeStrategy last_used_ = lsa::coding::DecodeStrategy::kAuto;
};

struct SessionConfig {
  lsa::protocol::Params params;  ///< exec drives intra-session fan-out too
  std::uint64_t seed = 1;
  /// Per-receiver mailbox bound; 0 = the session type's fan-in bound plus
  /// headroom, so a single-threaded drive never blocks on backpressure.
  std::size_t queue_capacity = 0;
  bool byzantine_tolerant = false;
};

/// One synchronous cohort: the state machines, their router, and the
/// round driver. step() executes one queued whole round.
class Session final : public SessionBase {
 public:
  using Fp = SessionBase::Fp;
  using rep = SessionBase::rep;

  explicit Session(SessionConfig cfg)
      : cfg_(std::move(cfg)),
        router_(cfg_.params.num_users + 1,
                resolve_queue_capacity(
                    cfg_.queue_capacity,
                    lsa::runtime::sync_fanin_bound(cfg_.params.num_users))) {
    cfg_.params.validate_and_resolve();
    server_ = std::make_unique<lsa::runtime::AggregationServer>(
        cfg_.params, router_, cfg_.byzantine_tolerant);
    for (std::uint32_t i = 0; i < cfg_.params.num_users; ++i) {
      users_.push_back(std::make_unique<lsa::runtime::UserDevice>(
          i, cfg_.params, cfg_.seed, router_));
    }
  }

  [[nodiscard]] const lsa::protocol::Params& params() const {
    return cfg_.params;
  }
  [[nodiscard]] lsa::transport::ConcurrentRouter& router() { return router_; }
  [[nodiscard]] lsa::runtime::UserDevice& user(std::size_t i) {
    return *users_.at(i);
  }
  [[nodiscard]] lsa::runtime::AggregationServer& server() { return *server_; }

  /// Persistent-cohort membership change: every device advances its epoch
  /// and re-runs offline setup on its next round. No-op per device when
  /// the session is not in persistent mode (the flag gates the fast path).
  void advance_epoch() {
    for (auto& u : users_) u->advance_epoch();
  }

  /// One full round, same phase structure and same failure semantics as
  /// runtime::Network::run_round (crash-after-upload users are "delayed,
  /// not dropped"). Bit-identical to the Network result at equal seed.
  [[nodiscard]] std::vector<rep> run_round(
      std::uint64_t round, const std::vector<std::vector<rep>>& models,
      const std::vector<std::size_t>& crash_after_upload) {
    const lsa::field::simd::ScopedSimdPolicy simd_guard(cfg_.params.simd);
    const std::size_t n = cfg_.params.num_users;
    lsa::require<lsa::ProtocolError>(models.size() == n,
                                     "session: wrong number of models");
    // Offline + upload: one user per lane; their share fan-outs are
    // concurrent zero-copy sends into the per-receiver mailboxes.
    cfg_.params.exec.run(n, [&](std::size_t i) {
      users_[i]->start_round(round, std::span<const rep>(models[i]));
    });
    // Crash lands after the first pump — "crash after upload"; frames the
    // crashed user already enqueued still deliver (delayed, not dropped).
    pump();
    for (const auto i : crash_after_upload) router_.crash(i);
    server_->begin_recovery(round);
    pump();  // survivor set out, aggregated shares back
    auto result = server_->finish_round(round);
    pump();  // result broadcast
    note_step(server_->codec().last_decode_stats());
    return result;
  }

  void pump() {
    lsa::runtime::pump_router(router_, cfg_.params.exec,
                              [&](std::size_t r) -> lsa::runtime::Party& {
                                return party(r);
                              });
  }

  // ------------------------------------------------- SessionBase interface

  /// One queued round. Models are referenced, not copied — they must
  /// outlive the drive that executes the step. `result` (optional) receives
  /// the aggregate.
  struct QueuedRound {
    std::uint64_t round = 0;
    const std::vector<std::vector<rep>>* models = nullptr;
    std::vector<std::size_t> crash_after_upload;
    std::vector<rep>* result = nullptr;
  };

  void enqueue_round(QueuedRound work) {
    lsa::require<lsa::ProtocolError>(work.models != nullptr,
                                     "session: null model batch");
    queue_.push_back(std::move(work));
  }

  [[nodiscard]] SessionKind kind() const override {
    return SessionKind::kSync;
  }
  [[nodiscard]] std::size_t pending() const override { return queue_.size(); }
  void clear_pending() override { queue_.clear(); }

  void step() override {
    QueuedRound work = std::move(queue_.front());
    queue_.pop_front();
    auto result =
        run_round(work.round, *work.models, work.crash_after_upload);
    if (work.result != nullptr) *work.result = std::move(result);
  }

  [[nodiscard]] SessionStats stats() const override {
    SessionStats out;
    fill_common_stats(out, router_);
    for (const auto& u : users_) out.offline_encodes += u->offline_encodes();
    return out;
  }

 private:
  [[nodiscard]] lsa::runtime::Party& party(std::size_t r) {
    return r == cfg_.params.num_users
               ? static_cast<lsa::runtime::Party&>(*server_)
               : *users_[r];
  }

  SessionConfig cfg_;
  lsa::transport::ConcurrentRouter router_;
  std::unique_ptr<lsa::runtime::AggregationServer> server_;
  std::vector<std::unique_ptr<lsa::runtime::UserDevice>> users_;
  std::deque<QueuedRound> queue_;
};

struct AsyncSessionConfig {
  lsa::protocol::Params params;  ///< exec drives intra-session fan-out too
  std::uint64_t seed = 1;
  /// Per-receiver mailbox bound; 0 = the async fan-in bound plus headroom.
  std::size_t queue_capacity = 0;
  std::size_t buffer_k = 1;  ///< K: updates buffered before aggregating
  lsa::quant::StalenessPolicy staleness{};
  std::uint64_t c_g = 1u << 6;  ///< staleness-weight quantization (eq. 34)
  /// Cap on arrivals a single queued cycle may carry (drives the mailbox
  /// fan-in bound); 0 = buffer_k.
  std::size_t max_arrivals_per_cycle = 0;
  /// Seeded deterministic arrival pattern for enqueue_scheduled_cycles();
  /// schedule.arrivals_per_cycle == 0 resolves to buffer_k.
  lsa::runtime::ArrivalSchedule schedule{};
};

/// One asynchronous buffered cohort: AsyncUserDevice machines and the
/// AsyncAggregationServer over the same zero-copy transport. step()
/// executes one queued buffer cycle — timestamped share frames are built
/// once straight from the encode arenas (zero send-side payload copies),
/// and the one-shot weighted-mask recovery runs through the codec's
/// survivor-set-keyed decode-plan cache, so repeated cycles with the same
/// responder set pay plan setup once.
class AsyncSession final : public SessionBase {
 public:
  using Fp = SessionBase::Fp;
  using rep = SessionBase::rep;
  using Arrival = lsa::runtime::Arrival;
  using Output = lsa::runtime::AsyncAggregationServer::Output;

  explicit AsyncSession(AsyncSessionConfig cfg)
      : cfg_(std::move(cfg)),
        max_arrivals_(cfg_.max_arrivals_per_cycle != 0
                          ? cfg_.max_arrivals_per_cycle
                          : cfg_.buffer_k),
        router_(cfg_.params.num_users + 1,
                resolve_queue_capacity(
                    cfg_.queue_capacity,
                    lsa::runtime::async_fanin_bound(cfg_.params.num_users,
                                                    max_arrivals_))) {
    cfg_.params.validate_and_resolve();
    server_ = std::make_unique<lsa::runtime::AsyncAggregationServer>(
        cfg_.params, cfg_.buffer_k, cfg_.staleness, cfg_.c_g, router_);
    for (std::uint32_t i = 0; i < cfg_.params.num_users; ++i) {
      users_.push_back(std::make_unique<lsa::runtime::AsyncUserDevice>(
          i, cfg_.params, cfg_.seed, router_));
    }
    scheduler_.emplace(cfg_.schedule, cfg_.params.num_users,
                       cfg_.params.model_dim,
                       /*default_arrivals=*/cfg_.buffer_k);
  }

  [[nodiscard]] const lsa::protocol::Params& params() const {
    return cfg_.params;
  }
  [[nodiscard]] lsa::transport::ConcurrentRouter& router() { return router_; }
  [[nodiscard]] lsa::runtime::AsyncUserDevice& user(std::size_t i) {
    return *users_.at(i);
  }
  [[nodiscard]] lsa::runtime::AsyncAggregationServer& server() {
    return *server_;
  }
  [[nodiscard]] const lsa::runtime::ArrivalScheduler& scheduler() const {
    return *scheduler_;
  }

  /// Persistent-cohort membership change (see Session::advance_epoch).
  void advance_epoch() {
    for (auto& u : users_) u->advance_epoch();
  }

  /// One buffer cycle at aggregation round `now`: the arrivals submit
  /// their (stale) updates, `crash_before_recovery` users go silent, and
  /// the server manifests/aggregates once the buffer is full. Same phase
  /// structure and failure semantics as AsyncNetwork::run_cycle;
  /// bit-identical to it at equal seed and arrivals.
  [[nodiscard]] Output run_cycle(
      std::uint64_t now, const std::vector<Arrival>& arrivals,
      const std::vector<std::size_t>& crash_before_recovery = {}) {
    const lsa::field::simd::ScopedSimdPolicy simd_guard(cfg_.params.simd);
    const auto& pol = cfg_.params.exec;
    // One arrival per lane when the users are distinct (each lane owns its
    // user's machine); repeated users share state and must stay serial.
    auto submit = [&](std::size_t a) {
      users_.at(arrivals[a].user)
          ->submit_update(arrivals[a].born_round,
                          std::span<const rep>(arrivals[a].update));
    };
    if (distinct_users(arrivals)) {
      pol.run(arrivals.size(), submit);
    } else {
      for (std::size_t a = 0; a < arrivals.size(); ++a) submit(a);
    }
    pump();  // timestamped shares + masked updates delivered
    for (const auto i : crash_before_recovery) router_.crash(i);
    server_->begin_recovery(now);
    pump();  // manifest out, weighted shares back
    auto out = server_->finish_cycle(now);
    pump();  // result broadcast
    note_step(server_->codec().last_decode_stats());
    return out;
  }

  void pump() {
    lsa::runtime::pump_router(router_, cfg_.params.exec,
                              [&](std::size_t r) -> lsa::runtime::Party& {
                                return party(r);
                              });
  }

  // ------------------------------------------------- SessionBase interface

  struct QueuedCycle {
    std::uint64_t now = 0;
    std::vector<Arrival> arrivals;
    std::vector<std::size_t> crash_before_recovery;
  };

  void enqueue_cycle(QueuedCycle cycle) {
    lsa::require<lsa::ProtocolError>(
        cycle.arrivals.size() <= max_arrivals_,
        "async session: cycle exceeds max_arrivals_per_cycle (the mailbox "
        "fan-in bound was derived from it)");
    queue_.push_back(std::move(cycle));
  }

  /// Enqueues the next `count` cycles of the session's deterministic
  /// arrival schedule (reproducible: the same seed yields the same cycles
  /// in the legacy single-threaded AsyncNetwork drive).
  void enqueue_scheduled_cycles(std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      enqueue_cycle(QueuedCycle{
          scheduler_->now_for_cycle(next_scheduled_cycle_),
          scheduler_->arrivals_for_cycle(next_scheduled_cycle_),
          {}});
      ++next_scheduled_cycle_;
    }
  }

  /// Outputs of completed cycles, in execution order.
  [[nodiscard]] const std::vector<Output>& outputs() const {
    return outputs_;
  }

  [[nodiscard]] SessionKind kind() const override {
    return SessionKind::kAsync;
  }
  [[nodiscard]] std::size_t pending() const override { return queue_.size(); }
  void clear_pending() override { queue_.clear(); }

  void step() override {
    QueuedCycle cycle = std::move(queue_.front());
    queue_.pop_front();
    outputs_.push_back(
        run_cycle(cycle.now, cycle.arrivals, cycle.crash_before_recovery));
  }

  [[nodiscard]] SessionStats stats() const override {
    SessionStats out;
    fill_common_stats(out, router_);
    for (const auto& u : users_) out.offline_encodes += u->offline_encodes();
    return out;
  }

 private:
  [[nodiscard]] static bool distinct_users(
      const std::vector<Arrival>& arrivals) {
    for (std::size_t a = 0; a < arrivals.size(); ++a) {
      for (std::size_t b = a + 1; b < arrivals.size(); ++b) {
        if (arrivals[a].user == arrivals[b].user) return false;
      }
    }
    return true;
  }

  [[nodiscard]] lsa::runtime::Party& party(std::size_t r) {
    return r == cfg_.params.num_users
               ? static_cast<lsa::runtime::Party&>(*server_)
               : *users_[r];
  }

  AsyncSessionConfig cfg_;
  std::size_t max_arrivals_;
  lsa::transport::ConcurrentRouter router_;
  std::unique_ptr<lsa::runtime::AsyncAggregationServer> server_;
  std::vector<std::unique_ptr<lsa::runtime::AsyncUserDevice>> users_;
  std::optional<lsa::runtime::ArrivalScheduler> scheduler_;
  std::uint64_t next_scheduled_cycle_ = 0;
  std::deque<QueuedCycle> queue_;
  std::vector<Output> outputs_;
};

/// The multi-session front end: owns heterogeneous sessions (sync and
/// async cohorts side by side), shards them across the pool, and pumps
/// their queued steps concurrently.
class AggregationServer {
 public:
  using Fp = SessionBase::Fp;
  using rep = SessionBase::rep;

  /// pool == nullptr runs everything inline (serial reference behavior).
  /// num_shards == 0 picks the pool width (or 1 when inline).
  explicit AggregationServer(lsa::sys::ThreadPool* pool = nullptr,
                             std::size_t num_shards = 0)
      : pool_(pool),
        num_shards_(num_shards != 0 ? num_shards
                    : pool != nullptr ? pool->size()
                                      : 1) {}

  [[nodiscard]] std::size_t num_shards() const { return num_shards_; }
  [[nodiscard]] std::size_t num_sessions() const { return sessions_.size(); }
  // relaxed: monotonic progress gauges — readers want a recent count, not
  // an ordering edge (the drive's join publishes results).
  [[nodiscard]] std::uint64_t rounds_completed() const {
    return rounds_completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cycles_completed() const {
    return cycles_completed_.load(std::memory_order_relaxed);
  }

  /// Registers a sync cohort; returns its session id (shard = id % shards).
  std::uint64_t open_session(SessionConfig cfg) {
    return adopt(std::make_unique<Session>(std::move(cfg)));
  }

  /// Registers an async buffered cohort side by side with the sync ones.
  std::uint64_t open_async_session(AsyncSessionConfig cfg) {
    return adopt(std::make_unique<AsyncSession>(std::move(cfg)));
  }

  [[nodiscard]] SessionBase& session_base(std::uint64_t id) {
    const auto it = sessions_.find(id);
    lsa::require(it != sessions_.end(), "server: unknown session id");
    return *it->second;
  }

  [[nodiscard]] Session& session(std::uint64_t id) {
    auto* s = dynamic_cast<Session*>(&session_base(id));
    lsa::require<lsa::ProtocolError>(s != nullptr,
                                     "server: session is not a sync session");
    return *s;
  }

  [[nodiscard]] AsyncSession& async_session(std::uint64_t id) {
    auto* s = dynamic_cast<AsyncSession*>(&session_base(id));
    lsa::require<lsa::ProtocolError>(
        s != nullptr, "server: session is not an async session");
    return *s;
  }

  void close_session(std::uint64_t id) {
    lsa::require(sessions_.erase(id) == 1, "server: unknown session id");
  }

  /// One round of one sync session. Models are referenced, not copied —
  /// they must outlive the run_rounds() call that executes the work.
  struct RoundWork {
    std::uint64_t session_id = 0;
    std::uint64_t round = 0;
    const std::vector<std::vector<rep>>* models = nullptr;
    std::vector<std::size_t> crash_after_upload;
  };

  /// Executes a batch of sync rounds AND any cycles already queued on
  /// async sessions (enqueue_cycle / enqueue_scheduled_cycles): one drive
  /// pumps every session's queue, sharded across the pool, so sync and
  /// async cohorts proceed concurrently in one process. Sync results come
  /// back in work order; async outputs accumulate on their sessions
  /// (AsyncSession::outputs()). The first failure (e.g. an unrecoverable
  /// round) is rethrown after every shard has finished its batch.
  [[nodiscard]] std::vector<std::vector<rep>> run_rounds(
      const std::vector<RoundWork>& works) {
    // Validate the whole batch before enqueuing anything: a bad work item
    // mid-loop must not leave earlier items queued with pointers into the
    // `results` vector this call is about to unwind.
    std::vector<Session*> targets;
    targets.reserve(works.size());
    for (const auto& work : works) {
      lsa::require<lsa::ProtocolError>(work.models != nullptr,
                                       "server: null model batch");
      targets.push_back(&session(work.session_id));
    }
    std::vector<std::vector<rep>> results(works.size());
    for (std::size_t w = 0; w < works.size(); ++w) {
      targets[w]->enqueue_round({works[w].round, works[w].models,
                                 works[w].crash_after_upload, &results[w]});
    }
    drive();
    return results;
  }

  /// Pumps every session's queued steps to completion, one shard per pool
  /// task: each shard steps its sessions serially — whole rounds for sync
  /// sessions, buffer cycles for async ones. A failing session abandons
  /// its remaining queue; the first failure is rethrown after every shard
  /// has drained.
  void drive() {
    std::vector<std::exception_ptr> errors(num_shards_);
    auto run_shard = [&](std::size_t s) {
      for (auto& [id, sess] : sessions_) {
        if (sess->shard_of(num_shards_) != s) continue;
        while (!sess->done()) {
          try {
            sess->step();
            auto& counter = sess->kind() == SessionKind::kAsync
                                ? cycles_completed_
                                : rounds_completed_;
            // relaxed: progress gauge; results are published by the join.
            counter.fetch_add(1, std::memory_order_relaxed);
          } catch (...) {
            if (!errors[s]) errors[s] = std::current_exception();
            sess->clear_pending();
          }
        }
      }
    };
    if (pool_ == nullptr || num_shards_ <= 1) {
      for (std::size_t s = 0; s < num_shards_; ++s) run_shard(s);
    } else {
      // One block per shard; the pool's nested-safe parallel_for lets the
      // sessions' own ExecPolicy fan out on the same pool underneath.
      pool_->parallel_for(num_shards_, run_shard, /*grain=*/1);
    }
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  /// Process-level report: per-session snapshots plus process totals
  /// (examples/protocol_comparison.cpp prints it). Snapshot between
  /// drives: the per-session counters are written unsynchronized by the
  /// owning shard task, so stats() must not race an in-flight drive().
  struct ProcessStats {
    std::uint64_t rounds_completed = 0;  ///< sync rounds, process-wide
    std::uint64_t cycles_completed = 0;  ///< async buffer cycles
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t decode_plan_builds = 0;
    std::uint64_t decode_plan_reuses = 0;
    std::uint64_t decode_plan_patches = 0;
    std::uint64_t offline_encodes = 0;
    double decode_setup_s = 0.0;
    double decode_stream_s = 0.0;
    std::vector<SessionStats> per_session;  ///< ordered by session id
  };

  [[nodiscard]] ProcessStats stats() const {
    ProcessStats out;
    out.rounds_completed = rounds_completed();
    out.cycles_completed = cycles_completed();
    for (const auto& [id, sess] : sessions_) {
      out.per_session.push_back(sess->stats());
      const auto& s = out.per_session.back();
      out.frames_sent += s.frames_sent;
      out.frames_delivered += s.frames_delivered;
      out.decode_plan_builds += s.decode_plan_builds;
      out.decode_plan_reuses += s.decode_plan_reuses;
      out.decode_plan_patches += s.decode_plan_patches;
      out.offline_encodes += s.offline_encodes;
      out.decode_setup_s += s.decode_setup_s;
      out.decode_stream_s += s.decode_stream_s;
    }
    return out;
  }

 private:
  std::uint64_t adopt(std::unique_ptr<SessionBase> sess) {
    const std::uint64_t id = next_id_++;
    sess->id_ = id;
    sessions_.emplace(id, std::move(sess));
    return id;
  }

  lsa::sys::ThreadPool* pool_;
  std::size_t num_shards_;
  std::uint64_t next_id_ = 0;
  std::map<std::uint64_t, std::unique_ptr<SessionBase>> sessions_;
  std::atomic<std::uint64_t> rounds_completed_{0};
  std::atomic<std::uint64_t> cycles_completed_{0};
};

}  // namespace lsa::server

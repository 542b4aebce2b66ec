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
//     affinity, step()/done(), stats snapshot): a runtime driver plus a
//     step queue. Two concrete kinds exist:
//       - `Session` (sync): runtime::Network plus a queue of rounds;
//         step() = one whole round;
//       - `AsyncSession`: runtime::AsyncNetwork plus an arrival scheduler
//         and a queue of *buffer cycles* (arrivals at staleness →
//         K-buffered manifest → weighted-share fan-in → one-shot decode of
//         the weighted aggregate mask); step() = one cycle.
//     The drivers own the machines (N runtime::UserDevices and one
//     runtime::AggregationServer, the same classes in both kinds), the
//     arenas and the transport::ConcurrentRouter (per-receiver MPSC
//     mailboxes, pooled zero-copy frames); nothing is shared between
//     sessions but the thread pool and the instrumentation counters;
//   * sessions are sharded session_id % num_shards; run_rounds()/drive()
//     executes one task per shard on the sys::ThreadPool, each shard
//     pumping its sessions' queued steps to completion serially while the
//     shards proceed concurrently — sync and async cohorts interleave in
//     one process, one drive. Only the shard task touches a session's
//     queue, between steps; a step's own fan-out never does;
//   * within a step, the driver fans the phases out over the session's
//     ExecPolicy (Params::exec): user start_round / arrival submit_update
//     (encode + zero-copy share fan-out) runs one user per lane —
//     genuinely concurrent MPSC sends — and delivery pumps one receiver
//     mailbox per lane. ThreadPool::parallel_for is nested-safe (the
//     caller participates in block claiming), so shard tasks and
//     intra-session fan-out may share one pool.
//
// Determinism: every reduction in the state machines is ordered by user
// *index* (never by arrival order), an async manifest lists its uploads by
// born round then user id, decode survivor sets are the sorted responder
// ids, and field arithmetic is exact — so a session's
// aggregate is bit-identical to its driver on the default, inline
// ExecPolicy (the single-threaded reference) at the same seed, whatever
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
};

/// One synchronous cohort: the runtime::Network round driver plus a queue
/// of whole rounds; step() executes the oldest.
class Session final : public SessionBase, public lsa::runtime::Network {
 public:
  using Fp = SessionBase::Fp;
  using rep = SessionBase::rep;

  explicit Session(const SessionConfig& cfg) : Network(cfg.params, cfg.seed) {}

  /// Network::run_round, counted in the session's telemetry.
  [[nodiscard]] std::vector<rep> run_round(
      std::uint64_t round, const std::vector<std::vector<rep>>& models,
      const std::vector<std::size_t>& crash_after_upload) {
    auto result = Network::run_round(round, models, crash_after_upload);
    note_step(server().codec().last_decode_stats());
    return result;
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
    fill_common_stats(out, router());
    out.offline_encodes = offline_encodes();
    return out;
  }

 private:
  std::deque<QueuedRound> queue_;
};

struct AsyncSessionConfig {
  lsa::protocol::Params params;  ///< exec drives intra-session fan-out too
  std::uint64_t seed = 1;
  std::size_t buffer_k = 1;  ///< K: updates buffered before aggregating
  lsa::quant::StalenessPolicy staleness{};
  std::uint64_t c_g = 1u << 6;  ///< staleness-weight quantization (eq. 34)
  /// Seeded deterministic arrival pattern for enqueue_scheduled_cycles();
  /// schedule.arrivals_per_cycle == 0 resolves to buffer_k.
  lsa::runtime::ArrivalSchedule schedule{};
};

/// One asynchronous buffered cohort: the runtime::AsyncNetwork cycle
/// driver plus an arrival scheduler, a queue of buffer cycles and their
/// outputs; step() executes the oldest cycle. Timestamped shares are
/// encoded straight into their frames (zero send-side payload copies),
/// and the one-shot weighted-mask recovery runs through the
/// codec's survivor-set-keyed decode-plan cache, so repeated cycles with
/// the same responder set pay plan setup once.
class AsyncSession final : public SessionBase,
                           public lsa::runtime::AsyncNetwork {
 public:
  using Fp = SessionBase::Fp;
  using rep = SessionBase::rep;
  using Arrival = lsa::runtime::Arrival;

  explicit AsyncSession(const AsyncSessionConfig& cfg)
      : AsyncNetwork(cfg.params, cfg.buffer_k, cfg.staleness, cfg.c_g,
                     cfg.seed),
        scheduler_(cfg.schedule, cfg.params.num_users, cfg.params.model_dim,
                   /*default_arrivals=*/cfg.buffer_k) {}

  /// AsyncNetwork::run_cycle, counted in the session's telemetry.
  [[nodiscard]] Output run_cycle(
      std::uint64_t now, const std::vector<Arrival>& arrivals,
      const std::vector<std::size_t>& crash_before_recovery = {}) {
    auto out = AsyncNetwork::run_cycle(now, arrivals, crash_before_recovery);
    note_step(server().codec().last_decode_stats());
    return out;
  }

  // ------------------------------------------------- SessionBase interface

  struct QueuedCycle {
    std::uint64_t now = 0;
    std::vector<Arrival> arrivals;
    std::vector<std::size_t> crash_before_recovery;
  };

  /// Refuses a cycle run_cycle would refuse (check_admission) when it is
  /// queued, not in the middle of a drive.
  void enqueue_cycle(QueuedCycle cycle) {
    check_admission(cycle.arrivals.size());
    queue_.push_back(std::move(cycle));
  }

  /// Enqueues the next `count` cycles of the session's deterministic
  /// arrival schedule (reproducible: the same seed yields the same cycles
  /// on an inline AsyncNetwork).
  void enqueue_scheduled_cycles(std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      enqueue_cycle(QueuedCycle{
          scheduler_.now_for_cycle(next_scheduled_cycle_),
          scheduler_.arrivals_for_cycle(next_scheduled_cycle_),
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
    fill_common_stats(out, router());
    out.offline_encodes = offline_encodes();
    return out;
  }

 private:
  lsa::runtime::ArrivalScheduler scheduler_;
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

// Asynchronous LightSecAgg as communicating state machines (paper §4.2,
// Appendix F), with every byte crossing a Transport in wire format. The one
// implementation of the async protocol: server::AsyncSession and
// fl::run_fedbuff's secure mode both drive AsyncNetwork cycles.
//
// Message flow per buffer cycle (buffered async FL, FedBuff-style):
//   1. A user finishing local training at staleness tau_i = now - t_i sends
//      its *timestamped* encoded mask shares (kEncodedMaskShare, round = t_i)
//      to the other users and its masked update (kMaskedModel, round = t_i)
//      to the server.
//   2. When K updates are buffered the server broadcasts a *manifest*
//      (kBufferManifest): the (user, born-round, integer staleness weight)
//      triples of the buffered updates, by born round then user id, at the
//      aggregation round `now`.
//   3. Each reachable user returns sum_b w_b * [~z_{u_b}^{(t_b)}]_j
//      (kWeightedShares) — combining shares that were generated in
//      *different rounds*, which is exactly the commutativity property that
//      makes LightSecAgg async-capable (and SecAgg/SecAgg+ not, Remark 1).
//   4. From any U responses the server one-shot decodes the weighted
//      aggregate mask, removes it and broadcasts the result.
//
// The machines are the sync ones: runtime::UserDevice (steps 1 and 3 are
// its submit_update and its answer to a manifest) and runtime::
// AggregationServer, which folds each masked update on arrival into the
// running sum of its born round and answers step 4 with
// sum_t w_t * sum_t over the manifested born rounds. What is async lives
// here, in the driver: the buffer size K, the staleness policy and c_g.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "protocol/params.h"
#include "quant/staleness.h"
#include "runtime/arrival_scheduler.h"
#include "runtime/machines.h"  // UserDevice, AggregationServer, NetworkBase
#include "runtime/transport.h"

namespace lsa::runtime {

/// Largest single-phase fan-in any one async mailbox sees: the server box
/// takes up to max(N, A) frames between pumps (A masked uploads in the
/// submission phase, up to N weighted-share responses after the manifest
/// broadcast); a user box takes at most A timestamped shares. AsyncNetwork
/// — the one in-process async driver — sizes its router from this rule
/// at A = buffer K plus kCapacityHeadroom, and so admits cycles of at most
/// max(N, K) arrivals (AsyncNetwork::check_admission).
[[nodiscard]] constexpr std::size_t async_fanin_bound(
    std::size_t n, std::size_t max_arrivals) {
  return std::max(n, max_arrivals) + 2;
}

/// THE in-process async cycle driver: runs whole buffer cycles on its
/// base. Arrivals and the pump fan out on params.exec. On the default,
/// inline ExecPolicy it is the single-threaded reference every concurrent
/// drive is pinned against; server::AsyncSession is this driver plus an
/// arrival scheduler and a queue of cycles, on the session's policy.
class AsyncNetwork : public NetworkBase {
 public:
  /// t_i = born_round (staleness = now - t_i); shared with the arrival
  /// scheduler so session and serial drives consume identical patterns.
  using Arrival = lsa::runtime::Arrival;
  using Output = AggregationServer::CycleOutput;

  /// The router admits cycles of up to max(N, buffer_k) arrivals. Every
  /// cycle aggregates once `buffer_k` updates are buffered, weighting each
  /// by the quantized staleness weight of `staleness` at scale `c_g`.
  AsyncNetwork(const lsa::protocol::Params& params, std::size_t buffer_k,
               lsa::quant::StalenessPolicy staleness, std::uint64_t c_g,
               std::uint64_t seed)
      : NetworkBase(params, seed,
                    async_fanin_bound(params.num_users, buffer_k)),
        buffer_k_(buffer_k),
        staleness_(staleness),
        c_g_(c_g) {
    lsa::require<lsa::ConfigError>(buffer_k_ >= 1,
                                   "async network: buffer K must be >= 1");
  }

  /// Runs one buffer cycle at aggregation round `now`: the arrivals submit
  /// their (stale) updates, users in `crash_before_recovery` go silent, and
  /// the server aggregates once the buffer is full.
  [[nodiscard]] Output run_cycle(
      std::uint64_t now, const std::vector<Arrival>& arrivals,
      const std::vector<std::size_t>& crash_before_recovery = {}) {
    check_admission(arrivals.size());
    const lsa::field::simd::ScopedSimdPolicy simd_guard(params_.simd);
    // One arrival per lane when the users are distinct (each lane owns its
    // user's machine); repeated users share state and must stay serial.
    auto submit = [&](std::size_t a) {
      users_.at(arrivals[a].user)
          ->submit_update(arrivals[a].born_round,
                          std::span<const rep>(arrivals[a].update));
    };
    if (distinct_users(arrivals)) {
      params_.exec.run(arrivals.size(), submit);
    } else {
      for (std::size_t a = 0; a < arrivals.size(); ++a) submit(a);
    }
    pump();  // shares + masked updates delivered
    for (const auto i : crash_before_recovery) router_.crash(i);
    lsa::require<lsa::ProtocolError>(server_.buffered() >= buffer_k_,
                                     "async network: buffer not full yet");
    server_.send_manifest(now, staleness_, c_g_);
    pump();  // manifest out, weighted shares back
    auto out = server_.finish_cycle(now);
    pump();  // result broadcast
    return out;
  }

 protected:
  /// THE cycle-admission rule: a cycle of `num_arrivals` past the fan-in
  /// the router was sized for (max(N, K) arrivals) would wedge a driving
  /// thread on backpressure with nobody left to drain. run_cycle checks it
  /// before any frame is sent; server::AsyncSession when a cycle is queued.
  void check_admission(std::size_t num_arrivals) const {
    lsa::require<lsa::ProtocolError>(
        async_fanin_bound(params_.num_users, num_arrivals) +
                kCapacityHeadroom <=
            router_.queue_capacity(),
        "async network: cycle exceeds the mailbox fan-in bound");
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

  std::size_t buffer_k_;
  lsa::quant::StalenessPolicy staleness_;
  std::uint64_t c_g_;
};

}  // namespace lsa::runtime

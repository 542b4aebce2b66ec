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
//      triples of the buffered updates, at the aggregation round `now`.
//   3. Each reachable user returns sum_b w_b * [~z_{u_b}^{(t_b)}]_j
//      (kWeightedShares) — combining shares that were generated in
//      *different rounds*, which is exactly the commutativity property that
//      makes LightSecAgg async-capable (and SecAgg/SecAgg+ not, Remark 1).
//   4. From any U responses the server one-shot decodes the weighted
//      aggregate mask, removes it and broadcasts the result.
//
// The devices are runtime::UserDevice, the same as in sync rounds: steps 1
// and 3 are its submit_update and its answer to a manifest.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "coding/mask_codec.h"
#include "common/error.h"
#include "field/field_vec.h"
#include "protocol/params.h"
#include "quant/staleness.h"
#include "runtime/arrival_scheduler.h"
#include "runtime/machines.h"  // Party, UserDevice, NetworkBase
#include "runtime/transport.h"
#include "runtime/wire.h"

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

/// The buffered asynchronous aggregation server.
class AsyncAggregationServer final : public Party {
 public:
  using Fp = lsa::field::Fp32;
  using rep = Fp::rep;

  struct Output {
    std::vector<rep> weighted_sum;  ///< sum_b w_b * Delta_b, mask removed
    std::uint64_t weight_sum = 0;   ///< sum_b w_b (for normalization)
  };

  AsyncAggregationServer(const lsa::protocol::Params& params,
                         Transport& transport, std::size_t buffer_k,
                         lsa::quant::StalenessPolicy staleness,
                         std::uint64_t c_g)
      : params_(params),
        buffer_k_(buffer_k),
        staleness_(staleness),
        c_g_(c_g),
        codec_(params.num_users, params.target_survivors, params.privacy,
               params.model_dim),
        transport_(transport) {
    lsa::require<lsa::ConfigError>(buffer_k_ >= 1,
                                   "async server: buffer K must be >= 1");
  }

  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }
  [[nodiscard]] bool buffer_full() const {
    return buffer_.size() >= buffer_k_;
  }
  /// The session codec: exposes last_decode_stats() (plan-cache hit and the
  /// setup-vs-stream split of the one-shot weighted recovery).
  [[nodiscard]] const lsa::coding::MaskCodec<Fp>& codec() const {
    return codec_;
  }

  void handle_view(const lsa::transport::FrameView& f) override {
    on_payload(f.type, f.sender, f.round, f.payload);
  }

  /// Broadcasts the buffer manifest at aggregation round `now`: the users
  /// need (user, born_round, weight) per buffered update to form their
  /// weighted share responses. Weights are public integers (eq. 34).
  void begin_recovery(std::uint64_t now) {
    lsa::require<lsa::ProtocolError>(buffer_full(),
                                     "async server: buffer not full yet");
    std::vector<rep> manifest;
    manifest.reserve(3 * buffer_.size());
    weight_sum_ = 0;
    for (const auto& b : buffer_) {
      lsa::require<lsa::ProtocolError>(b.born_round <= now,
                                       "async server: update from future");
      lsa::require<lsa::ProtocolError>(
          b.born_round < Fp::modulus,
          "async server: round index exceeds wire range");
      const std::uint64_t w = lsa::quant::quantized_staleness_weight(
          staleness_, now - b.born_round, c_g_);
      manifest.push_back(static_cast<rep>(b.user));
      manifest.push_back(static_cast<rep>(b.born_round));
      manifest.push_back(static_cast<rep>(w));
      weight_sum_ += w;
    }
    lsa::require<lsa::ProtocolError>(
        weight_sum_ > 0, "async server: all weights rounded to zero");
    weighted_shares_.clear();
    transport_.broadcast_row(MsgType::kBufferManifest,
                             static_cast<std::uint32_t>(params_.num_users),
                             now, std::span<const rep>(manifest),
                             static_cast<std::uint32_t>(params_.num_users));
    manifest_ = std::move(manifest);
  }

  /// Completes the cycle once >= U weighted-share responses arrived:
  /// weighted masked sum, one-shot decode of the weighted aggregate mask,
  /// subtraction, result broadcast. Consumes the buffer.
  [[nodiscard]] Output finish_cycle(std::uint64_t now) {
    lsa::require<lsa::ProtocolError>(
        weighted_shares_.size() >= params_.target_survivors,
        "async server: fewer than U weighted-share responses");

    std::vector<rep> acc(params_.model_dim, Fp::zero);
    {
      // Buffer order matches manifest order by construction; one fused
      // weighted column sum across the MANIFESTED updates only (an upload
      // that arrived after begin_recovery sits in the buffer but has no
      // manifest entry and must be ignored, as in the legacy loop).
      const std::size_t k = manifest_.size() / 3;
      std::vector<rep> coeffs(k);
      std::vector<const rep*> rows(k);
      for (std::size_t e = 0; e < manifest_.size(); e += 3) {
        coeffs[e / 3] = manifest_[e + 2];
        rows[e / 3] = buffer_[e / 3].masked.data();
      }
      lsa::field::axpy_accumulate_blocked<Fp>(
          std::span<rep>(acc), std::span<const rep>(coeffs),
          std::span<const rep* const>(rows), params_.exec.chunk_reps);
    }

    std::vector<std::size_t> owners;
    std::vector<const rep*> share_rows;
    for (const auto& [user, vec] : weighted_shares_) {
      if (owners.size() == params_.target_survivors) break;
      owners.push_back(user);
      share_rows.push_back(vec.data());
    }
    auto agg_mask = codec_.decode_aggregate_rows(
        owners, std::span<const rep* const>(share_rows), params_.exec);
    lsa::field::sub_inplace<Fp>(std::span<rep>(acc),
                                std::span<const rep>(agg_mask));

    transport_.broadcast_row(MsgType::kAggregateResult,
                             static_cast<std::uint32_t>(params_.num_users),
                             now, std::span<const rep>(acc),
                             static_cast<std::uint32_t>(params_.num_users));
    buffer_.clear();
    weighted_shares_.clear();
    manifest_.clear();
    return Output{std::move(acc), weight_sum_};
  }

 private:
  void on_payload(MsgType type, std::uint32_t sender, std::uint64_t round,
                  std::span<const rep> payload) {
    switch (type) {
      case MsgType::kMaskedModel:
        lsa::require<lsa::ProtocolError>(
            payload.size() == params_.model_dim,
            "async server: bad masked update length");
        buffer_.push_back(
            {sender, round, std::vector<rep>(payload.begin(), payload.end())});
        break;
      case MsgType::kWeightedShares:
        lsa::require<lsa::ProtocolError>(
            payload.size() == codec_.segment_len(),
            "async server: bad weighted share length");
        weighted_shares_[sender].assign(payload.begin(), payload.end());
        break;
      default:
        throw lsa::ProtocolError("async server: unexpected message type");
    }
  }

  struct Buffered {
    std::uint32_t user = 0;
    std::uint64_t born_round = 0;
    std::vector<rep> masked;
  };

  lsa::protocol::Params params_;
  std::size_t buffer_k_;
  lsa::quant::StalenessPolicy staleness_;
  std::uint64_t c_g_;
  lsa::coding::MaskCodec<Fp> codec_;
  Transport& transport_;
  std::vector<Buffered> buffer_;
  std::vector<rep> manifest_;
  std::uint64_t weight_sum_ = 0;
  std::map<std::uint32_t, std::vector<rep>> weighted_shares_;
};

/// THE in-process async cycle driver: runs whole buffer cycles on its
/// base. Arrivals and the pump fan out on params.exec. On the default,
/// inline ExecPolicy it is the single-threaded reference every concurrent
/// drive is pinned against; server::AsyncSession is this driver plus an
/// arrival scheduler and a queue of cycles, on the session's policy.
class AsyncNetwork : public NetworkBase<AsyncAggregationServer> {
 public:
  /// t_i = born_round (staleness = now - t_i); shared with the arrival
  /// scheduler so session and serial drives consume identical patterns.
  using Arrival = lsa::runtime::Arrival;

  /// The router admits cycles of up to max(N, buffer_k) arrivals.
  AsyncNetwork(const lsa::protocol::Params& params, std::size_t buffer_k,
               lsa::quant::StalenessPolicy staleness, std::uint64_t c_g,
               std::uint64_t seed)
      : NetworkBase(params, seed,
                    async_fanin_bound(params.num_users, buffer_k), buffer_k,
                    staleness, c_g) {}

  /// Runs one buffer cycle at aggregation round `now`: the arrivals submit
  /// their (stale) updates, users in `crash_before_recovery` go silent, and
  /// the server aggregates once the buffer is full.
  [[nodiscard]] AsyncAggregationServer::Output run_cycle(
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
    server_.begin_recovery(now);
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
};

}  // namespace lsa::runtime

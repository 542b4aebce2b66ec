// Event-driven LightSecAgg session over a socket hub.
//
// The in-process drivers (runtime::Network and runtime::AsyncNetwork, on
// which server::AggregationServer's sharded sessions queue their steps)
// know when a phase ends because they orchestrate both sides. A daemon
// serving real client processes does not: progress must be inferred purely
// from what arrives on the wire and from connection lifecycle events.
// RemoteSession is that inference layer — it owns one
// runtime::AggregationServer machine, registers hooks with the socket hub,
// and advances the round phase machine deterministically:
//
//   collect -> recover   when all N masked models for the round have
//                        arrived. Strict all-N collect is what keeps the
//                        aggregate bit-identical to runtime::Network: the
//                        reference always sums every user's masked model
//                        (its dropout model is crash-AFTER-upload, the
//                        paper's U-boundary scenario), so the wire side
//                        must seal U1 = all N too. Uploads survive the
//                        uploader's disconnect ("delayed, not dropped"),
//                        and the hub parks traffic for users who have not
//                        joined yet, so late joiners and post-upload
//                        droppers both converge; a user that dies
//                        PRE-upload and never returns is a liveness
//                        failure the daemon's --timeout-s surfaces —
//                        deterministic inference deliberately has no
//                        round timer to guess with.
//
//   recover -> done      when every user in the wait set has responded
//                        and at least U responses arrived. Fewer than U
//                        once the wait set drains is a loud ProtocolError
//                        — the round is unrecoverable, exactly like the
//                        reference's finish_round contract.
//
// The wait set is the users live at the moment the survivor bitmap went
// out MINUS anyone whose link broke during any round that already had
// traffic in flight at detection time (unsafe_until_): a dropper's
// flushed-but-unread inbound frames died with its old socket, so even a
// fast rebinder may be missing shares and must not be waited on until
// those rounds are over, when every frame addressed to it was either
// parked or delivered on the new link. Fast peers bank ahead — their
// next-round shares can be relayed into a dying socket before the death
// is detected — which is why the fence covers the highest banked round,
// not just the current one. The set only ever shrinks after the
// snapshot, so round completion never depends on reconnect timing.
//
// Connection lifecycle maps onto crash/revive (ROADMAP Decisions): a
// disconnect is a crash — the user leaves the live set and, during
// recovery, the wait set. A re-handshake is a revive — the user is live
// again for future traffic but is NOT re-added to an in-flight recovery
// wait, and a response it produces anyway (the parked survivor bitmap
// reaches it on rebind) is ignored.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.h"
#include "field/simd/simd_policy.h"
#include "protocol/params.h"
#include "runtime/machines.h"
#include "transport/socket/socket_transport.h"

namespace lsa::server {

struct RemoteSessionConfig {
  lsa::protocol::Params params;
  std::uint64_t rounds = 1;
};

class RemoteSession {
 public:
  using Fp = lsa::field::Fp32;
  using rep = Fp::rep;

  enum class Phase { kCollect, kRecover, kDone };

  RemoteSession(lsa::transport::socket::SocketTransport& hub,
                std::uint64_t session_id, RemoteSessionConfig cfg)
      : cfg_(std::move(cfg)) {
    cfg_.params.validate_and_resolve();
    const std::uint32_t n = cfg_.params.num_users;
    live_.assign(n, 0);
    wait_.assign(n, 0);
    responded_.assign(n, 0);
    unsafe_until_.assign(n, 0);
    lsa::transport::socket::SessionHooks hooks;
    hooks.on_frame = [this](const lsa::transport::socket::Inbound& in) {
      on_frame(in);
    };
    hooks.on_bind = [this](std::uint32_t user, bool revived) {
      on_bind(user, revived);
    };
    hooks.on_disconnect = [this](std::uint32_t user) { on_disconnect(user); };
    lsa::runtime::Transport& t =
        hub.register_session(session_id, n, std::move(hooks));
    server_ = std::make_unique<lsa::runtime::AggregationServer>(cfg_.params, t);
  }

  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] std::uint64_t current_round() const { return round_; }
  [[nodiscard]] bool done() const { return phase_ == Phase::kDone; }
  [[nodiscard]] const std::vector<std::vector<rep>>& aggregates() const {
    return aggregates_;
  }
  /// Per-completed-round bitmap of who answered the recovery request.
  [[nodiscard]] const std::vector<std::uint8_t>& responders(
      std::size_t round) const {
    return responders_.at(round);
  }
  [[nodiscard]] const lsa::runtime::AggregationServer& machine() const {
    return *server_;
  }

 private:
  void on_frame(const lsa::transport::socket::Inbound& in) {
    if (phase_ == Phase::kDone) return;
    switch (in.view.type) {
      case lsa::runtime::MsgType::kMaskedModel:
        // Fold uploads for the current collect phase and for the next
        // round (fast clients bank ahead). A current-round model landing
        // AFTER the survivor bitmap is out is late — U1 is sealed, and the
        // server would refuse it. An upload two or more rounds ahead, past
        // the rounds in flight (UserDevice::kShareRetentionRounds), would
        // open server state no round in flight retires, so one peer could
        // grow the hub without bound. Both are dropped, like every late
        // frame.
        if ((in.view.round > round_ &&
             in.view.round <
                 round_ + lsa::runtime::UserDevice::kShareRetentionRounds) ||
            (in.view.round == round_ && phase_ == Phase::kCollect)) {
          server_->handle_view(in.view);
          if (in.view.round > max_round_seen_) {
            max_round_seen_ = in.view.round;
          }
          if (phase_ == Phase::kCollect) maybe_advance();
        }
        break;
      case lsa::runtime::MsgType::kAggregatedShares:
        // Only the in-flight recovery consumes responses, and only from
        // users in the wait snapshot — a revived user answering a parked
        // bitmap, or any late answer to a sealed round, is ignored.
        if (phase_ == Phase::kRecover && in.view.round == round_ &&
            in.view.sender < wait_.size() && wait_[in.view.sender] != 0) {
          server_->handle_view(in.view);
          if (in.view.sender < responded_.size()) {
            responded_[in.view.sender] = 1;
          }
          maybe_advance();
        }
        break;
      default:
        throw lsa::ProtocolError("session: unexpected message type");
    }
  }

  void on_bind(std::uint32_t user, bool /*revived*/) {
    live_[user] = 1;
    // A revived user is NOT added to an in-flight wait set: it never saw
    // the survivor bitmap (wait_ only ever shrinks after the snapshot).
    maybe_advance();
  }

  void on_disconnect(std::uint32_t user) {
    live_[user] = 0;
    if (phase_ == Phase::kRecover) wait_[user] = 0;
    // The broken link may have eaten frames addressed to this user: do
    // not wait on it again until every round that had traffic in flight
    // at detection time is over, even if it rebinds fast (see the
    // header). Traffic for a round can only exist once some upload for
    // it has been banked (peers send their shares and masked model
    // back-to-back, and the hub processes a connection's frames in
    // order), so max_round_seen_ bounds the rounds whose frames the dead
    // link can have eaten. A waited-on responder crashing shrinks the
    // wait set, which can be what completes the recovery phase.
    unsafe_until_[user] = std::max(round_, max_round_seen_) + 1;
    maybe_advance();
  }

  void maybe_advance() {
    const lsa::field::simd::ScopedSimdPolicy simd_guard(cfg_.params.simd);
    const std::uint32_t n = cfg_.params.num_users;
    const std::size_t u_target = cfg_.params.target_survivors;
    while (phase_ != Phase::kDone) {
      if (phase_ == Phase::kCollect) {
        // Strict all-N collect (see the header): the reference sum is
        // over every user's masked model, so U1 must seal at all N.
        if (server_->arrived(round_).size() < n) return;
        server_->begin_recovery(round_);
        // Snapshot: who the bitmap reaches AND who is safe to wait on —
        // a user whose link broke this round may be missing shares.
        for (std::uint32_t i = 0; i < n; ++i) {
          wait_[i] = (live_[i] != 0 && unsafe_until_[i] <= round_) ? 1 : 0;
        }
        responded_.assign(n, 0);
        phase_ = Phase::kRecover;
        continue;  // responses cannot have arrived yet, but keep the shape
      }
      // Phase::kRecover
      std::size_t pending = 0;
      std::size_t responses = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (responded_[i] != 0) {
          ++responses;
        } else if (wait_[i] != 0) {
          ++pending;
        }
      }
      if (pending > 0) return;
      lsa::require<lsa::ProtocolError>(
          responses >= u_target,
          "session: fewer than U aggregated-share responses — "
          "unrecoverable round");
      aggregates_.push_back(server_->finish_round(round_));
      responders_.push_back(responded_);
      ++round_;
      phase_ = round_ < cfg_.rounds ? Phase::kCollect : Phase::kDone;
      // Loop: banked-ahead uploads may already complete the next collect.
    }
  }

  RemoteSessionConfig cfg_;
  std::unique_ptr<lsa::runtime::AggregationServer> server_;
  Phase phase_ = Phase::kCollect;
  std::uint64_t round_ = 0;
  std::uint64_t max_round_seen_ = 0;  ///< highest round with a banked upload
  std::vector<std::uint8_t> live_;       ///< bound & connected, by user
  std::vector<std::uint8_t> wait_;       ///< recovery wait set (snapshot)
  std::vector<std::uint64_t> unsafe_until_;  ///< no waits before this round
  std::vector<std::uint8_t> responded_;  ///< current-round responders
  std::vector<std::vector<rep>> aggregates_;
  std::vector<std::vector<std::uint8_t>> responders_;
};

}  // namespace lsa::server

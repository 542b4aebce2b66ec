// Asynchronous LightSecAgg (paper §4.2, Appendix F.3).
//
// Buffered asynchronous FL (FedBuff-style): the server buffers K masked
// local updates — possibly computed against *different* global rounds — and
// aggregates when the buffer is full, downweighting stale updates with a
// quantized staleness function s_cg(tau) = c_g * Q_cg(s(tau)) applied inside
// the field.
//
// The key property that makes this work (and that SecAgg/SecAgg+ lack,
// Remark 1): masks are encoded with one shared MDS code, so encoded shares
// generated in different rounds can be combined with the same public integer
// weights, and the commutativity of coding and addition lets the server
// decode sum_i w_i * z_i^{(t_i)} one-shot — even though the z's were
// generated at different times.
//
// This class simulates all parties: per-user timestamped share stores, the
// server-side buffer, and the one-shot weighted recovery.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "coding/mask_codec.h"
#include "common/error.h"
#include "crypto/prg.h"
#include "field/field_vec.h"
#include "field/flat_matrix.h"
#include "field/parallel_vec.h"
#include "field/random_field.h"
#include "net/ledger.h"
#include "protocol/params.h"
#include "quant/staleness.h"

namespace lsa::protocol {

template <class F>
class AsyncLightSecAgg {
 public:
  using rep = typename F::rep;

  struct BufferedUpdate {
    std::size_t user = 0;
    std::uint64_t born_round = 0;  ///< t_i: round the user downloaded from
    std::vector<rep> masked;       ///< ~Delta = quantized update + z_i^{(t_i)}
  };

  struct AggregateOutput {
    /// sum_i w_i * Delta_i in the field (mask removed), w_i the integer
    /// staleness weights.
    std::vector<rep> weighted_sum;
    /// sum_i w_i — divide by this (and by the quantizer's c_l) to obtain the
    /// staleness-compensated average update.
    std::uint64_t weight_sum = 0;
  };

  AsyncLightSecAgg(Params params, std::uint64_t buffer_size,
                   lsa::quant::StalenessPolicy staleness,
                   std::uint64_t c_g, std::uint64_t master_seed,
                   lsa::net::Ledger* ledger = nullptr)
      : params_(params),
        buffer_size_(buffer_size),
        staleness_(staleness),
        c_g_(c_g),
        master_seed_(master_seed),
        ledger_(ledger) {
    params_.validate_and_resolve();
    lsa::require<lsa::ProtocolError>(buffer_size_ >= 1,
                                     "async: buffer size must be >= 1");
    codec_.emplace(params_.num_users, params_.target_survivors,
                   params_.privacy, params_.model_dim);
  }

  [[nodiscard]] std::string_view name() const { return "AsyncLightSecAgg"; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] std::uint64_t buffer_size() const { return buffer_size_; }

  /// User-side, offline: generates z_i^{(round)}, encodes it into one flat
  /// arena (row j = [~z]_j, the share user j stores), and returns the mask
  /// for local use. Mirrors Appendix F.3.1 (timestamped share exchange);
  /// the simulation keeps one arena per (user, round) instead of N
  /// per-holder heap vectors.
  std::vector<rep> generate_and_share_mask(std::size_t user,
                                           std::uint64_t round) {
    lsa::require<lsa::ProtocolError>(user < params_.num_users,
                                     "async: user id out of range");
    const std::size_t d = params_.model_dim;
    const std::size_t seg = codec_->segment_len();
    auto seed = lsa::crypto::derive_subseed(
        lsa::crypto::seed_from_u64(master_seed_ ^
                                   (0xa57ull + user * 0x9e3779b97f4a7c15ull)),
        round);
    lsa::crypto::Prg prg(seed);
    auto mask = lsa::field::uniform_vector<F>(d, prg);
    lsa::field::FlatMatrix<F> arena(params_.num_users, seg);
    codec_->encode_into(std::span<const rep>(mask), prg, arena, 0, 1,
                        params_.exec.chunk_reps);
    share_arenas_[{user, round}] = std::move(arena);
    if (ledger_ != nullptr) {
      for (std::size_t j = 0; j < params_.num_users; ++j) {
        if (j != user) {
          ledger_->add_message(lsa::net::Phase::kOffline, user, j, seg, true);
        }
      }
    }
    if (ledger_ != nullptr) {
      ledger_->add_compute(
          lsa::net::Phase::kOffline, user, lsa::net::CompKind::kPrgExpand,
          d + static_cast<std::uint64_t>(params_.privacy) * seg, true);
      ledger_->add_compute(lsa::net::Phase::kOffline, user,
                           lsa::net::CompKind::kMaskEncode,
                           static_cast<std::uint64_t>(params_.num_users) *
                               params_.target_survivors * seg,
                           true);
    }
    return mask;
  }

  /// User-side: masks a quantized update with the round-stamped mask
  /// (the caller obtained `mask` from generate_and_share_mask for `round`).
  [[nodiscard]] std::vector<rep> mask_update(
      std::span<const rep> quantized_update,
      std::span<const rep> mask) const {
    return lsa::field::add<F>(quantized_update, mask);
  }

  /// Server-side: stores a masked update in the buffer. Returns true when
  /// the buffer reached K and aggregate() may be called.
  bool buffer_update(BufferedUpdate update) {
    lsa::require<lsa::ProtocolError>(
        update.masked.size() == params_.model_dim,
        "async: masked update has wrong dimension");
    if (ledger_ != nullptr) {
      ledger_->add_message(lsa::net::Phase::kUpload, update.user,
                           ledger_->server_id(), params_.model_dim, true);
    }
    buffer_.push_back(std::move(update));
    return buffer_.size() >= buffer_size_;
  }

  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

  /// Server-side: aggregates the buffered updates at global round `now`.
  /// `active[j]` marks users reachable for the recovery phase; at least U
  /// must be active. Consumes the buffer and garbage-collects the consumed
  /// shares from every user's store.
  [[nodiscard]] AggregateOutput aggregate(std::uint64_t now,
                                          const std::vector<bool>& active) {
    const std::size_t n = params_.num_users;
    const std::size_t u = params_.target_survivors;
    const std::size_t seg = codec_->segment_len();
    lsa::require<lsa::ProtocolError>(active.size() == n,
                                     "async: wrong active vector size");
    lsa::require<lsa::ProtocolError>(!buffer_.empty(),
                                     "async: nothing buffered");

    // Public integer staleness weights (eq. 34), broadcast with {t_i}.
    std::vector<std::uint64_t> weights(buffer_.size());
    std::uint64_t weight_sum = 0;
    for (std::size_t b = 0; b < buffer_.size(); ++b) {
      lsa::require<lsa::ProtocolError>(buffer_[b].born_round <= now,
                                       "async: update from the future");
      const std::uint64_t tau = now - buffer_[b].born_round;
      weights[b] =
          lsa::quant::quantized_staleness_weight(staleness_, tau, c_g_);
      weight_sum += weights[b];
    }
    lsa::require<lsa::ProtocolError>(
        weight_sum > 0, "async: all staleness weights rounded to zero");

    // Weighted sum of masked updates (server side, in the field) — one
    // fused K-row weighted column sum over the buffer.
    std::vector<rep> acc(params_.model_dim, F::zero);
    {
      std::vector<rep> coeffs(buffer_.size());
      std::vector<const rep*> rows(buffer_.size());
      for (std::size_t b = 0; b < buffer_.size(); ++b) {
        coeffs[b] = F::from_u64(weights[b]);
        rows[b] = buffer_[b].masked.data();
      }
      lsa::field::axpy_accumulate<F>(std::span<rep>(acc),
                                     std::span<const rep>(coeffs),
                                     std::span<const rep* const>(rows),
                                     params_.exec);
    }

    // Recovery: each active user j returns sum_b w_b * [~z]_j for the
    // buffered (user, round) pairs; server decodes from the first U.
    std::vector<std::size_t> responders;
    for (std::size_t j = 0; j < n && responders.size() < u; ++j) {
      if (active[j]) responders.push_back(j);
    }
    lsa::require<lsa::ProtocolError>(
        responders.size() == u,
        "async: fewer than U active users — unrecoverable aggregation");

    // Per responder j: sum_b w_b * [~z_{u_b}^{(t_b)}]_j — a fused weighted
    // column sum over row j of each buffered update's share arena.
    // Responders fan out over params.exec (disjoint output rows).
    std::vector<rep> coeffs(buffer_.size());
    std::vector<const lsa::field::FlatMatrix<F>*> arenas(buffer_.size());
    for (std::size_t b = 0; b < buffer_.size(); ++b) {
      coeffs[b] = F::from_u64(weights[b]);
      const auto it =
          share_arenas_.find({buffer_[b].user, buffer_[b].born_round});
      lsa::require<lsa::ProtocolError>(
          it != share_arenas_.end(),
          "async: user is missing a timestamped encoded mask share");
      arenas[b] = &it->second;
    }
    lsa::field::FlatMatrix<F> agg_shares(u, seg);
    params_.exec.run(u, [&](std::size_t r) {
      std::vector<const rep*> rows(buffer_.size());
      for (std::size_t b = 0; b < buffer_.size(); ++b) {
        rows[b] = arenas[b]->row_ptr(responders[r]);
      }
      lsa::field::axpy_accumulate_blocked<F>(
          agg_shares.row(r), std::span<const rep>(coeffs),
          std::span<const rep* const>(rows), params_.exec.chunk_reps);
    });
    if (ledger_ != nullptr) {
      for (std::size_t j : responders) {
        ledger_->add_compute(
            lsa::net::Phase::kRecovery, j, lsa::net::CompKind::kFieldAddVec,
            static_cast<std::uint64_t>(buffer_.size()) * seg, true);
        ledger_->add_message(lsa::net::Phase::kRecovery, j,
                             ledger_->server_id(), seg, true);
      }
    }

    auto agg_mask =
        codec_->decode_aggregate(responders, agg_shares, params_.exec);
    if (ledger_ != nullptr) {
      ledger_->add_compute(
          lsa::net::Phase::kRecovery, ledger_->server_id(),
          lsa::net::CompKind::kMaskDecode,
          static_cast<std::uint64_t>(u) * (u - params_.privacy) * seg, true);
    }
    lsa::field::sub_inplace<F>(std::span<rep>(acc),
                               std::span<const rep>(agg_mask));

    // Garbage-collect consumed share arenas.
    for (const auto& upd : buffer_) {
      share_arenas_.erase({upd.user, upd.born_round});
    }
    buffer_.clear();

    return AggregateOutput{std::move(acc), weight_sum};
  }

 private:
  Params params_;
  std::uint64_t buffer_size_;
  lsa::quant::StalenessPolicy staleness_;
  std::uint64_t c_g_;
  std::uint64_t master_seed_;
  lsa::net::Ledger* ledger_;
  std::optional<lsa::coding::MaskCodec<F>> codec_;
  /// share_arenas_[(user, round)].row(j) = [~z_user^{(round)}]_j held by
  /// user j — one flat allocation per timestamped mask, not N vectors.
  std::map<std::pair<std::size_t, std::uint64_t>, lsa::field::FlatMatrix<F>>
      share_arenas_;
  std::deque<BufferedUpdate> buffer_;
};

}  // namespace lsa::protocol

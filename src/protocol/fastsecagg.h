// FastSecAgg (Kadhe et al. 2020) — the FFT-based multi-secret-sharing
// baseline the paper discusses in Related Works and Remark 4.
//
// Mechanism: instead of masking the model and recovering masks, each user
// secret-shares the *model itself* with a ramp (packed) secret-sharing
// scheme: x_i is split into K segments, padded with T uniformly random
// segments, and encoded into N shares — exactly the T-private MDS encoding
// LightSecAgg applies to its *mask* (coding/mask_codec.h), here applied to
// the data. Every user sends share j to user j; each user sums the shares it
// received from the surviving set and uploads one aggregated share; the
// server decodes the aggregate model from any K + T of them in one shot.
//
// Trade-offs this implementation makes measurable (paper: FastSecAgg
// "provides lower privacy and dropout guarantees compared to the other
// state-of-the-art protocols"):
//   * the guarantee budget is K + T + D <= N: at a fixed cohort size,
//     raising the rate K (smaller shares) *spends* privacy or dropout
//     tolerance, while LightSecAgg's masking layer decouples the model
//     upload (always d) from the sharing rate;
//   * there is no small "masked model" upload: the entire model travels as
//     N shares of size d/K per user, so the sharing phase is *online* —
//     it cannot be precomputed before local training finishes, unlike
//     LightSecAgg's offline mask exchange (the ledger reflects this: the
//     share exchange is logged in the Upload phase).
//   * like LightSecAgg the recovery is one-shot and independent of the
//     number of dropped users.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "coding/mask_codec.h"
#include "common/error.h"
#include "crypto/prg.h"
#include "field/field_vec.h"
#include "field/flat_matrix.h"
#include "net/ledger.h"
#include "protocol/params.h"
#include "protocol/secure_aggregator.h"

namespace lsa::protocol {

template <class F>
class FastSecAgg final : public SecureAggregator<F> {
 public:
  using rep = typename F::rep;

  /// Params interpretation: privacy = T, dropout = D; the packing rate is
  /// K = U - T where U = target_survivors (defaulting to N - D), i.e. the
  /// same N - D >= U > T >= 0 envelope as LightSecAgg with the model
  /// taking the place of the mask.
  FastSecAgg(Params params, std::uint64_t seed,
             lsa::net::Ledger* ledger = nullptr)
      : params_(params), seed_(seed), ledger_(ledger) {
    params_.validate_and_resolve();
    codec_.emplace(params_.num_users, params_.target_survivors,
                   params_.privacy, params_.model_dim);
  }

  [[nodiscard]] std::string_view name() const override {
    return "FastSecAgg";
  }
  [[nodiscard]] const Params& params() const override { return params_; }

  /// Packing rate K: segments of actual model data per share polynomial.
  [[nodiscard]] std::size_t packing_rate() const {
    return params_.num_segments();
  }

  [[nodiscard]] std::vector<rep> run_round(
      const std::vector<std::vector<rep>>& inputs,
      const std::vector<bool>& dropped) override {
    const lsa::field::simd::ScopedSimdPolicy simd_guard(params_.simd);
    const std::size_t n = params_.num_users;
    const std::size_t u = params_.target_survivors;
    const std::size_t t = params_.privacy;
    const std::size_t seg = codec_->segment_len();
    lsa::require<lsa::ProtocolError>(inputs.size() == n,
                                     "fastsecagg: wrong number of inputs");
    lsa::require<lsa::ProtocolError>(dropped.size() == n,
                                     "fastsecagg: wrong dropout vector");

    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < n; ++i) {
      if (!dropped[i]) survivors.push_back(i);
    }
    lsa::require<lsa::ProtocolError>(
        survivors.size() >= u,
        "fastsecagg: fewer than U = K + T survivors — unrecoverable round");

    // ---- Phase 1 (online): ramp-share the models into one flat arena,
    // row j*N + i = [x_i]_j (holder j's shares are a contiguous block).
    // Logged in the Upload phase: the model must exist before it can be
    // shared, so none of this work can overlap local training. One encode
    // task per user across params.exec.
    const std::uint64_t round = round_counter_++;
    const auto& pol = params_.exec;
    held_.reset_for_overwrite(n * n, seg);
    pol.run(n, [&](std::size_t i) {
      auto prg_seed = lsa::crypto::derive_subseed(
          lsa::crypto::seed_from_u64(seed_ ^
                                     (0xfa57ull + i * 0x9e3779b97f4a7c15ull)),
          round);
      lsa::crypto::Prg prg(prg_seed);
      codec_->encode_into(std::span<const rep>(inputs[i]), prg, held_,
                          /*base=*/i, /*stride=*/n, pol.chunk_reps);
      // Per-user ledger entries logged from inside the parallel encode
      // loop (sharded atomic ledger: totals exact under any interleaving).
      if (ledger_ != nullptr) {
        ledger_->add_compute(lsa::net::Phase::kUpload, i,
                             lsa::net::CompKind::kPrgExpand,
                             static_cast<std::uint64_t>(t) * seg, true);
        ledger_->add_compute(lsa::net::Phase::kUpload, i,
                             lsa::net::CompKind::kMaskEncode,
                             static_cast<std::uint64_t>(n) * u * seg, true);
        for (std::size_t j = 0; j < n; ++j) {
          if (j != i) {
            ledger_->add_message(lsa::net::Phase::kUpload, i, j, seg, true);
          }
        }
      }
    });

    // ---- Phase 2: aggregate-share upload from the survivors. ----
    // Server announces U1; user j sums the shares of surviving users only —
    // one blocked streaming pass over its arena row block per responder.
    std::vector<std::size_t> responders(survivors.begin(),
                                        survivors.begin() + u);
    agg_shares_.reset(u, seg);
    pol.run(u, [&](std::size_t r) {
      const std::size_t j = responders[r];
      std::vector<const rep*> rows;
      rows.reserve(survivors.size());
      for (const std::size_t i : survivors) {
        rows.push_back(held_.row_ptr(j * n + i));
      }
      lsa::field::add_accumulate_blocked<F>(
          agg_shares_.row(r), std::span<const rep* const>(rows),
          pol.chunk_reps);
      if (ledger_ != nullptr) {
        ledger_->add_compute(
            lsa::net::Phase::kRecovery, j, lsa::net::CompKind::kFieldAddVec,
            static_cast<std::uint64_t>(survivors.size()) * seg, true);
        ledger_->add_message(lsa::net::Phase::kRecovery, j,
                             ledger_->server_id(), seg, true);
      }
    });

    // ---- Phase 3: one-shot decode of the aggregate *model*. ----
    auto aggregate = codec_->decode_aggregate(responders, agg_shares_, pol);
    if (ledger_ != nullptr) {
      ledger_->add_compute(lsa::net::Phase::kRecovery, ledger_->server_id(),
                           lsa::net::CompKind::kMaskDecode,
                           static_cast<std::uint64_t>(u) * (u - t) * seg,
                           true);
      ledger_->add_compute(lsa::net::Phase::kRecovery, ledger_->server_id(),
                           lsa::net::CompKind::kMaskDecode,
                           static_cast<std::uint64_t>(u) * u +
                               static_cast<std::uint64_t>(u) * (u - t),
                           false);
    }
    return aggregate;
  }

 private:
  Params params_;
  std::uint64_t seed_;
  lsa::net::Ledger* ledger_;
  std::optional<lsa::coding::MaskCodec<F>> codec_;
  std::uint64_t round_counter_ = 0;
  // Round arenas, reused across rounds (reset keeps capacity).
  lsa::field::FlatMatrix<F> held_;        ///< row j*N + i = [x_i]_j
  lsa::field::FlatMatrix<F> agg_shares_;  ///< row r = responder r's sum
};

}  // namespace lsa::protocol

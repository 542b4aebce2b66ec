// LightSecAgg — the paper's contribution (§4.1, Algorithm 1).
//
// Design shift vs SecAgg: instead of reconstructing the *seeds* of dropped
// users' masks, each user protects its model with one locally generated mask
// z_i whose MDS-encoded shares are distributed offline. After dropouts, each
// surviving user returns the *sum* of the encoded shares it holds for the
// surviving set; by linearity of MDS coding the server decodes the aggregate
// mask sum_{i in U1} z_i in ONE shot from any U responses — server cost
// independent of the number of dropped users.
//
// Phases (all functionally executed; traffic/compute logged to net::Ledger):
//   1. Offline encoding & sharing: z_i ~ U(F_q^d), partitioned into U-T
//      segments, padded with T random segments, MDS-encoded into N shares
//      [~z_i]_j; share j goes to user j.
//   2. Masking & upload: ~x_i = x_i + z_i -> server.
//   3. One-shot recovery: server announces U1; each surviving user j sends
//      sum_{i in U1} [~z_i]_j; the server decodes from the first U responses
//      and subtracts the aggregate mask.
//
// Data layout: the round's N x N share matrix lives in ONE flat arena
// (field::FlatMatrix) with row j*N + i = [~z_i]_j — holder j's shares are a
// contiguous row block, so phase 3's per-responder aggregation is a single
// streaming pass. Masks occupy a second N x d arena. Both arenas are reused
// across rounds (no per-round N^2 allocations), and phases 1-3 fan out over
// params.exec (per-user encode tasks, blocked column sums, parallel decode).
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
#include "field/parallel_vec.h"
#include "field/random_field.h"
#include "net/ledger.h"
#include "protocol/secure_aggregator.h"

namespace lsa::protocol {

template <class F>
class LightSecAgg final : public SecureAggregator<F> {
 public:
  using rep = typename F::rep;

  /// verify_redundant: when an extra responder beyond U is available, the
  /// server decodes twice from different share subsets and cross-checks
  /// (MaskCodec::decode_aggregate_verified) — detecting tampered or
  /// corrupted aggregated shares at the cost of one additional response.
  LightSecAgg(Params params, std::uint64_t master_seed,
              lsa::net::Ledger* ledger = nullptr,
              bool verify_redundant = false)
      : params_(params),
        master_seed_(master_seed),
        ledger_(ledger),
        verify_redundant_(verify_redundant) {
    params_.validate_and_resolve();
    codec_.emplace(params_.num_users, params_.target_survivors,
                   params_.privacy, params_.model_dim);
  }

  [[nodiscard]] std::string_view name() const override {
    return "LightSecAgg";
  }
  [[nodiscard]] const Params& params() const override { return params_; }
  [[nodiscard]] const lsa::coding::MaskCodec<F>& codec() const {
    return *codec_;
  }

  [[nodiscard]] std::vector<rep> run_round(
      const std::vector<std::vector<rep>>& inputs,
      const std::vector<bool>& dropped) override {
    const lsa::field::simd::ScopedSimdPolicy simd_guard(params_.simd);
    const std::size_t n = params_.num_users;
    const std::size_t d = params_.model_dim;
    const std::size_t u = params_.target_survivors;
    const std::size_t t = params_.privacy;
    const std::size_t seg = codec_->segment_len();
    const auto& pol = params_.exec;
    lsa::require<lsa::ProtocolError>(inputs.size() == n,
                                     "lightsecagg: wrong number of inputs");
    lsa::require<lsa::ProtocolError>(dropped.size() == n,
                                     "lightsecagg: wrong dropout vector");

    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < n; ++i) {
      if (!dropped[i]) survivors.push_back(i);
    }
    lsa::require<lsa::ProtocolError>(
        survivors.size() >= u,
        "lightsecagg: fewer than U survivors — unrecoverable round");

    const std::uint64_t round = round_counter_++;

    // ---- Phase 1: offline encoding and sharing of local masks. ----
    // arena row j*N + i = [~z_i]_j — what user j stores for user i. One
    // task per user: draw z_i and its T noise segments from the user's PRG
    // (the same stream, in the same order, as the legacy per-user path)
    // and write the N shares into the user's disjoint row set. Per-user
    // ledger entries are logged from INSIDE the parallel region — the
    // sharded relaxed-atomic ledger makes the totals exact regardless of
    // interleaving (tests/net_test.cpp pins them at large N).
    masks_.reset_for_overwrite(n, d);
    held_.reset_for_overwrite(n * n, seg);
    pol.run(n, [&](std::size_t i) {
      auto seed = lsa::crypto::derive_subseed(
          lsa::crypto::seed_from_u64(master_seed_ ^
                                     (0x115aull + i * 0x9e3779b97f4a7c15ull)),
          round);
      lsa::crypto::Prg prg(seed);
      lsa::field::fill_uniform<F>(masks_.row(i), prg);
      codec_->encode_into(masks_.row(i), prg, held_, /*base=*/i,
                          /*stride=*/n, pol.chunk_reps);
      if (ledger_ != nullptr) {
        // PRG: d mask elements + T noise segments.
        ledger_->add_compute(lsa::net::Phase::kOffline, i,
                             lsa::net::CompKind::kPrgExpand,
                             d + static_cast<std::uint64_t>(t) * seg, true);
        // Encode: N shares, each a U-term combination of length-seg vectors.
        ledger_->add_compute(lsa::net::Phase::kOffline, i,
                             lsa::net::CompKind::kMaskEncode,
                             static_cast<std::uint64_t>(n) * u * seg, true);
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          ledger_->add_message(lsa::net::Phase::kOffline, i, j, seg, true);
        }
      }
    });

    // ---- Phase 2: masking and uploading of local models. ----
    // sum_masked = sum_{i in U1} (x_i + z_i), as one fused 2|U1|-row
    // column sum (field addition is associative: bit-identical to the
    // legacy two-pass order).
    std::vector<rep> sum_masked(d, F::zero);
    {
      std::vector<const rep*> rows;
      rows.reserve(2 * survivors.size());
      for (std::size_t i : survivors) {
        lsa::require<lsa::ProtocolError>(inputs[i].size() == d,
                                         "lightsecagg: bad input length");
        rows.push_back(inputs[i].data());
        rows.push_back(masks_.row_ptr(i));
      }
      lsa::field::add_accumulate<F>(std::span<rep>(sum_masked),
                                    std::span<const rep* const>(rows), pol);
    }
    if (ledger_ != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        ledger_->add_message(lsa::net::Phase::kUpload, i,
                             ledger_->server_id(), d, true);
        ledger_->add_compute(lsa::net::Phase::kUpload, i,
                             lsa::net::CompKind::kFieldAddVec, d, true);
      }
    }

    // ---- Phase 3: one-shot aggregate-mask recovery. ----
    // Server notifies survivors of U1; each survivor j returns
    // sum_{i in U1} [~z_i]_j. The server decodes from the first U responses
    // (U + 1 when verifying, to cross-check against tampering). One task
    // per responder: holder j's shares are the contiguous arena row block
    // [j*N, (j+1)*N), filtered to the surviving owners.
    const std::size_t want =
        verify_redundant_ ? std::min(u + 1, survivors.size()) : u;
    std::vector<std::size_t> responders(survivors.begin(),
                                        survivors.begin() + want);
    agg_shares_.reset(want, seg);
    pol.run(want, [&](std::size_t r) {
      const std::size_t j = responders[r];
      std::vector<const rep*> rows;
      rows.reserve(survivors.size());
      for (std::size_t i : survivors) rows.push_back(held_.row_ptr(j * n + i));
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

    auto agg_mask =
        (verify_redundant_ && responders.size() > u)
            ? codec_->decode_aggregate_verified(responders, agg_shares_, pol)
            : codec_->decode_aggregate(responders, agg_shares_, pol);
    if (ledger_ != nullptr) {
      // Decode: U-T output segments, each a U-term combination (d*U work),
      // plus the barycentric weight computation — O(U^2) shared denominators
      // + O(U (U-T)) per-beta numerators — independent of d
      // (coding/decode_plan.h: kBarycentric, which kAuto picks below
      // U = 512).
      ledger_->add_compute(lsa::net::Phase::kRecovery, ledger_->server_id(),
                           lsa::net::CompKind::kMaskDecode,
                           static_cast<std::uint64_t>(u) * (u - t) * seg,
                           true);
      ledger_->add_compute(lsa::net::Phase::kRecovery, ledger_->server_id(),
                           lsa::net::CompKind::kMaskDecode,
                           static_cast<std::uint64_t>(u) * u +
                               static_cast<std::uint64_t>(u) * (u - t),
                           false);
      ledger_->add_compute(lsa::net::Phase::kRecovery, ledger_->server_id(),
                           lsa::net::CompKind::kFieldAddVec, d, true);
    }

    lsa::field::sub_inplace<F>(std::span<rep>(sum_masked),
                               std::span<const rep>(agg_mask));
    return sum_masked;
  }

 private:
  Params params_;
  std::uint64_t master_seed_;
  lsa::net::Ledger* ledger_;
  bool verify_redundant_ = false;
  std::optional<lsa::coding::MaskCodec<F>> codec_;
  std::uint64_t round_counter_ = 0;
  // Round arenas, reused across rounds (reset keeps capacity).
  lsa::field::FlatMatrix<F> masks_;       ///< row i = z_i
  lsa::field::FlatMatrix<F> held_;        ///< row j*N + i = [~z_i]_j
  lsa::field::FlatMatrix<F> agg_shares_;  ///< row r = responder r's sum
};

}  // namespace lsa::protocol

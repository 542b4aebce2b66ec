// The trusted-third-party one-shot scheme of Zhao & Sun (2021), the closest
// prior work to LightSecAgg's one-shot recovery (paper Appendix C, Table 6).
//
// Idea: *pre-compute* the aggregate-mask recovery for every dropout pattern.
// A trusted third party (TTP) draws each user's mask z_i and, for every
// possible surviving set S (|S| >= U), encodes the set's aggregate mask
// sum_{i in S} z_i — padded with T fresh noise segments — into MDS shares
// distributed to the members of S. At round time the survivors simply return
// their pre-stored share for the realized set and the server decodes in one
// shot, exactly like LightSecAgg's recovery phase.
//
// The paper's critique, which this implementation makes measurable:
//   * randomness: N(U-T) + T * sum_{u=U..N} C(N,u) symbols — exponential in
//     N (fresh noise per subset), vs N*U for LightSecAgg;
//   * per-user storage: (U-T) + sum_{u=U..N} C(N,u)*u/N symbols — one share
//     per subset the user belongs to, vs (U-T) + N;
//   * trust: a TTP must generate and distribute all of it.
// The class exposes exact counters (`total_randomness_symbols`,
// `storage_symbols`) next to the closed-form predictions so Table 6 can be
// regenerated from a real execution (bench/table6_storage).
//
// Subsets are enumerated as bitmasks, so the implementation deliberately
// caps N (kMaxUsers): the exponential setup cost *is* the result.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "coding/mask_codec.h"
#include "common/error.h"
#include "common/rng.h"
#include "field/field_vec.h"
#include "field/flat_matrix.h"
#include "field/parallel_vec.h"
#include "field/random_field.h"
#include "protocol/params.h"
#include "protocol/secure_aggregator.h"

namespace lsa::protocol {

template <class F>
class ZhaoSunOneShot final : public SecureAggregator<F> {
 public:
  using rep = typename F::rep;

  /// Hard cap on N: setup enumerates all C(N, >=U) surviving sets.
  static constexpr std::size_t kMaxUsers = 20;

  ZhaoSunOneShot(Params params, std::uint64_t ttp_seed)
      : params_(params) {
    params_.validate_and_resolve();
    lsa::require<lsa::ConfigError>(
        params_.num_users <= kMaxUsers,
        "zhao-sun: subset enumeration is exponential; N capped at 20 "
        "(the blow-up is the point of Table 6)");
    const std::size_t n = params_.num_users;
    const std::size_t u = params_.target_survivors;
    const std::size_t d = params_.model_dim;
    codec_.emplace(n, u, params_.privacy, d);

    // --- TTP setup. ---
    // Masks live in one N x d arena; each subset's encode runs through a
    // reused flat scratch arena (the per-subset *storage* stays per-user —
    // the exponential blow-up is the point of Table 6).
    lsa::common::Xoshiro256ss rng(ttp_seed);
    masks_.reset(n, d);
    for (std::size_t i = 0; i < n; ++i) {
      lsa::field::fill_uniform<F>(masks_.row(i), rng);
    }

    shares_.resize(n);
    const std::size_t seg = codec_->segment_len();
    lsa::field::FlatMatrix<F> noise(params_.privacy, seg);
    lsa::field::FlatMatrix<F> encoded(n, seg);
    std::vector<rep> agg(d);
    const std::uint32_t full = (1u << n) - 1;  // n <= kMaxUsers = 20
    for (std::uint32_t set = 1; set <= full; ++set) {
      const auto members = members_of(set);
      if (members.size() < u) continue;
      ++num_subsets_;

      std::fill(agg.begin(), agg.end(), F::zero);
      std::vector<const rep*> rows;
      rows.reserve(members.size());
      for (const std::size_t i : members) rows.push_back(masks_.row_ptr(i));
      lsa::field::add_accumulate_blocked<F>(std::span<rep>(agg),
                                            std::span<const rep* const>(rows));
      for (std::size_t k = 0; k < params_.privacy; ++k) {
        lsa::field::fill_uniform<F>(noise.row(k), rng);
      }
      codec_->encode_with_noise_into(std::span<const rep>(agg), noise,
                                     encoded);
      for (const std::size_t j : members) {
        shares_[j].emplace(set, encoded.row_copy(j));
      }
    }
  }

  [[nodiscard]] std::string_view name() const override {
    return "ZhaoSun-TTP";
  }
  [[nodiscard]] const Params& params() const override { return params_; }

  [[nodiscard]] std::vector<rep> run_round(
      const std::vector<std::vector<rep>>& inputs,
      const std::vector<bool>& dropped) override {
    const lsa::field::simd::ScopedSimdPolicy simd_guard(params_.simd);
    const std::size_t n = params_.num_users;
    const std::size_t d = params_.model_dim;
    const std::size_t u = params_.target_survivors;
    lsa::require<lsa::ProtocolError>(inputs.size() == n,
                                     "zhao-sun: wrong number of inputs");
    lsa::require<lsa::ProtocolError>(dropped.size() == n,
                                     "zhao-sun: wrong dropout vector");

    std::uint32_t set = 0;
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < n; ++i) {
      if (!dropped[i]) {
        set |= (1u << i);
        survivors.push_back(i);
      }
    }
    lsa::require<lsa::ProtocolError>(
        survivors.size() >= u,
        "zhao-sun: fewer than U survivors — unrecoverable round");

    // Masking & upload (identical to LightSecAgg's phase 2): one fused
    // 2|U1|-row column sum over the inputs and the mask arena rows.
    std::vector<rep> sum_masked(d, F::zero);
    {
      std::vector<const rep*> rows;
      rows.reserve(2 * survivors.size());
      for (const std::size_t i : survivors) {
        lsa::require<lsa::ProtocolError>(inputs[i].size() == d,
                                         "zhao-sun: bad input length");
        rows.push_back(inputs[i].data());
        rows.push_back(masks_.row_ptr(i));
      }
      lsa::field::add_accumulate<F>(std::span<rep>(sum_masked),
                                    std::span<const rep* const>(rows),
                                    params_.exec);
    }

    // One-shot recovery from the pre-distributed shares for this exact set
    // (decoded straight off the stored rows, no copies).
    std::vector<std::size_t> responders(survivors.begin(),
                                        survivors.begin() + u);
    std::vector<const rep*> share_rows;
    share_rows.reserve(u);
    for (const std::size_t j : responders) {
      const auto it = shares_[j].find(set);
      lsa::require<lsa::ProtocolError>(
          it != shares_[j].end(),
          "zhao-sun: TTP did not pre-distribute a share for this set");
      share_rows.push_back(it->second.data());
    }
    auto agg_mask = codec_->decode_aggregate_rows(
        responders, std::span<const rep* const>(share_rows), params_.exec);
    lsa::field::sub_inplace<F>(std::span<rep>(sum_masked),
                               std::span<const rep>(agg_mask));
    return sum_masked;
  }

  // --- Table 6 counters (units: symbols of F^(d/(U-T)), as in the paper) ---

  /// Symbols of randomness the TTP generated: the N masks (U-T symbols
  /// each) plus T fresh noise symbols for every supported surviving set.
  [[nodiscard]] std::uint64_t total_randomness_symbols() const {
    const auto n = static_cast<std::uint64_t>(params_.num_users);
    const auto seg_count =
        static_cast<std::uint64_t>(params_.num_segments());
    return n * seg_count +
           static_cast<std::uint64_t>(params_.privacy) * num_subsets_;
  }

  /// Symbols user j must store offline: its own mask plus one encoded share
  /// per surviving set containing j.
  [[nodiscard]] std::uint64_t storage_symbols(std::size_t user) const {
    lsa::require<lsa::ProtocolError>(user < shares_.size(),
                                     "zhao-sun: user out of range");
    return static_cast<std::uint64_t>(params_.num_segments()) +
           static_cast<std::uint64_t>(shares_[user].size());
  }

  /// Number of surviving sets the TTP prepared: sum_{u=U..N} C(N,u).
  [[nodiscard]] std::uint64_t num_subsets() const { return num_subsets_; }

  // --- Closed-form predictions (paper Table 6), for cross-checking. ---

  [[nodiscard]] static std::uint64_t choose(std::uint64_t n,
                                            std::uint64_t k) {
    if (k > n) return 0;
    std::uint64_t r = 1;
    for (std::uint64_t i = 1; i <= k; ++i) {
      r = r * (n - k + i) / i;
    }
    return r;
  }

  [[nodiscard]] static std::uint64_t predicted_num_subsets(std::size_t n,
                                                           std::size_t u) {
    std::uint64_t s = 0;
    for (std::size_t m = u; m <= n; ++m) s += choose(n, m);
    return s;
  }

  [[nodiscard]] static std::uint64_t predicted_storage_symbols(
      std::size_t n, std::size_t u, std::size_t t) {
    // (U-T) + sum_{m=U..N} C(N-1, m-1): subsets of size m containing a
    // fixed user.
    std::uint64_t s = u - t;
    for (std::size_t m = u; m <= n; ++m) s += choose(n - 1, m - 1);
    return s;
  }

 private:
  [[nodiscard]] std::vector<std::size_t> members_of(std::uint32_t set) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < params_.num_users; ++i) {
      if (set & (1u << i)) out.push_back(i);
    }
    return out;
  }

  Params params_;
  std::optional<lsa::coding::MaskCodec<F>> codec_;
  lsa::field::FlatMatrix<F> masks_;  ///< row i = z_i
  /// shares_[j][set_bitmask] = user j's pre-stored share for that set.
  std::vector<std::unordered_map<std::uint32_t, std::vector<rep>>> shares_;
  std::uint64_t num_subsets_ = 0;
};

}  // namespace lsa::protocol

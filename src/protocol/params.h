// Secure-aggregation protocol parameters (paper §4.1).
#pragma once

#include <cstddef>

#include "common/error.h"
#include "field/simd/simd_policy.h"
#include "sys/exec_policy.h"

namespace lsa::protocol {

/// Design parameters shared by all protocols. The paper's constraint is
/// N - D >= U > T >= 0 (LightSecAgg) and T + D < N (all protocols,
/// Theorem 1).
struct Params {
  std::size_t num_users = 0;       ///< N
  std::size_t privacy = 0;         ///< T: tolerated colluding users
  std::size_t dropout = 0;         ///< D: tolerated dropped users
  std::size_t target_survivors = 0;  ///< U (LightSecAgg); 0 = pick default
  std::size_t model_dim = 0;       ///< d

  /// How the round's data-parallel phases execute (per-user encode fan-out,
  /// blocked share aggregation, one-shot decode). Default: serial, default
  /// cache chunking — results are bit-identical under every policy.
  lsa::sys::ExecPolicy exec{};

  /// Steady-state cohort mode (ACCESS-FL-style, see README "Steady-state
  /// cohorts"): user devices run offline encoding + mask-share
  /// distribution ONCE per cohort epoch instead of once per round, and
  /// every subsequent round is only masked-upload -> fan-in -> cached/
  /// patched-plan decode. Within an epoch a device reuses one epoch mask
  /// (derived from (seed, id, epoch)), which the decode cancels exactly —
  /// aggregates stay bit-identical to per-round mode — at the documented
  /// privacy trade: the server can difference consecutive masked uploads
  /// of a stable cohort member. Epochs advance on membership change
  /// (Session::advance_epoch fans out to the devices), re-triggering the
  /// offline setup. Server machines need no flag — they already key state
  /// per round and shares by the wire round field (the epoch, for shares).
  bool persistent_cohort = false;

  /// SIMD kernel dispatch for every field op this round touches. kAuto
  /// uses the best ISA the host supports (field/simd/dispatch.h);
  /// kForceScalar pins the branch-free scalar reference kernels — results
  /// are bit-identical either way, so this is a debugging/benchmark knob,
  /// not a correctness one. Protocol run_round entries establish the
  /// policy on the calling thread and ExecPolicy re-establishes it inside
  /// pool workers.
  lsa::field::simd::SimdPolicy simd = lsa::field::simd::SimdPolicy::kAuto;

  /// Validates the common constraints and resolves U if left at 0.
  /// Default U = N - D (the most dropout-tolerant choice); callers tuning
  /// for speed may pick any U in (T, N - D] — the paper finds U ~ 0.7N best
  /// for p <= 0.3 (§7.2, "Impact of U").
  void validate_and_resolve() {
    lsa::require<lsa::ProtocolError>(num_users >= 2,
                                     "params: need at least 2 users");
    lsa::require<lsa::ProtocolError>(model_dim >= 1, "params: empty model");
    lsa::require<lsa::ProtocolError>(
        privacy + dropout < num_users,
        "params: need T + D < N (Theorem 1)");
    if (target_survivors == 0) target_survivors = num_users - dropout;
    lsa::require<lsa::ProtocolError>(
        target_survivors > privacy,
        "params: need U > T");
    lsa::require<lsa::ProtocolError>(
        target_survivors <= num_users - dropout,
        "params: need U <= N - D");
  }

  [[nodiscard]] std::size_t num_segments() const {
    return target_survivors - privacy;  // U - T
  }
};

}  // namespace lsa::protocol

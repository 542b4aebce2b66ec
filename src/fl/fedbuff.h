// Buffered asynchronous FL — FedBuff (Nguyen et al. 2021) and its secure
// counterpart, asynchronous LightSecAgg (paper §4.2, App. F).
//
// Simulation model (App. F.5): N users; at every server round K users arrive
// with updates computed against a *stale* global model x(t - tau),
// tau ~ Uniform{0..tau_max}. The server buffers the K updates and applies
//   x(t+1) = x(t) - eta_g / (sum_i s(tau_i)) * sum_i s(tau_i) * Delta_i
// with Delta_i = x(t_i) - x_i^(E) (eq. 24) and staleness weighting s
// (Constant or Poly(alpha)).
//
// In secure mode the updates are quantized (c_l), masked with timestamped
// LightSecAgg masks, and the server aggregates with the *quantized* integer
// staleness weights s_cg (eq. 34) — never seeing an individual update. Each
// server round is one runtime::AsyncNetwork buffer cycle: N devices and the
// buffering server exchanging wire frames.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fl/dataset.h"
#include "fl/fedavg.h"  // RoundRecord
#include "fl/model.h"
#include "fl/sgd.h"
#include "quant/staleness.h"

namespace lsa::fl {

struct FedBuffConfig {
  std::size_t rounds = 40;
  std::size_t buffer_k = 10;       ///< K
  std::uint64_t tau_max = 10;      ///< staleness bound (App. F.5)
  double eta_g = 1.0;              ///< server learning rate
  SgdConfig sgd;
  lsa::quant::StalenessPolicy staleness;
  std::uint64_t seed = 1;
  std::size_t eval_every = 2;

  // Secure-mode settings (ignored when secure == false).
  bool secure = false;
  std::uint64_t c_l = 1u << 16;  ///< update quantization levels (Fig. 12)
  std::uint64_t c_g = 1u << 6;   ///< staleness quantization levels (App. F.5)
  std::size_t privacy_t = 0;     ///< T of the AsyncNetwork cohort (0 = N/10)
  std::size_t target_u = 0;      ///< U (0 = default N - D with D = N/5)

  /// Optional transform applied to each arriving update before it reaches
  /// the server (identity when empty). This is where the DP baseline plugs
  /// in (dp/mechanism.h: per-user clip + Gaussian noise — the alternative
  /// the paper contrasts asynchronous LightSecAgg against, §1 / Remark 1).
  std::function<void(std::vector<double>&, std::size_t user)>
      update_transform;
};

/// Runs buffered asynchronous FL; partitions define the N users.
/// Returns per-round test accuracy (Fig. 7 / 11 / 12 curves).
[[nodiscard]] std::vector<RoundRecord> run_fedbuff(
    Model& global, const SyntheticDataset& data,
    const std::vector<std::vector<std::size_t>>& partitions,
    const FedBuffConfig& cfg);

}  // namespace lsa::fl

// Test helper: automatic quantization-level selection (paper App. F.5
// points to the auto-tuning idea of Bonawitz et al. 2019c). No library
// code picks levels automatically, so it lives with the tests
// (extensions_test pins the head-room rule below).
//
// Fig. 12 shows c_l trades rounding error (small c_l) against wrap-around
// error (large c_l). The safe operating point follows from the aggregation
// head-room: the weighted field sum of K updates must stay within
// (-q/2, q/2), i.e.
//     K * w_max * c_l * |Delta|_max < q/2 / margin.
// pick_levels() returns the largest power of two satisfying that bound —
// maximizing precision without risking overflow.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/error.h"

namespace lsa::quant {

struct AutotuneConfig {
  std::size_t summands = 1;        ///< K: vectors summed before demapping
  std::uint64_t max_weight = 1;    ///< w_max: largest integer weight applied
  double safety_margin = 4.0;      ///< extra head-room factor (>= 1)
  std::uint64_t min_levels = 2;    ///< never quantize coarser than this
};

/// Largest power-of-two c such that K * w_max * c * max_abs stays a factor
/// `safety_margin` below q/2. Returns min_levels when even that overflows
/// (the caller should then clip updates or enlarge the field).
template <class F>
[[nodiscard]] std::uint64_t pick_levels(double max_abs_value,
                                        const AutotuneConfig& cfg) {
  lsa::require<lsa::QuantError>(cfg.safety_margin >= 1.0,
                                "autotune: margin must be >= 1");
  lsa::require<lsa::QuantError>(cfg.summands >= 1 && cfg.max_weight >= 1,
                                "autotune: bad aggregation shape");
  const double half_field = static_cast<double>(F::modulus) / 2.0;
  const double denom = static_cast<double>(cfg.summands) *
                       static_cast<double>(cfg.max_weight) *
                       std::max(max_abs_value, 1e-12) * cfg.safety_margin;
  const double bound = half_field / denom;
  if (bound <= static_cast<double>(cfg.min_levels)) return cfg.min_levels;
  // Round down to a power of two (Fig. 12 sweeps c_l = 2^b).
  const auto as_int = static_cast<std::uint64_t>(bound);
  return std::uint64_t{1} << (std::bit_width(as_int) - 1);
}

/// Convenience: scans a batch of update vectors for their max magnitude.
[[nodiscard]] inline double max_abs(
    std::span<const double> values) {
  double m = 0.0;
  for (double v : values) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace lsa::quant

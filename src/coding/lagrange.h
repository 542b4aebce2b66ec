// Lagrange interpolation weights over F_q.
//
// Used by Shamir reconstruction (evaluate at x = 0). Given sample points
// xs and a target x0, lagrange_weights_at returns w such that for any
// polynomial f of degree < xs.size():
//     f(x0) = sum_j w[j] * f(xs[j]).
#pragma once

#include <span>
#include <vector>

#include "common/error.h"
#include "field/field_vec.h"

namespace lsa::coding {

/// Precondition: xs are pairwise distinct (CodingError otherwise).
template <class F>
[[nodiscard]] std::vector<typename F::rep> lagrange_weights_at(
    std::span<const typename F::rep> xs, typename F::rep x0) {
  using rep = typename F::rep;
  const std::size_t n = xs.size();
  lsa::require<lsa::CodingError>(n > 0, "lagrange: no sample points");

  // w_j = prod_{m != j} (x0 - x_m) / (x_j - x_m).
  // Compute all denominators then batch-invert (one field inversion total).
  std::vector<rep> denom(n, F::one);
  std::vector<rep> numer(n, F::one);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t m = 0; m < n; ++m) {
      if (m == j) continue;
      const rep diff = F::sub(xs[j], xs[m]);
      lsa::require<lsa::CodingError>(diff != F::zero,
                                     "lagrange: duplicate sample points");
      denom[j] = F::mul(denom[j], diff);
      numer[j] = F::mul(numer[j], F::sub(x0, xs[m]));
    }
  }
  lsa::field::batch_inv_inplace<F>(std::span<rep>(denom));
  std::vector<rep> w(n);
  for (std::size_t j = 0; j < n; ++j) w[j] = F::mul(numer[j], denom[j]);
  return w;
}

}  // namespace lsa::coding

// Test oracle for the server's one-shot aggregate-mask decode.
//
// The aggregated shares are evaluations y_j = g(x_j) of the aggregate
// polynomial g (degree < U) at the U survivor share points x_j; the decode
// returns g at the U-T data slots beta_k, for every mask coordinate. This
// header computes that value straight from the Lagrange form
//
//   g(beta_k) = sum_j y_j * prod_{m != j} (beta_k - x_m) / (x_j - x_m)
//
// with scalar F::add / F::sub / F::mul / F::inv only. It shares no code
// with what it checks: no field/field_vec.h kernels, no
// coding::lagrange_weights_at, no coding::BatchedDecodePlan. Every shipped
// DecodeStrategy must match it bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "coding/mask_codec.h"

namespace lsa::test {

/// f(x0) for the unique polynomial f of degree < |xs| with f(xs[j]) = ys[j].
template <class F>
[[nodiscard]] typename F::rep oracle_interpolate_at(
    std::span<const typename F::rep> xs, std::span<const typename F::rep> ys,
    typename F::rep x0) {
  using rep = typename F::rep;
  rep acc = F::zero;
  for (std::size_t j = 0; j < xs.size(); ++j) {
    rep num = F::one;
    rep den = F::one;
    for (std::size_t m = 0; m < xs.size(); ++m) {
      if (m == j) continue;
      num = F::mul(num, F::sub(x0, xs[m]));
      den = F::mul(den, F::sub(xs[j], xs[m]));
    }
    acc = F::add(acc, F::mul(ys[j], F::mul(num, F::inv(den))));
  }
  return acc;
}

/// out[k * seg_len + l] = g_l(betas[k]), where g_l interpolates
/// (xs[j], rows[j][l]). The Lagrange basis value of point j at beta_k does
/// not depend on the coordinate, so it is formed once per (k, j); the
/// denominators prod_{m != j} (x_j - x_m) once per j.
template <class F>
[[nodiscard]] std::vector<typename F::rep> oracle_decode(
    std::span<const typename F::rep> xs,
    std::span<const typename F::rep> betas,
    std::span<const typename F::rep* const> rows, std::size_t seg_len) {
  using rep = typename F::rep;
  const std::size_t u = xs.size();
  std::vector<rep> den_inv(u);
  for (std::size_t j = 0; j < u; ++j) {
    rep den = F::one;
    for (std::size_t m = 0; m < u; ++m) {
      if (m != j) den = F::mul(den, F::sub(xs[j], xs[m]));
    }
    den_inv[j] = F::inv(den);
  }
  std::vector<rep> out(betas.size() * seg_len, F::zero);
  for (std::size_t k = 0; k < betas.size(); ++k) {
    rep* dst = out.data() + k * seg_len;
    for (std::size_t j = 0; j < u; ++j) {
      rep basis = den_inv[j];
      for (std::size_t m = 0; m < u; ++m) {
        if (m != j) basis = F::mul(basis, F::sub(betas[k], xs[m]));
      }
      for (std::size_t l = 0; l < seg_len; ++l) {
        dst[l] = F::add(dst[l], F::mul(rows[j][l], basis));
      }
    }
  }
  return out;
}

/// What MaskCodec::decode_aggregate_rows must return for these rows: the
/// codec puts slot k at beta_k = k + 1 and user j's share point at
/// alpha_j = U + 1 + j (coding/mask_codec.h), decodes from the first U
/// owners, and concatenates the U-T data segments truncated to d.
template <class F>
[[nodiscard]] std::vector<typename F::rep> oracle_codec_decode(
    const lsa::coding::MaskCodec<F>& codec,
    std::span<const std::size_t> owners,
    std::span<const typename F::rep* const> rows) {
  using rep = typename F::rep;
  const std::size_t u = codec.target_survivors();
  std::vector<rep> xs(u);
  std::vector<rep> betas(codec.num_data_segments());
  for (std::size_t j = 0; j < u; ++j) xs[j] = F::from_u64(u + 1 + owners[j]);
  for (std::size_t k = 0; k < betas.size(); ++k) betas[k] = F::from_u64(k + 1);
  auto out = oracle_decode<F>(xs, betas, rows.first(u), codec.segment_len());
  out.resize(codec.mask_len());
  return out;
}

}  // namespace lsa::test

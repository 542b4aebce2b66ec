// Dense elementwise kernels over vectors of field elements.
//
// These loops are the hot path of every protocol phase (mask generation,
// model masking, aggregate-mask accumulation), so they operate on raw rep
// spans with no abstraction overhead; the compiler auto-vectorizes them.
//
// Beyond the plain elementwise kernels, this header provides the *fused
// accumulation* kernels the flat-arena encode/decode engine is built on:
//   add_accumulate_blocked   acc += sum_k rows[k]
//   axpy_accumulate_blocked  acc += sum_k coeffs[k] * rows[k]
//   gemm_rows                dst[r] = sum_k coeffs[r][k] * rows[k]
// They process the coordinate range in cache-sized blocks (the destination
// block stays L1-resident while the source rows stream through), and for
// 32-bit fields they use split-word lazy accumulation: each coefficient w
// splits as w_hi * 2^16 + w_lo, the partial products w_lo * x < 2^48 and
// w_hi * x < 2^48 accumulate in plain uint64 lanes (auto-vectorizable, no
// per-term modular reduction), and ONE reduction per output element folds
// the two lanes back into the field. This turns the U-term MDS encode and
// the (U-T) x U decode GEMMs from one Barrett reduction per term into one
// per output element — exact, bit-identical results (the field is
// associative/commutative and the lazy sums never overflow; see
// tests/flat_matrix_test.cpp for the parity checks).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "field/simd/dispatch.h"

namespace lsa::field {

/// Reps per cache block for the blocked kernels: 4096 * 4 B = 16 KiB of
/// destination (u32 fields) — block plus lazy accumulators fit in L1.
inline constexpr std::size_t kDefaultChunkReps = 4096;

/// Fields exposing Shoup precomputed-operand multiplication: a fixed
/// operand s is preprocessed once (one wide division) into s_pre, after
/// which every mul_shoup(a, s, s_pre) replaces the full Barrett/Mersenne/
/// Goldilocks reduction with one high-half product and one conditional
/// subtraction. This is the fast path of the 64-bit axpy kernels below and
/// of the precomputed-twiddle NTT (coding/ntt.h).
template <class F>
concept ShoupCapable = requires(typename F::rep a) {
  { F::has_shoup } -> std::convertible_to<bool>;
  { F::shoup_precompute(a) } -> std::convertible_to<typename F::rep>;
  { F::mul_shoup(a, a, a) } -> std::convertible_to<typename F::rep>;
};

/// Row length below which the per-coefficient shoup_precompute division is
/// not worth amortizing and the kernels keep the plain mul.
inline constexpr std::size_t kShoupMinReps = 16;

/// Whether the Shoup precomputed-operand multiply is the measured winner
/// for this field's streaming axpy kernels. On the Mersenne 64-bit rep the
/// Shoup form (one high product + one conditional subtraction) beats the
/// shift-and-fold reduction by ~1.2x; on Goldilocks the branch-free
/// reduce128 multiply and the 3-limb lazy accumulation both beat it
/// (bench/ablation_decode_complexity Part 0 keeps the comparison honest).
template <class F>
inline constexpr bool kPrefersShoupAxpy = [] {
  if constexpr (requires { F::is_mersenne; }) {
    return static_cast<bool>(F::is_mersenne);
  } else {
    return false;
  }
}();

/// Shoup precomputation of a whole coefficient vector (one table per GEMM
/// row / twiddle set; build once, reuse across every streamed element).
template <ShoupCapable F>
void shoup_precompute_into(std::span<const typename F::rep> coeffs,
                           std::span<typename F::rep> out) {
  lsa::require(coeffs.size() == out.size(), "shoup table: size mismatch");
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    out[i] = F::shoup_precompute(coeffs[i]);
  }
}

template <ShoupCapable F>
[[nodiscard]] std::vector<typename F::rep> shoup_precompute_vec(
    std::span<const typename F::rep> coeffs) {
  std::vector<typename F::rep> out(coeffs.size());
  shoup_precompute_into<F>(coeffs, std::span<typename F::rep>(out));
  return out;
}

/// acc[i] = acc[i] + x[i] for all i. Routed to the runtime-dispatched SIMD
/// kernel when the field has one (bit-identical; field/simd/dispatch.h).
template <class F>
void add_inplace(std::span<typename F::rep> acc,
                 std::span<const typename F::rep> x) {
  lsa::require(acc.size() == x.size(), "field add: size mismatch");
  if constexpr (simd::kIsGoldilocksField<F>) {
    if (const auto* k = simd::goldilocks_active()) {
      k->add_mod(acc.data(), x.data(), acc.size());
      return;
    }
  } else if constexpr (simd::kIsSimdU32Field<F>) {
    if (const auto* k = simd::u32_active()) {
      k->add_mod(acc.data(), x.data(), acc.size(), F::modulus);
      return;
    }
  } else if constexpr (simd::kIsSimdU64Field<F>) {
    if (const auto* k = simd::u64_active()) {
      k->add_mod(acc.data(), x.data(), acc.size(), F::modulus);
      return;
    }
  }
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = F::add(acc[i], x[i]);
}

/// acc[i] = acc[i] - x[i] for all i.
template <class F>
void sub_inplace(std::span<typename F::rep> acc,
                 std::span<const typename F::rep> x) {
  lsa::require(acc.size() == x.size(), "field sub: size mismatch");
  if constexpr (simd::kIsGoldilocksField<F>) {
    if (const auto* k = simd::goldilocks_active()) {
      k->sub_mod(acc.data(), x.data(), acc.size());
      return;
    }
  } else if constexpr (simd::kIsSimdU32Field<F>) {
    if (const auto* k = simd::u32_active()) {
      k->sub_mod(acc.data(), x.data(), acc.size(), F::modulus);
      return;
    }
  } else if constexpr (simd::kIsSimdU64Field<F>) {
    if (const auto* k = simd::u64_active()) {
      k->sub_mod(acc.data(), x.data(), acc.size(), F::modulus);
      return;
    }
  }
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = F::sub(acc[i], x[i]);
}

/// acc[i] = acc[i] * s for all i.
template <class F>
void scale_inplace(std::span<typename F::rep> acc, typename F::rep s) {
  for (auto& a : acc) a = F::mul(a, s);
}

/// acc[i] = acc[i] + s * x[i] for all i (the MDS encode/decode inner loop).
/// Fields where Shoup wins (kPrefersShoupAxpy) precompute s once and run
/// the cheap precomputed-operand multiply per element — bit-identical to
/// F::mul.
template <class F>
void axpy_inplace(std::span<typename F::rep> acc, typename F::rep s,
                  std::span<const typename F::rep> x) {
  lsa::require(acc.size() == x.size(), "field axpy: size mismatch");
  if constexpr (ShoupCapable<F> && kPrefersShoupAxpy<F> &&
                simd::kIsSimdU64Field<F>) {
    if (F::has_shoup && acc.size() >= kShoupMinReps) {
      if (const auto* k = simd::u64_active()) {
        k->shoup_axpy(acc.data(), x.data(), s, F::shoup_precompute(s),
                      acc.size(), F::modulus);
        return;
      }
    }
  }
  if constexpr (simd::kIsGoldilocksField<F>) {
    // mul_shoup is bit-identical to mul, so the vector Shoup row applies
    // even though the scalar path prefers the reduce128 multiply.
    if (acc.size() >= kShoupMinReps) {
      if (const auto* k = simd::goldilocks_active()) {
        k->shoup_axpy(acc.data(), x.data(), s, F::shoup_precompute(s),
                      acc.size());
        return;
      }
    }
  }
  if constexpr (ShoupCapable<F> && kPrefersShoupAxpy<F>) {
    if (F::has_shoup && acc.size() >= kShoupMinReps) {
      const typename F::rep s_pre = F::shoup_precompute(s);
      for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i] = F::add(acc[i], F::mul_shoup(x[i], s, s_pre));
      }
      return;
    }
  }
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = F::add(acc[i], F::mul(s, x[i]));
  }
}

/// acc[i] = acc[i] + x[i], traversed in chunk-sized blocks. Equivalent to
/// add_inplace; the blocked form exists so call sites that interleave
/// several kernels per block keep the destination L1-resident.
template <class F>
void add_inplace_chunked(std::span<typename F::rep> acc,
                         std::span<const typename F::rep> x,
                         std::size_t chunk = kDefaultChunkReps) {
  lsa::require(acc.size() == x.size(), "field add: size mismatch");
  if (chunk == 0) chunk = kDefaultChunkReps;
  for (std::size_t l0 = 0; l0 < acc.size(); l0 += chunk) {
    const std::size_t b = std::min(chunk, acc.size() - l0);
    add_inplace<F>(acc.subspan(l0, b), x.subspan(l0, b));
  }
}

/// acc[i] = acc[i] + s * x[i], traversed in chunk-sized blocks.
template <class F>
void axpy_inplace_chunked(std::span<typename F::rep> acc, typename F::rep s,
                          std::span<const typename F::rep> x,
                          std::size_t chunk = kDefaultChunkReps) {
  lsa::require(acc.size() == x.size(), "field axpy: size mismatch");
  if (chunk == 0) chunk = kDefaultChunkReps;
  for (std::size_t l0 = 0; l0 < acc.size(); l0 += chunk) {
    const std::size_t b = std::min(chunk, acc.size() - l0);
    axpy_inplace<F>(acc.subspan(l0, b), s, x.subspan(l0, b));
  }
}

namespace detail {
/// Width of the split-word lazy accumulators: 2048 entries * 2 lanes *
/// 8 B = 32 KiB of stack per call.
inline constexpr std::size_t kLazyWidth = 2048;
/// Width of the 3-limb lazy accumulators for 64-bit fields: 1024 entries *
/// 3 limbs * 8 B = 24 KiB of stack per call.
inline constexpr std::size_t kLazy192Width = 1024;
}  // namespace detail

/// 2^64 mod p and 2^128 mod p — the fold constants of the 192-bit lazy
/// accumulation scheme below.
template <class F>
inline constexpr typename F::rep kResidue64 =
    F::add(F::from_u64(~0ull), F::one);
template <class F>
inline constexpr typename F::rep kResidue128 =
    F::mul(kResidue64<F>, kResidue64<F>);

/// Adds the full product a * b to a 3-limb (192-bit) lazy accumulator —
/// one widening multiply plus carry adds, branch-free (no data-dependent
/// reduction per term). The hi limb grows at most one carry per term, so
/// any term count below 2^64 is safe.
template <class F>
constexpr void lazy192_accumulate(std::uint64_t& lo, std::uint64_t& mi,
                                  std::uint64_t& hi, typename F::rep a,
                                  typename F::rep b) {
  const unsigned __int128 pr = static_cast<unsigned __int128>(a) * b;
  const std::uint64_t plo = static_cast<std::uint64_t>(pr);
  const std::uint64_t phi = static_cast<std::uint64_t>(pr >> 64);
  const std::uint64_t c1 = __builtin_add_overflow(lo, plo, &lo) ? 1u : 0u;
  // phi <= 2^64 - 2, so phi + c1 cannot wrap.
  hi += __builtin_add_overflow(mi, phi + c1, &mi) ? 1u : 0u;
}

/// Folds a 3-limb lazy accumulator back into the field: the exact value
/// hi*2^128 + mi*2^64 + lo reduced mod p — bit-identical to having
/// reduced every term.
template <class F>
[[nodiscard]] constexpr typename F::rep lazy192_fold(std::uint64_t lo,
                                                     std::uint64_t mi,
                                                     std::uint64_t hi) {
  return F::add(
      F::mul(F::from_u64(hi), kResidue128<F>),
      F::add(F::mul(F::from_u64(mi), kResidue64<F>), F::from_u64(lo)));
}

/// acc[l] += sum_k rows[k][l] for every l in [0, acc.size()); every row
/// must have at least acc.size() readable elements. For 32-bit fields the
/// column sums accumulate lazily in uint64 (a sum of up to 2^32 canonical
/// u32 values cannot overflow) with one reduction per output element.
template <class F>
void add_accumulate_blocked(std::span<typename F::rep> acc,
                            std::span<const typename F::rep* const> rows,
                            std::size_t chunk = kDefaultChunkReps) {
  using rep = typename F::rep;
  if (rows.empty()) return;
  if (chunk == 0) chunk = kDefaultChunkReps;
  const std::size_t n = acc.size();
  if constexpr (sizeof(rep) == 4) {
    const auto* vk =
        simd::kIsSimdU32Field<F> ? simd::u32_active() : nullptr;
    const std::size_t width = std::min(chunk, detail::kLazyWidth);
    std::uint64_t sums[detail::kLazyWidth];
    for (std::size_t l0 = 0; l0 < n; l0 += width) {
      const std::size_t b = std::min(width, n - l0);
      std::fill_n(sums, b, std::uint64_t{0});
      for (const rep* const row : rows) {
        const rep* src = row + l0;
        if (vk != nullptr) {
          vk->accum_widen(sums, src, b);
        } else {
          for (std::size_t l = 0; l < b; ++l) sums[l] += src[l];
        }
      }
      rep* dst = acc.data() + l0;
      for (std::size_t l = 0; l < b; ++l) {
        dst[l] = F::add(dst[l], F::from_u64(sums[l]));
      }
    }
  } else {
    for (std::size_t l0 = 0; l0 < n; l0 += chunk) {
      const std::size_t l1 = std::min(l0 + chunk, n);
      for (const rep* const row : rows) {
        add_inplace<F>(acc.subspan(l0, l1 - l0),
                       std::span<const rep>(row + l0, l1 - l0));
      }
    }
  }
}

namespace detail {
/// The 64-bit axpy-accumulate inner loops with Shoup precomputed operands:
/// shoup[k] = F::shoup_precompute(coeffs[k]), built once per GEMM row set
/// and amortized over every streamed element.
template <class F>
void axpy_accumulate_shoup(std::span<typename F::rep> acc,
                           std::span<const typename F::rep> coeffs,
                           std::span<const typename F::rep> shoup,
                           std::span<const typename F::rep* const> rows,
                           std::size_t chunk) {
  using rep = typename F::rep;
  const std::size_t n = acc.size();
  const simd::GoldilocksKernels* glk = nullptr;
  const simd::U64Kernels* u64k = nullptr;
  if constexpr (simd::kIsGoldilocksField<F>) {
    glk = simd::goldilocks_active();
  } else if constexpr (simd::kIsSimdU64Field<F>) {
    u64k = simd::u64_active();
  }
  for (std::size_t l0 = 0; l0 < n; l0 += chunk) {
    const std::size_t l1 = std::min(l0 + chunk, n);
    rep* dst = acc.data();
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const rep w = coeffs[k];
      if (w == F::zero) continue;
      const rep wp = shoup[k];
      const rep* src = rows[k];
      if (glk != nullptr) {
        glk->shoup_axpy(dst + l0, src + l0, w, wp, l1 - l0);
      } else if (u64k != nullptr) {
        u64k->shoup_axpy(dst + l0, src + l0, w, wp, l1 - l0, F::modulus);
      } else {
        for (std::size_t l = l0; l < l1; ++l) {
          dst[l] = F::add(dst[l], F::mul_shoup(src[l], w, wp));
        }
      }
    }
  }
}
}  // namespace detail

/// acc[l] += sum_k coeffs[k] * rows[k][l] — the fused MDS encode / decode /
/// weighted-aggregation GEMV. 32-bit fields take the split-word lazy path
/// described in the header comment; 64-bit Mersenne fields precompute each
/// coefficient's Shoup operand once per call (the measured winner there);
/// the remaining 64-bit fields accumulate full 128-bit products into
/// 3-limb lazy lanes (lazy192_accumulate) with ONE fold per output
/// element — no per-term reduction at all.
template <class F>
void axpy_accumulate_blocked(std::span<typename F::rep> acc,
                             std::span<const typename F::rep> coeffs,
                             std::span<const typename F::rep* const> rows,
                             std::size_t chunk = kDefaultChunkReps) {
  using rep = typename F::rep;
  lsa::require(coeffs.size() == rows.size(),
               "axpy_accumulate: coeffs/rows size mismatch");
  if (rows.empty()) return;
  if (chunk == 0) chunk = kDefaultChunkReps;
  const std::size_t n = acc.size();
  if constexpr (sizeof(rep) == 4) {
    const auto* vk =
        simd::kIsSimdU32Field<F> ? simd::u32_active() : nullptr;
    const std::size_t width = std::min(chunk, detail::kLazyWidth);
    std::uint64_t lo[detail::kLazyWidth];
    std::uint64_t hi[detail::kLazyWidth];
    for (std::size_t l0 = 0; l0 < n; l0 += width) {
      const std::size_t b = std::min(width, n - l0);
      std::fill_n(lo, b, std::uint64_t{0});
      std::fill_n(hi, b, std::uint64_t{0});
      rep* dst = acc.data() + l0;
      const auto fold = [&] {
        for (std::size_t l = 0; l < b; ++l) {
          // mod-ok: one generic reduction per kMaxLazyTerms accumulated
          // terms — amortized off the per-term path the lazy split buys.
          const std::uint64_t h = hi[l] % F::modulus;  // < 2^32
          const std::uint64_t t = (h << 16) + lo[l];   // < 2^63 + 2^48
          dst[l] = F::add(dst[l], F::from_u64(t));
        }
      };
      std::size_t pending = 0;
      for (std::size_t k = 0; k < rows.size(); ++k) {
        if (pending == simd::kMaxLazyTerms) {
          fold();
          std::fill_n(lo, b, std::uint64_t{0});
          std::fill_n(hi, b, std::uint64_t{0});
          pending = 0;
        }
        ++pending;
        const std::uint64_t wlo = coeffs[k] & 0xFFFFu;
        const std::uint64_t whi = coeffs[k] >> 16;
        const rep* src = rows[k] + l0;
        if (vk != nullptr) {
          vk->axpy_split(lo, hi, src, static_cast<std::uint32_t>(wlo),
                         static_cast<std::uint32_t>(whi), b);
        } else {
          for (std::size_t l = 0; l < b; ++l) {
            const std::uint64_t x = src[l];
            lo[l] += wlo * x;  // < 2^16 * 2^32 = 2^48 per term
            hi[l] += whi * x;
          }
        }
      }
      fold();
    }
  } else {
    if constexpr (ShoupCapable<F> && kPrefersShoupAxpy<F>) {
      if (F::has_shoup && n >= kShoupMinReps) {
        std::vector<rep> shoup(coeffs.size());
        shoup_precompute_into<F>(coeffs, std::span<rep>(shoup));
        detail::axpy_accumulate_shoup<F>(acc, coeffs,
                                         std::span<const rep>(shoup), rows,
                                         chunk);
        return;
      }
    }
    const simd::U64Kernels* u64k = nullptr;
    const simd::GoldilocksKernels* glk = nullptr;
    if constexpr (simd::kIsGoldilocksField<F>) {
      glk = simd::goldilocks_active();
      u64k = simd::u64_active();  // lazy192 rows are modulus-free
    } else if constexpr (simd::kIsSimdU64Field<F>) {
      u64k = simd::u64_active();
    }
    const std::size_t width = std::min(chunk, detail::kLazy192Width);
    std::uint64_t lo[detail::kLazy192Width];
    std::uint64_t mi[detail::kLazy192Width];
    std::uint64_t hi[detail::kLazy192Width];
    std::uint64_t folded[detail::kLazy192Width];
    for (std::size_t l0 = 0; l0 < n; l0 += width) {
      const std::size_t b = std::min(width, n - l0);
      std::fill_n(lo, b, std::uint64_t{0});
      std::fill_n(mi, b, std::uint64_t{0});
      std::fill_n(hi, b, std::uint64_t{0});
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const rep w = coeffs[k];
        if (w == F::zero) continue;
        const rep* src = rows[k] + l0;
        if (u64k != nullptr) {
          u64k->lazy192_axpy(lo, mi, hi, w, src, b);
        } else {
          for (std::size_t l = 0; l < b; ++l) {
            lazy192_accumulate<F>(lo[l], mi[l], hi[l], w, src[l]);
          }
        }
      }
      rep* dst = acc.data() + l0;
      if (glk != nullptr) {
        glk->fold192(folded, lo, mi, hi, b);
        glk->add_mod(dst, folded, b);
      } else {
        for (std::size_t l = 0; l < b; ++l) {
          dst[l] = F::add(dst[l], lazy192_fold<F>(lo[l], mi[l], hi[l]));
        }
      }
    }
  }
}

/// dst_rows[r][l] = sum_k coeffs[r * coeff_stride + k] * src_rows[k][l]
/// for every l < n: the multi-row product behind the mask codec's encode
/// and barycentric decode. Output rows are written, not accumulated; every
/// row must have n readable (dst: writable) elements. 32-bit fields run
/// the dispatch table's register-tiled gemm_split where the level has one;
/// other levels and 64-bit fields run axpy_accumulate_blocked once per
/// output row. Both are exact, so the results are bit-identical.
template <class F>
void gemm_rows(std::span<typename F::rep* const> dst_rows,
               const typename F::rep* coeffs, std::size_t coeff_stride,
               std::span<const typename F::rep* const> src_rows,
               std::size_t n, std::size_t chunk = kDefaultChunkReps) {
  using rep = typename F::rep;
  if constexpr (simd::kIsSimdU32Field<F>) {
    const auto* vk = simd::u32_active();
    if (vk != nullptr && vk->gemm_split != nullptr) {
      vk->gemm_split(dst_rows.data(), coeffs, coeff_stride, src_rows.data(),
                     dst_rows.size(), src_rows.size(), n, F::modulus);
      return;
    }
  }
  for (std::size_t r = 0; r < dst_rows.size(); ++r) {
    std::span<rep> dst(dst_rows[r], n);
    std::fill(dst.begin(), dst.end(), F::zero);
    axpy_accumulate_blocked<F>(
        dst, std::span<const rep>(coeffs + r * coeff_stride, src_rows.size()),
        src_rows, chunk);
  }
}

/// Precomputed-table variant for callers that reuse one coefficient set
/// across many calls with SHORT rows (the cached Shamir reconstruction
/// plan): shoup[k] must equal F::shoup_precompute(coeffs[k]). The table
/// makes the Shoup path free of its per-call division cost, so it is used
/// for every 64-bit Shoup field here; 32-bit fields keep their split-word
/// path. Bit-identical to the plain overload.
template <ShoupCapable F>
void axpy_accumulate_blocked_pre(std::span<typename F::rep> acc,
                                 std::span<const typename F::rep> coeffs,
                                 std::span<const typename F::rep> shoup,
                                 std::span<const typename F::rep* const> rows,
                                 std::size_t chunk = kDefaultChunkReps) {
  lsa::require(coeffs.size() == rows.size() && shoup.size() == rows.size(),
               "axpy_accumulate: coeffs/shoup/rows size mismatch");
  if (rows.empty()) return;
  if (chunk == 0) chunk = kDefaultChunkReps;
  if constexpr (sizeof(typename F::rep) == 8) {
    if (F::has_shoup) {
      detail::axpy_accumulate_shoup<F>(acc, coeffs, shoup, rows, chunk);
      return;
    }
  }
  axpy_accumulate_blocked<F>(acc, coeffs, rows, chunk);
}

/// Returns a + b (new vector).
template <class F>
[[nodiscard]] std::vector<typename F::rep> add(
    std::span<const typename F::rep> a, std::span<const typename F::rep> b) {
  std::vector<typename F::rep> out(a.begin(), a.end());
  add_inplace<F>(out, b);
  return out;
}

/// Returns a - b (new vector).
template <class F>
[[nodiscard]] std::vector<typename F::rep> sub(
    std::span<const typename F::rep> a, std::span<const typename F::rep> b) {
  std::vector<typename F::rep> out(a.begin(), a.end());
  sub_inplace<F>(out, b);
  return out;
}

/// Sum of all elements.
template <class F>
[[nodiscard]] typename F::rep sum(std::span<const typename F::rep> a) {
  typename F::rep s = F::zero;
  for (auto v : a) s = F::add(s, v);
  return s;
}

/// Inner product <a, b>.
template <class F>
[[nodiscard]] typename F::rep dot(std::span<const typename F::rep> a,
                                  std::span<const typename F::rep> b) {
  lsa::require(a.size() == b.size(), "field dot: size mismatch");
  typename F::rep s = F::zero;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s = F::add(s, F::mul(a[i], b[i]));
  }
  return s;
}

/// Batch inversion via Montgomery's trick: one inv() + 3(n-1) multiplications.
/// Precondition: no element is zero.
template <class F>
void batch_inv_inplace(std::span<typename F::rep> xs) {
  if (xs.empty()) return;
  std::vector<typename F::rep> prefix(xs.size());
  typename F::rep acc = F::one;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    lsa::require(xs[i] != F::zero, "batch_inv: zero element");
    prefix[i] = acc;
    acc = F::mul(acc, xs[i]);
  }
  typename F::rep inv_acc = F::inv(acc);
  for (std::size_t i = xs.size(); i-- > 0;) {
    const typename F::rep inv_i = F::mul(inv_acc, prefix[i]);
    inv_acc = F::mul(inv_acc, xs[i]);
    xs[i] = inv_i;
  }
}

}  // namespace lsa::field

// NEON (arm64 baseline) implementations of the dispatch-table kernels.
//
// Same contract as the x86 units: internal-linkage helpers, bit-identical
// to the scalar reference. NEON has no 64x64 multiply, so the mul-heavy
// entries (Shoup axpy, lazy-192, butterflies) run the exact scalar loops —
// the table stays fully populated so call sites only test the table
// pointer, and the elementwise add/sub/widen paths still vectorize.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

#include "field/goldilocks.h"
#include "field/simd/kernels_internal.h"

namespace lsa::field::simd::detail {
namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;
using GL = lsa::field::Goldilocks;

// ------------------------------------------------------- scalar reference

inline u32 s_add32(u32 a, u32 b, u32 q) {
  const u64 s = static_cast<u64>(a) + b;
  return static_cast<u32>(s >= q ? s - q : s);
}
inline u32 s_sub32(u32 a, u32 b, u32 q) { return a >= b ? a - b : q - b + a; }
inline u64 s_add64(u64 a, u64 b, u64 q) {
  const u64 s = a + b;
  return s >= q ? s - q : s;
}
inline u64 s_sub64(u64 a, u64 b, u64 q) { return a >= b ? a - b : q - b + a; }
inline u64 s_mul_shoup64(u64 a, u64 w, u64 wp, u64 q) {
  const u64 qhat = static_cast<u64>((static_cast<u128>(wp) * a) >> 64);
  u64 r = w * a - qhat * q;
  if (r >= q) r -= q;
  return r;
}
inline void s_lazy192(u64& lo, u64& mi, u64& hi, u64 a, u64 b) {
  const u128 pr = static_cast<u128>(a) * b;
  const u64 plo = static_cast<u64>(pr);
  const u64 phi = static_cast<u64>(pr >> 64);
  const u64 c1 = __builtin_add_overflow(lo, plo, &lo) ? 1u : 0u;
  hi += __builtin_add_overflow(mi, phi + c1, &mi) ? 1u : 0u;
}

// ------------------------------------------------------------ u32 kernels

void u32_add_mod(u32* acc, const u32* x, std::size_t n, u32 q) {
  const uint32x4_t qv = vdupq_n_u32(q);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t va = vld1q_u32(acc + i);
    const uint32x4_t vx = vld1q_u32(x + i);
    uint32x4_t s = vaddq_u32(va, vx);
    // wrapped 2^32 (true sum >= 2^32 > q) OR s >= q: subtract q once.
    const uint32x4_t red = vorrq_u32(vcltq_u32(s, va), vcgeq_u32(s, qv));
    s = vsubq_u32(s, vandq_u32(qv, red));
    vst1q_u32(acc + i, s);
  }
  for (; i < n; ++i) acc[i] = s_add32(acc[i], x[i], q);
}

void u32_sub_mod(u32* acc, const u32* x, std::size_t n, u32 q) {
  const uint32x4_t qv = vdupq_n_u32(q);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t va = vld1q_u32(acc + i);
    const uint32x4_t vx = vld1q_u32(x + i);
    const uint32x4_t d =
        vaddq_u32(vsubq_u32(va, vx), vandq_u32(qv, vcltq_u32(va, vx)));
    vst1q_u32(acc + i, d);
  }
  for (; i < n; ++i) acc[i] = s_sub32(acc[i], x[i], q);
}

void u32_accum_widen(u64* sums, const u32* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t x = vld1q_u32(src + i);
    vst1q_u64(sums + i, vaddw_u32(vld1q_u64(sums + i), vget_low_u32(x)));
    vst1q_u64(sums + i + 2,
              vaddw_u32(vld1q_u64(sums + i + 2), vget_high_u32(x)));
  }
  for (; i < n; ++i) sums[i] += src[i];
}

void u32_axpy_split(u64* lo, u64* hi, const u32* src, u32 wlo, u32 whi,
                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t x = vld1q_u32(src + i);
    const uint32x2_t xl = vget_low_u32(x);
    const uint32x2_t xh = vget_high_u32(x);
    vst1q_u64(lo + i, vmlal_n_u32(vld1q_u64(lo + i), xl, wlo));
    vst1q_u64(lo + i + 2, vmlal_n_u32(vld1q_u64(lo + i + 2), xh, wlo));
    vst1q_u64(hi + i, vmlal_n_u32(vld1q_u64(hi + i), xl, whi));
    vst1q_u64(hi + i + 2, vmlal_n_u32(vld1q_u64(hi + i + 2), xh, whi));
  }
  for (; i < n; ++i) {
    const u64 x = src[i];
    lo[i] += static_cast<u64>(wlo) * x;
    hi[i] += static_cast<u64>(whi) * x;
  }
}

// ------------------------------------------------------------ u64 kernels

void u64_add_mod(u64* acc, const u64* x, std::size_t n, u64 q) {
  const uint64x2_t qv = vdupq_n_u64(q);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t s = vaddq_u64(vld1q_u64(acc + i), vld1q_u64(x + i));
    s = vsubq_u64(s, vandq_u64(qv, vcgeq_u64(s, qv)));
    vst1q_u64(acc + i, s);
  }
  for (; i < n; ++i) acc[i] = s_add64(acc[i], x[i], q);
}

void u64_sub_mod(u64* acc, const u64* x, std::size_t n, u64 q) {
  const uint64x2_t qv = vdupq_n_u64(q);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(acc + i);
    const uint64x2_t vx = vld1q_u64(x + i);
    const uint64x2_t d =
        vaddq_u64(vsubq_u64(va, vx), vandq_u64(qv, vcltq_u64(va, vx)));
    vst1q_u64(acc + i, d);
  }
  for (; i < n; ++i) acc[i] = s_sub64(acc[i], x[i], q);
}

void u64_shoup_axpy(u64* acc, const u64* src, u64 w, u64 wp, std::size_t n,
                    u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = s_add64(acc[i], s_mul_shoup64(src[i], w, wp, q), q);
  }
}

void u64_lazy192_axpy(u64* lo, u64* mi, u64* hi, u64 w, const u64* src,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) s_lazy192(lo[i], mi[i], hi[i], w, src[i]);
}

void u64_lazy192_dot(u64* lo, u64* mi, u64* hi, const u64* coeffs,
                     std::size_t coeff_stride, const u64* x,
                     std::size_t terms, std::size_t lanes) {
  for (std::size_t l = 0; l < lanes; ++l) {
    u64 slo = 0, smi = 0, shi = 0;
    for (std::size_t c = 0; c < terms; ++c) {
      s_lazy192(slo, smi, shi, coeffs[c * coeff_stride], x[c * lanes + l]);
    }
    lo[l] = slo;
    mi[l] = smi;
    hi[l] = shi;
  }
}

// ----------------------------------------------------- Goldilocks kernels

constexpr u64 kGlEps = 0xFFFFFFFFull;  // 2^32 - 1 == 2^64 mod p
constexpr u64 kGlR64 = kGlEps;
constexpr u64 kGlR128 = GL::mul(kGlR64, kGlR64);  // 2^128 mod p

void gl_add_mod(u64* acc, const u64* x, std::size_t n) {
  const uint64x2_t pv = vdupq_n_u64(GL::modulus);
  const uint64x2_t ev = vdupq_n_u64(kGlEps);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(acc + i);
    uint64x2_t s = vaddq_u64(va, vld1q_u64(x + i));
    // wrapped 2^64: +2^64 == +eps (mod p); the fixup cannot wrap again.
    s = vaddq_u64(s, vandq_u64(ev, vcltq_u64(s, va)));
    s = vsubq_u64(s, vandq_u64(pv, vcgeq_u64(s, pv)));
    vst1q_u64(acc + i, s);
  }
  for (; i < n; ++i) acc[i] = GL::add(acc[i], x[i]);
}

void gl_sub_mod(u64* acc, const u64* x, std::size_t n) {
  const uint64x2_t ev = vdupq_n_u64(kGlEps);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(acc + i);
    const uint64x2_t vx = vld1q_u64(x + i);
    const uint64x2_t d =
        vsubq_u64(vsubq_u64(va, vx), vandq_u64(ev, vcltq_u64(va, vx)));
    vst1q_u64(acc + i, d);
  }
  for (; i < n; ++i) acc[i] = GL::sub(acc[i], x[i]);
}

void gl_shoup_axpy(u64* acc, const u64* src, u64 w, u64 wp, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = GL::add(acc[i], GL::mul_shoup(src[i], w, wp));
  }
}

void gl_mul_shoup_inplace(u64* a, u64 s, u64 sp, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] = GL::mul_shoup(a[i], s, sp);
}

void gl_mul_shoup_rows(u64* a, const u64* s, const u64* sp, std::size_t rows,
                       std::size_t lanes) {
  for (std::size_t r = 0; r < rows; ++r) {
    gl_mul_shoup_inplace(a + r * lanes, s[r], sp[r], lanes);
  }
}

void gl_fold192(u64* out, const u64* lo, const u64* mi, const u64* hi,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = GL::add(
        GL::mul(GL::from_u64(hi[i]), kGlR128),
        GL::add(GL::mul(GL::from_u64(mi[i]), kGlR64), GL::from_u64(lo[i])));
  }
}

void gl_butterfly_tw(u64* a, u64* b, const u64* tw, const u64* twp,
                     std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const u64 t = GL::mul_shoup(b[j], tw[j], twp[j]);
    const u64 u = a[j];
    a[j] = GL::add(u, t);
    b[j] = GL::sub(u, t);
  }
}

void gl_butterfly_soa(u64* a, u64* b, const u64* tw, const u64* twp,
                      std::size_t nj, std::size_t lanes) {
  for (std::size_t j = 0; j < nj; ++j) {
    u64* aj = a + j * lanes;
    u64* bj = b + j * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      const u64 t = GL::mul_shoup(bj[l], tw[j], twp[j]);
      const u64 u = aj[l];
      aj[l] = GL::add(u, t);
      bj[l] = GL::sub(u, t);
    }
  }
}

}  // namespace

const U32Kernels kU32Neon = {
    &u32_add_mod,
    &u32_sub_mod,
    &u32_accum_widen,
    &u32_axpy_split,
    nullptr,  // gemm_split: no tiled NEON body; per-row path
    nullptr,  // chacha20_blocks: no NEON body; scalar block loop
    nullptr,  // sample_pm32: no NEON body; scalar sampler
    nullptr,  // crc32_fold: no PMULL body; slice-by-8
};

const U64Kernels kU64Neon = {
    &u64_add_mod,
    &u64_sub_mod,
    &u64_shoup_axpy,
    &u64_lazy192_axpy,
    &u64_lazy192_dot,
};

const GoldilocksKernels kGoldilocksNeon = {
    &gl_add_mod,
    &gl_sub_mod,
    &gl_shoup_axpy,
    &gl_mul_shoup_inplace,
    &gl_mul_shoup_rows,
    &gl_fold192,
    &gl_butterfly_tw,
    &gl_butterfly_soa,
};

}  // namespace lsa::field::simd::detail

#endif  // __aarch64__

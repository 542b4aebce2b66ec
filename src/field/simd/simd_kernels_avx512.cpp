// AVX-512 (F + DQ) implementations of the dispatch-table kernels.
//
// Same contract as the AVX2 unit (simd_kernels_avx2.cpp): compiled with its
// own -mavx512f -mavx512dq flags, reached only through the runtime-probed
// dispatch tables, all helpers internal-linkage, every kernel bit-identical
// to the scalar reference. AVX-512 buys native 64-bit low multiplies
// (_mm512_mullo_epi64, DQ) and unsigned compares into mask registers, so
// the carry chains use masked add/sub instead of the AVX2 sign-flip trick.
#if defined(__x86_64__) || defined(_M_X64)
#if defined(LSA_HAVE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "field/goldilocks.h"
#include "field/simd/crc32_fold_x86.h"
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
/// floor((2^64 - 1) / q): the Barrett constant of s_reduce64.
inline u64 barrett_magic(u32 q) { return ~u64{0} / q; }
/// x mod q for any u64 x: qhat = floor(x * magic / 2^64) lies in
/// [floor(x/q) - 1, floor(x/q)], so one conditional subtraction
/// canonicalizes.
inline u64 s_reduce64(u64 x, u64 q, u64 magic) {
  const u64 qhat = static_cast<u64>((static_cast<u128>(x) * magic) >> 64);
  u64 r = x - qhat * q;
  if (r >= q) r -= q;
  return r;
}
/// (hi * 2^16 + lo) mod q for split-word accumulators (hi, lo < 2^63) —
/// the fold of field_vec.h's axpy_accumulate_blocked.
inline u32 s_fold_split(u64 lo, u64 hi, u64 q, u64 magic) {
  const u64 h = s_reduce64(hi, q, magic);  // < 2^32
  return static_cast<u32>(s_reduce64((h << 16) + lo, q, magic));
}

// ------------------------------------------------------------ vector bits

inline __m512i one64() { return _mm512_set1_epi64(1); }

/// High 64 bits of the unsigned 64x64 product per lane (32-bit cross
/// products; the low half comes from native _mm512_mullo_epi64 instead).
inline __m512i mulhi64(__m512i a, __m512i b) {
  const __m512i m32 = _mm512_set1_epi64(0xFFFFFFFFll);
  const __m512i ah = _mm512_srli_epi64(a, 32);
  const __m512i bh = _mm512_srli_epi64(b, 32);
  const __m512i p0 = _mm512_mul_epu32(a, b);
  const __m512i p1 = _mm512_mul_epu32(a, bh);
  const __m512i p2 = _mm512_mul_epu32(ah, b);
  const __m512i p3 = _mm512_mul_epu32(ah, bh);
  const __m512i mid = _mm512_add_epi64(
      _mm512_add_epi64(_mm512_srli_epi64(p0, 32), _mm512_and_si512(p1, m32)),
      _mm512_and_si512(p2, m32));
  return _mm512_add_epi64(
      _mm512_add_epi64(p3, _mm512_srli_epi64(p1, 32)),
      _mm512_add_epi64(_mm512_srli_epi64(p2, 32), _mm512_srli_epi64(mid, 32)));
}

// ------------------------------------------------------------ u32 kernels

void u32_add_mod(u32* acc, const u32* x, std::size_t n, u32 q) {
  const __m512i qv = _mm512_set1_epi32(static_cast<int>(q));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i va = _mm512_loadu_si512(acc + i);
    const __m512i vx = _mm512_loadu_si512(x + i);
    __m512i s = _mm512_add_epi32(va, vx);
    // wrapped 2^32 (true sum >= 2^32 > q) OR s >= q: subtract q once.
    const __mmask16 red = _mm512_cmplt_epu32_mask(s, va) |
                          _mm512_cmpge_epu32_mask(s, qv);
    s = _mm512_mask_sub_epi32(s, red, s, qv);
    _mm512_storeu_si512(acc + i, s);
  }
  for (; i < n; ++i) acc[i] = s_add32(acc[i], x[i], q);
}

void u32_sub_mod(u32* acc, const u32* x, std::size_t n, u32 q) {
  const __m512i qv = _mm512_set1_epi32(static_cast<int>(q));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i va = _mm512_loadu_si512(acc + i);
    const __m512i vx = _mm512_loadu_si512(x + i);
    const __mmask16 borrow = _mm512_cmplt_epu32_mask(va, vx);
    __m512i d = _mm512_sub_epi32(va, vx);
    d = _mm512_mask_add_epi32(d, borrow, d, qv);
    _mm512_storeu_si512(acc + i, d);
  }
  for (; i < n; ++i) acc[i] = s_sub32(acc[i], x[i], q);
}

void u32_accum_widen(u64* sums, const u32* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    _mm512_storeu_si512(sums + i,
                        _mm512_add_epi64(_mm512_loadu_si512(sums + i), x));
  }
  for (; i < n; ++i) sums[i] += src[i];
}

void u32_axpy_split(u64* lo, u64* hi, const u32* src, u32 wlo, u32 whi,
                    std::size_t n) {
  const __m512i vwlo = _mm512_set1_epi64(static_cast<long long>(wlo));
  const __m512i vwhi = _mm512_set1_epi64(static_cast<long long>(whi));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    _mm512_storeu_si512(
        lo + i, _mm512_add_epi64(_mm512_loadu_si512(lo + i),
                                 _mm512_mul_epu32(x, vwlo)));
    _mm512_storeu_si512(
        hi + i, _mm512_add_epi64(_mm512_loadu_si512(hi + i),
                                 _mm512_mul_epu32(x, vwhi)));
  }
  for (; i < n; ++i) {
    const u64 x = src[i];
    lo[i] += static_cast<u64>(wlo) * x;
    hi[i] += static_cast<u64>(whi) * x;
  }
}

/// Output rows per GEMM tile: 4 rows x 4 accumulators take 16 of the 32
/// zmm registers, leaving room for the split input and a coefficient.
constexpr std::size_t kGemmRows = 4;

/// One tile of gemm_split: R output rows x the 16 lanes at column col
/// (the first nl of them live; Full means nl == 16). A zmm of 16 u32
/// inputs feeds even lanes from the low halves of its u64 lanes and odd
/// lanes after a 32-bit shift; each half splits into 16-bit pieces so the
/// products with a full 32-bit coefficient stay < 2^48.
template <std::size_t R, bool Full>
void gemm_tile(u32* const* dst, const u32* coeffs, std::size_t cs,
               const u32* const* src, std::size_t terms, std::size_t col,
               std::size_t nl, u32 q, u64 magic) {
  const __m512i m16 = _mm512_set1_epi64(0xFFFF);
  const __mmask16 live = static_cast<__mmask16>((1u << nl) - 1u);
  // One lazy window per kMaxLazyTerms terms; the first window always runs,
  // so terms == 0 writes zeros.
  for (std::size_t k0 = 0; k0 == 0 || k0 < terms; k0 += kMaxLazyTerms) {
    const std::size_t k1 = std::min(terms, k0 + kMaxLazyTerms);
    __m512i lo_e[R], lo_o[R], hi_e[R], hi_o[R];
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      lo_e[r] = lo_o[r] = hi_e[r] = hi_o[r] = _mm512_setzero_si512();
    }
    for (std::size_t k = k0; k < k1; ++k) {
      const u32* s = src[k] + col;
      __m512i x;
      if constexpr (Full) {
        x = _mm512_loadu_si512(s);
      } else {
        x = _mm512_maskz_loadu_epi32(live, s);
      }
      const __m512i xlo_e = _mm512_and_si512(x, m16);
      const __m512i xhi_e = _mm512_srli_epi32(x, 16);
      const __m512i xlo_o = _mm512_and_si512(_mm512_srli_epi64(x, 32), m16);
      const __m512i xhi_o = _mm512_srli_epi64(x, 48);
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        const __m512i w =
            _mm512_set1_epi32(static_cast<int>(coeffs[r * cs + k]));
        lo_e[r] = _mm512_add_epi64(lo_e[r], _mm512_mul_epu32(xlo_e, w));
        hi_e[r] = _mm512_add_epi64(hi_e[r], _mm512_mul_epu32(xhi_e, w));
        lo_o[r] = _mm512_add_epi64(lo_o[r], _mm512_mul_epu32(xlo_o, w));
        hi_o[r] = _mm512_add_epi64(hi_o[r], _mm512_mul_epu32(xhi_o, w));
      }
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      alignas(64) u64 lo[16];
      alignas(64) u64 hi[16];
      // Interleave even/odd lanes back into column order.
      const __m512i ie = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
      const __m512i io = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
      _mm512_store_si512(lo, _mm512_permutex2var_epi64(lo_e[r], ie, lo_o[r]));
      _mm512_store_si512(lo + 8,
                         _mm512_permutex2var_epi64(lo_e[r], io, lo_o[r]));
      _mm512_store_si512(hi, _mm512_permutex2var_epi64(hi_e[r], ie, hi_o[r]));
      _mm512_store_si512(hi + 8,
                         _mm512_permutex2var_epi64(hi_e[r], io, hi_o[r]));
      u32* d = dst[r] + col;
      for (std::size_t i = 0; i < nl; ++i) {
        const u32 v = s_fold_split(lo[i], hi[i], q, magic);
        d[i] = k0 == 0 ? v : s_add32(d[i], v, q);
      }
    }
  }
}

/// Runs the last rows < kGemmRows of a lane block as one partial tile.
template <std::size_t R, bool Full>
void gemm_rest(u32* const* dst, const u32* coeffs, std::size_t cs,
               const u32* const* src, std::size_t rest, std::size_t terms,
               std::size_t col, std::size_t nl, u32 q, u64 magic) {
  if constexpr (R > 0) {
    if (rest == R) {
      gemm_tile<R, Full>(dst, coeffs, cs, src, terms, col, nl, q, magic);
    } else {
      gemm_rest<R - 1, Full>(dst, coeffs, cs, src, rest, terms, col, nl, q,
                             magic);
    }
  }
}

template <bool Full>
void gemm_block(u32* const* dst, const u32* coeffs, std::size_t cs,
                const u32* const* src, std::size_t rows, std::size_t terms,
                std::size_t col, std::size_t nl, u32 q, u64 magic) {
  std::size_t r0 = 0;
  for (; r0 + kGemmRows <= rows; r0 += kGemmRows) {
    gemm_tile<kGemmRows, Full>(dst + r0, coeffs + r0 * cs, cs, src, terms,
                               col, nl, q, magic);
  }
  gemm_rest<kGemmRows - 1, Full>(dst + r0, coeffs + r0 * cs, cs, src,
                                 rows - r0, terms, col, nl, q, magic);
}

void u32_gemm_split(u32* const* dst, const u32* coeffs, std::size_t cs,
                    const u32* const* src, std::size_t rows,
                    std::size_t terms, std::size_t n, u32 q) {
  const u64 magic = barrett_magic(q);
  std::size_t col = 0;
  for (; col + 16 <= n; col += 16) {
    gemm_block<true>(dst, coeffs, cs, src, rows, terms, col, 16, q, magic);
  }
  if (col < n) {
    gemm_block<false>(dst, coeffs, cs, src, rows, terms, col, n - col, q,
                      magic);
  }
}

// ---------------------------------------------------- ChaCha20 keystream
//
// Goll and Gueron's layout: vector w holds state word w of 16 blocks, one
// block per lane, each lane with its own counter. The rounds run on whole
// vectors (native 32-bit rotates), and a 16 x 16 word transpose on store
// turns the lanes back into 16 contiguous 64-byte blocks.

// gcc 12 reports the _mm512_undefined_epi32() passthrough inside the
// rotate, unpack and lane-shuffle intrinsics as used uninitialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"

inline void chacha_qr(__m512i& a, __m512i& b, __m512i& c, __m512i& d) {
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

/// 16 blocks at counters state[12] + 0..15 (mod 2^32) into out[0, 1024).
void chacha_batch16(const u32* state, std::uint8_t* out) {
  __m512i in[16];
  for (int w = 0; w < 16; ++w) {
    in[w] = _mm512_set1_epi32(static_cast<int>(state[w]));
  }
  in[12] = _mm512_add_epi32(
      in[12], _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                14, 15));
  __m512i x[16];
  for (int w = 0; w < 16; ++w) x[w] = in[w];
  for (int round = 0; round < 10; ++round) {
    chacha_qr(x[0], x[4], x[8], x[12]);
    chacha_qr(x[1], x[5], x[9], x[13]);
    chacha_qr(x[2], x[6], x[10], x[14]);
    chacha_qr(x[3], x[7], x[11], x[15]);
    chacha_qr(x[0], x[5], x[10], x[15]);
    chacha_qr(x[1], x[6], x[11], x[12]);
    chacha_qr(x[2], x[7], x[8], x[13]);
    chacha_qr(x[3], x[4], x[9], x[14]);
  }
  for (int w = 0; w < 16; ++w) x[w] = _mm512_add_epi32(x[w], in[w]);
  // Transpose each group of four words g: after the 32- and 64-bit
  // unpacks, 128-bit lane k of t[g][j] holds words 4g..4g+3 of block
  // 4k + j; the two i32x4 shuffles then gather lane k of t[0..3][j].
  __m512i t[4][4];
  for (int g = 0; g < 4; ++g) {
    const __m512i a0 = _mm512_unpacklo_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i a1 = _mm512_unpackhi_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i a2 = _mm512_unpacklo_epi32(x[4 * g + 2], x[4 * g + 3]);
    const __m512i a3 = _mm512_unpackhi_epi32(x[4 * g + 2], x[4 * g + 3]);
    t[g][0] = _mm512_unpacklo_epi64(a0, a2);
    t[g][1] = _mm512_unpackhi_epi64(a0, a2);
    t[g][2] = _mm512_unpacklo_epi64(a1, a3);
    t[g][3] = _mm512_unpackhi_epi64(a1, a3);
  }
  for (int j = 0; j < 4; ++j) {
    const __m512i lo01 = _mm512_shuffle_i32x4(t[0][j], t[1][j], 0x44);
    const __m512i hi01 = _mm512_shuffle_i32x4(t[0][j], t[1][j], 0xEE);
    const __m512i lo23 = _mm512_shuffle_i32x4(t[2][j], t[3][j], 0x44);
    const __m512i hi23 = _mm512_shuffle_i32x4(t[2][j], t[3][j], 0xEE);
    _mm512_storeu_si512(out + 64 * j, _mm512_shuffle_i32x4(lo01, lo23, 0x88));
    _mm512_storeu_si512(out + 64 * (4 + j),
                        _mm512_shuffle_i32x4(lo01, lo23, 0xDD));
    _mm512_storeu_si512(out + 64 * (8 + j),
                        _mm512_shuffle_i32x4(hi01, hi23, 0x88));
    _mm512_storeu_si512(out + 64 * (12 + j),
                        _mm512_shuffle_i32x4(hi01, hi23, 0xDD));
  }
}

void u32_chacha20_blocks(const u32* state, std::uint8_t* out,
                         std::size_t nblocks) {
  u32 st[16];
  std::copy(state, state + 16, st);
  for (; nblocks >= 16; nblocks -= 16, out += 1024, st[12] += 16) {
    chacha_batch16(st, out);
  }
  if (nblocks > 0) {
    // A batch always stores 16 blocks: a short one goes through a local
    // buffer so nothing lands past out.
    alignas(64) std::uint8_t tail[1024];
    chacha_batch16(st, tail);
    std::copy(tail, tail + 64 * nblocks, out);
  }
}

#pragma GCC diagnostic pop

// ----------------------------------------------------- uniform sampler

/// v mod q for q = 2^32 - c, c < 2^16: 2^32 = c (mod q), so two folds of
/// the high word bring v below 2^32 + c^2 < 2q, and one conditional
/// subtraction finishes.
inline u32 s_reduce_pm(u64 v, u64 c, u64 q) {
  v = (v >> 32) * c + (v & 0xFFFFFFFFu);
  v = (v >> 32) * c + (v & 0xFFFFFFFFu);
  return static_cast<u32>(v >= q ? v - q : v);
}

std::size_t u32_sample_pm32(u32* out, const u64* draws, std::size_t n,
                            u32 q) {
  const u64 c = (u64{1} << 32) - q;
  const u64 limit = (~u64{0} / q) * q;
  const __m512i vc = _mm512_set1_epi64(static_cast<long long>(c));
  const __m512i vq = _mm512_set1_epi64(static_cast<long long>(q));
  const __m512i vlimit = _mm512_set1_epi64(static_cast<long long>(limit));
  const __m512i m32 = _mm512_set1_epi64(0xFFFFFFFFll);
  std::size_t i = 0;
  std::size_t j = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(draws + i);
    if (_mm512_cmplt_epu64_mask(v, vlimit) != 0xFF) {
      // A rejected draw in the group: the scalar loop keeps the order.
      for (std::size_t k = i; k < i + 8; ++k) {
        if (draws[k] < limit) out[j++] = s_reduce_pm(draws[k], c, q);
      }
      continue;
    }
    __m512i x = _mm512_add_epi64(
        _mm512_mul_epu32(_mm512_srli_epi64(v, 32), vc), _mm512_and_si512(v, m32));
    x = _mm512_add_epi64(_mm512_mul_epu32(_mm512_srli_epi64(x, 32), vc),
                         _mm512_and_si512(x, m32));
    // x - q wraps above x exactly when x < q.
    x = _mm512_min_epu64(x, _mm512_sub_epi64(x, vq));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                        _mm512_cvtepi64_epi32(x));
    j += 8;
  }
  for (; i < n; ++i) {
    if (draws[i] < limit) out[j++] = s_reduce_pm(draws[i], c, q);
  }
  return j;
}

// ------------------------------------------------------ CRC-32 folding
// Built only when the unit also has -mvpclmulqdq and -mpclmul; the
// dispatcher hands this body out only on hosts whose probe found both bits
// (AVX-512F/DQ does not imply them: Skylake-SP and Cascade Lake lack
// VPCLMULQDQ). It needs AVX-512F for the 512-bit lanes and PCLMULQDQ with
// SSE4.1 for the 128-bit tail and the final reduction, nothing else.

#if defined(__VPCLMULQDQ__) && defined(__PCLMUL__)

/// crc_fold_pair<D> in every 128-bit lane.
template <unsigned D>
inline __m512i crc_fold_pair4() {
  constexpr auto lo = static_cast<long long>(kCrc32Fold<D + 32>);
  constexpr auto hi = static_cast<long long>(kCrc32Fold<D - 32>);
  return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

/// Folds each 128-bit lane of x by its lane of k and xors in y.
inline __m512i clmul_fold_xor(__m512i x, __m512i k, __m512i y) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), y,
                                   0x96);  // a ^ b ^ c
}

u32 u32_crc32_fold(u32 state, const std::uint8_t* p, std::size_t n) {
  const __m512i k512 = crc_fold_pair4<512>();
  __m512i x0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(state))));
  if (n >= 256) {
    // Four 512-bit lanes, 256 bytes per step, then fold them into x0.
    const __m512i k2048 = crc_fold_pair4<2048>();
    __m512i x1 = _mm512_loadu_si512(p + 64);
    __m512i x2 = _mm512_loadu_si512(p + 128);
    __m512i x3 = _mm512_loadu_si512(p + 192);
    p += 256;
    n -= 256;
    for (; n >= 256; p += 256, n -= 256) {
      x0 = clmul_fold_xor(x0, k2048, _mm512_loadu_si512(p));
      x1 = clmul_fold_xor(x1, k2048, _mm512_loadu_si512(p + 64));
      x2 = clmul_fold_xor(x2, k2048, _mm512_loadu_si512(p + 128));
      x3 = clmul_fold_xor(x3, k2048, _mm512_loadu_si512(p + 192));
    }
    x0 = clmul_fold_xor(x0, k512, x1);
    x0 = clmul_fold_xor(x0, k512, x2);
    x0 = clmul_fold_xor(x0, k512, x3);
  } else {
    p += 64;
    n -= 64;
  }
  for (; n >= 64; p += 64, n -= 64) {
    x0 = clmul_fold_xor(x0, k512, _mm512_loadu_si512(p));
  }
  // Lane i of x0 sits (3 - i) * 128 bits before the end of the folded data:
  // fold lanes 0..2 that far (lane 3's zero multipliers clear it, and it
  // comes back unfolded through the xor operand), then xor the four lanes.
  const __m512i klanes = _mm512_set_epi64(
      0, 0, static_cast<long long>(kCrc32Fold<96>),
      static_cast<long long>(kCrc32Fold<160>),
      static_cast<long long>(kCrc32Fold<224>),
      static_cast<long long>(kCrc32Fold<288>),
      static_cast<long long>(kCrc32Fold<352>),
      static_cast<long long>(kCrc32Fold<416>));
  alignas(64) __m128i lanes[4];
  _mm512_store_si512(lanes, clmul_fold_xor(x0, klanes,
                                           _mm512_maskz_mov_epi64(0xC0, x0)));
  __m128i x = _mm_xor_si128(_mm_xor_si128(lanes[0], lanes[1]),
                            _mm_xor_si128(lanes[2], lanes[3]));
  const __m128i k128 = crc_fold_pair<128>();
  for (; n >= 16; p += 16, n -= 16) {
    x = _mm_xor_si128(crc_clmul_fold(x, k128), crc_load128(p));
  }
  return crc32_reduce128(x);
}

#endif  // __VPCLMULQDQ__ && __PCLMUL__

// ------------------------------------------------------------ u64 kernels

void u64_add_mod(u64* acc, const u64* x, std::size_t n, u64 q) {
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i s = _mm512_add_epi64(_mm512_loadu_si512(acc + i),
                                 _mm512_loadu_si512(x + i));  // no wrap
    s = _mm512_mask_sub_epi64(s, _mm512_cmpge_epu64_mask(s, qv), s, qv);
    _mm512_storeu_si512(acc + i, s);
  }
  for (; i < n; ++i) acc[i] = s_add64(acc[i], x[i], q);
}

void u64_sub_mod(u64* acc, const u64* x, std::size_t n, u64 q) {
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(acc + i);
    const __m512i vx = _mm512_loadu_si512(x + i);
    __m512i d = _mm512_sub_epi64(va, vx);
    d = _mm512_mask_add_epi64(d, _mm512_cmplt_epu64_mask(va, vx), d, qv);
    _mm512_storeu_si512(acc + i, d);
  }
  for (; i < n; ++i) acc[i] = s_sub64(acc[i], x[i], q);
}

void u64_shoup_axpy(u64* acc, const u64* src, u64 w, u64 wp, std::size_t n,
                    u64 q) {
  const __m512i vw = _mm512_set1_epi64(static_cast<long long>(w));
  const __m512i vwp = _mm512_set1_epi64(static_cast<long long>(wp));
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i vx = _mm512_loadu_si512(src + i);
    const __m512i qhat = mulhi64(vwp, vx);
    __m512i r = _mm512_sub_epi64(_mm512_mullo_epi64(vw, vx),
                                 _mm512_mullo_epi64(qhat, qv));
    r = _mm512_mask_sub_epi64(r, _mm512_cmpge_epu64_mask(r, qv), r, qv);
    __m512i s = _mm512_add_epi64(_mm512_loadu_si512(acc + i), r);
    s = _mm512_mask_sub_epi64(s, _mm512_cmpge_epu64_mask(s, qv), s, qv);
    _mm512_storeu_si512(acc + i, s);
  }
  for (; i < n; ++i) {
    acc[i] = s_add64(acc[i], s_mul_shoup64(src[i], w, wp, q), q);
  }
}

/// One lazy-192 accumulation step on 8 lanes held in registers.
inline void lazy192_step(__m512i plo, __m512i phi, __m512i& lo, __m512i& mi,
                         __m512i& hi) {
  lo = _mm512_add_epi64(lo, plo);
  const __mmask8 c1 = _mm512_cmplt_epu64_mask(lo, plo);
  const __m512i addend = _mm512_mask_add_epi64(phi, c1, phi, one64());
  mi = _mm512_add_epi64(mi, addend);
  const __mmask8 c2 = _mm512_cmplt_epu64_mask(mi, addend);
  hi = _mm512_mask_add_epi64(hi, c2, hi, one64());
}

void u64_lazy192_axpy(u64* lo, u64* mi, u64* hi, u64 w, const u64* src,
                      std::size_t n) {
  const __m512i vw = _mm512_set1_epi64(static_cast<long long>(w));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i vx = _mm512_loadu_si512(src + i);
    const __m512i plo = _mm512_mullo_epi64(vw, vx);
    const __m512i phi = mulhi64(vw, vx);
    __m512i vlo = _mm512_loadu_si512(lo + i);
    __m512i vmi = _mm512_loadu_si512(mi + i);
    __m512i vhi = _mm512_loadu_si512(hi + i);
    lazy192_step(plo, phi, vlo, vmi, vhi);
    _mm512_storeu_si512(lo + i, vlo);
    _mm512_storeu_si512(mi + i, vmi);
    _mm512_storeu_si512(hi + i, vhi);
  }
  for (; i < n; ++i) s_lazy192(lo[i], mi[i], hi[i], w, src[i]);
}

void u64_lazy192_dot(u64* lo, u64* mi, u64* hi, const u64* coeffs,
                     std::size_t coeff_stride, const u64* x,
                     std::size_t terms, std::size_t lanes) {
  std::size_t l = 0;
  for (; l + 8 <= lanes; l += 8) {
    __m512i vlo = _mm512_setzero_si512();
    __m512i vmi = _mm512_setzero_si512();
    __m512i vhi = _mm512_setzero_si512();
    for (std::size_t c = 0; c < terms; ++c) {
      const __m512i vw =
          _mm512_set1_epi64(static_cast<long long>(coeffs[c * coeff_stride]));
      const __m512i vx = _mm512_loadu_si512(x + c * lanes + l);
      lazy192_step(_mm512_mullo_epi64(vw, vx), mulhi64(vw, vx), vlo, vmi,
                   vhi);
    }
    _mm512_storeu_si512(lo + l, vlo);
    _mm512_storeu_si512(mi + l, vmi);
    _mm512_storeu_si512(hi + l, vhi);
  }
  for (; l < lanes; ++l) {
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

constexpr u64 kGlP = GL::modulus;
constexpr u64 kGlEps = 0xFFFFFFFFull;  // 2^32 - 1 == 2^64 mod p
constexpr u64 kGlR64 = kGlEps;
constexpr u64 kGlR128 = GL::mul(kGlR64, kGlR64);  // 2^128 mod p
constexpr u64 kGlR64Pre = GL::shoup_precompute(kGlR64);
constexpr u64 kGlR128Pre = GL::shoup_precompute(kGlR128);

inline __m512i gl_p() { return _mm512_set1_epi64(static_cast<long long>(kGlP)); }
inline __m512i gl_eps() {
  return _mm512_set1_epi64(static_cast<long long>(kGlEps));
}

inline __m512i gl_add(__m512i a, __m512i b) {
  __m512i s = _mm512_add_epi64(a, b);
  // wrapped 2^64: +2^64 == +eps (mod p); the fixup cannot wrap again.
  s = _mm512_mask_add_epi64(s, _mm512_cmplt_epu64_mask(s, a), s, gl_eps());
  return _mm512_mask_sub_epi64(s, _mm512_cmpge_epu64_mask(s, gl_p()), s,
                               gl_p());
}

inline __m512i gl_sub(__m512i a, __m512i b) {
  const __mmask8 borrow = _mm512_cmplt_epu64_mask(a, b);
  const __m512i d = _mm512_sub_epi64(a, b);
  return _mm512_mask_sub_epi64(d, borrow, d, gl_eps());
}

/// mul_shoup(a, s, sp) per lane, valid for ANY u64 a (see the AVX2 unit).
inline __m512i gl_mul_shoup(__m512i a, __m512i vs, __m512i vsp) {
  const __m512i qhat = mulhi64(vsp, a);
  const __m512i sa_lo = _mm512_mullo_epi64(vs, a);
  const __m512i sa_hi = mulhi64(vs, a);
  // qeps = qhat * eps = (qhat << 32) - qhat as a 128-bit value.
  const __m512i qsl = _mm512_slli_epi64(qhat, 32);
  const __m512i qeps_lo = _mm512_sub_epi64(qsl, qhat);
  const __mmask8 borrow = _mm512_cmplt_epu64_mask(qsl, qhat);
  __m512i qeps_hi = _mm512_srli_epi64(qhat, 32);
  qeps_hi = _mm512_mask_sub_epi64(qeps_hi, borrow, qeps_hi, one64());
  // r128 = s*a + qeps - (qhat << 64); high word provably in {0, 1}.
  __m512i r_lo = _mm512_add_epi64(sa_lo, qeps_lo);
  const __mmask8 c1 = _mm512_cmplt_epu64_mask(r_lo, qeps_lo);
  __m512i r_hi = _mm512_add_epi64(sa_hi, qeps_hi);
  r_hi = _mm512_mask_add_epi64(r_hi, c1, r_hi, one64());
  r_hi = _mm512_sub_epi64(r_hi, qhat);
  // fold the 2^64 bit as +eps (cannot wrap or reach p), then canonicalize.
  const __mmask8 fold = _mm512_test_epi64_mask(r_hi, r_hi);
  r_lo = _mm512_mask_add_epi64(r_lo, fold, r_lo, gl_eps());
  return _mm512_mask_sub_epi64(r_lo, _mm512_cmpge_epu64_mask(r_lo, gl_p()),
                               r_lo, gl_p());
}

void gl_add_mod(u64* acc, const u64* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(acc + i, gl_add(_mm512_loadu_si512(acc + i),
                                        _mm512_loadu_si512(x + i)));
  }
  for (; i < n; ++i) acc[i] = GL::add(acc[i], x[i]);
}

void gl_sub_mod(u64* acc, const u64* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(acc + i, gl_sub(_mm512_loadu_si512(acc + i),
                                        _mm512_loadu_si512(x + i)));
  }
  for (; i < n; ++i) acc[i] = GL::sub(acc[i], x[i]);
}

void gl_shoup_axpy(u64* acc, const u64* src, u64 w, u64 wp, std::size_t n) {
  const __m512i vw = _mm512_set1_epi64(static_cast<long long>(w));
  const __m512i vwp = _mm512_set1_epi64(static_cast<long long>(wp));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i t = gl_mul_shoup(_mm512_loadu_si512(src + i), vw, vwp);
    _mm512_storeu_si512(acc + i, gl_add(_mm512_loadu_si512(acc + i), t));
  }
  for (; i < n; ++i) acc[i] = GL::add(acc[i], GL::mul_shoup(src[i], w, wp));
}

void gl_mul_shoup_inplace(u64* a, u64 s, u64 sp, std::size_t n) {
  const __m512i vs = _mm512_set1_epi64(static_cast<long long>(s));
  const __m512i vsp = _mm512_set1_epi64(static_cast<long long>(sp));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(a + i,
                        gl_mul_shoup(_mm512_loadu_si512(a + i), vs, vsp));
  }
  for (; i < n; ++i) a[i] = GL::mul_shoup(a[i], s, sp);
}

void gl_mul_shoup_rows(u64* a, const u64* s, const u64* sp, std::size_t rows,
                       std::size_t lanes) {
  for (std::size_t r = 0; r < rows; ++r) {
    gl_mul_shoup_inplace(a + r * lanes, s[r], sp[r], lanes);
  }
}

void gl_fold192(u64* out, const u64* lo, const u64* mi, const u64* hi,
                std::size_t n) {
  const __m512i r64 = _mm512_set1_epi64(static_cast<long long>(kGlR64));
  const __m512i r64p = _mm512_set1_epi64(static_cast<long long>(kGlR64Pre));
  const __m512i r128 = _mm512_set1_epi64(static_cast<long long>(kGlR128));
  const __m512i r128p = _mm512_set1_epi64(static_cast<long long>(kGlR128Pre));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i vlo = _mm512_loadu_si512(lo + i);
    // from_u64(lo): one conditional subtraction (any u64 < 2p).
    const __m512i lo_c = _mm512_mask_sub_epi64(
        vlo, _mm512_cmpge_epu64_mask(vlo, gl_p()), vlo, gl_p());
    const __m512i t_mi = gl_mul_shoup(_mm512_loadu_si512(mi + i), r64, r64p);
    const __m512i t_hi =
        gl_mul_shoup(_mm512_loadu_si512(hi + i), r128, r128p);
    _mm512_storeu_si512(out + i, gl_add(t_hi, gl_add(t_mi, lo_c)));
  }
  for (; i < n; ++i) {
    out[i] = GL::add(
        GL::mul(GL::from_u64(hi[i]), kGlR128),
        GL::add(GL::mul(GL::from_u64(mi[i]), kGlR64), GL::from_u64(lo[i])));
  }
}

void gl_butterfly_tw(u64* a, u64* b, const u64* tw, const u64* twp,
                     std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i vtw = _mm512_loadu_si512(tw + j);
    const __m512i vtwp = _mm512_loadu_si512(twp + j);
    const __m512i vb = _mm512_loadu_si512(b + j);
    const __m512i vu = _mm512_loadu_si512(a + j);
    const __m512i t = gl_mul_shoup(vb, vtw, vtwp);
    _mm512_storeu_si512(a + j, gl_add(vu, t));
    _mm512_storeu_si512(b + j, gl_sub(vu, t));
  }
  for (; j < n; ++j) {
    const u64 t = GL::mul_shoup(b[j], tw[j], twp[j]);
    const u64 u = a[j];
    a[j] = GL::add(u, t);
    b[j] = GL::sub(u, t);
  }
}

void gl_butterfly_soa(u64* a, u64* b, const u64* tw, const u64* twp,
                      std::size_t nj, std::size_t lanes) {
  for (std::size_t j = 0; j < nj; ++j) {
    const __m512i vtw = _mm512_set1_epi64(static_cast<long long>(tw[j]));
    const __m512i vtwp = _mm512_set1_epi64(static_cast<long long>(twp[j]));
    u64* aj = a + j * lanes;
    u64* bj = b + j * lanes;
    std::size_t l = 0;
    for (; l + 8 <= lanes; l += 8) {
      const __m512i vb = _mm512_loadu_si512(bj + l);
      const __m512i vu = _mm512_loadu_si512(aj + l);
      const __m512i t = gl_mul_shoup(vb, vtw, vtwp);
      _mm512_storeu_si512(aj + l, gl_add(vu, t));
      _mm512_storeu_si512(bj + l, gl_sub(vu, t));
    }
    for (; l < lanes; ++l) {
      const u64 t = GL::mul_shoup(bj[l], tw[j], twp[j]);
      const u64 u = aj[l];
      aj[l] = GL::add(u, t);
      bj[l] = GL::sub(u, t);
    }
  }
}

}  // namespace

const U32Kernels kU32Avx512 = {
    &u32_add_mod,
    &u32_sub_mod,
    &u32_accum_widen,
    &u32_axpy_split,
    &u32_gemm_split,
    &u32_chacha20_blocks,
    &u32_sample_pm32,
#if defined(__VPCLMULQDQ__) && defined(__PCLMUL__)
    &u32_crc32_fold,
#else
    nullptr,  // crc32_fold: compiler lacks -mvpclmulqdq; see dispatch.cpp
#endif
};

const U64Kernels kU64Avx512 = {
    &u64_add_mod,
    &u64_sub_mod,
    &u64_shoup_axpy,
    &u64_lazy192_axpy,
    &u64_lazy192_dot,
};

const GoldilocksKernels kGoldilocksAvx512 = {
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

#endif  // LSA_HAVE_AVX512
#endif  // x86_64

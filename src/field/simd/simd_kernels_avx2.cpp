// AVX2 implementations of the dispatch-table kernels (field/simd/dispatch.h).
//
// Compiled with -mavx2 in its own translation unit; every function here is
// reached only through the dispatch tables after the runtime CPUID probe
// confirmed AVX2, so no code in this file may be called (or have its
// address-independent parts auto-vectorized into) other units. All helpers
// are internal-linkage on purpose: an inline helper shared with the AVX-512
// unit would let the linker keep whichever copy it saw last.
//
// Every kernel reproduces the scalar reference loop value-for-value: the
// modular forms compute the same canonical representative (same conditional
// subtractions on the same exact integers) and the lazy forms accumulate
// the same exact 192-bit integer sums, so outputs are bit-identical to the
// scalar templates in field/field_vec.h (tests/simd_kernel_test.cpp).
#if defined(__x86_64__) || defined(_M_X64)
#if defined(LSA_HAVE_AVX2)

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
// Tail loops run the exact scalar-kernel arithmetic at runtime modulus.

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

inline __m256i sign64() { return _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull)); }

/// a < b (unsigned, per 64-bit lane) as an all-ones/-zero lane mask.
inline __m256i lt_epu64(__m256i a, __m256i b) {
  const __m256i s = sign64();
  return _mm256_cmpgt_epi64(_mm256_xor_si256(b, s), _mm256_xor_si256(a, s));
}

/// a >= q as a lane mask, with qm1s = (q-1) ^ sign precomputed.
inline __m256i ge_q(__m256i a, __m256i qm1s) {
  return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign64()), qm1s);
}

/// Full 64x64 -> 128 product per lane via 32-bit cross products.
inline void mul64wide(__m256i a, __m256i b, __m256i& hi, __m256i& lo) {
  const __m256i m32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i ah = _mm256_srli_epi64(a, 32);
  const __m256i bh = _mm256_srli_epi64(b, 32);
  const __m256i p0 = _mm256_mul_epu32(a, b);
  const __m256i p1 = _mm256_mul_epu32(a, bh);
  const __m256i p2 = _mm256_mul_epu32(ah, b);
  const __m256i p3 = _mm256_mul_epu32(ah, bh);
  const __m256i mid = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(p0, 32), _mm256_and_si256(p1, m32)),
      _mm256_and_si256(p2, m32));
  lo = _mm256_or_si256(_mm256_slli_epi64(mid, 32), _mm256_and_si256(p0, m32));
  hi = _mm256_add_epi64(
      _mm256_add_epi64(p3, _mm256_srli_epi64(p1, 32)),
      _mm256_add_epi64(_mm256_srli_epi64(p2, 32), _mm256_srli_epi64(mid, 32)));
}

inline __m256i mulhi64(__m256i a, __m256i b) {
  __m256i hi, lo;
  mul64wide(a, b, hi, lo);
  return hi;
}

inline __m256i mullo64(__m256i a, __m256i b) {
  const __m256i p0 = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
                       _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
  return _mm256_add_epi64(p0, _mm256_slli_epi64(cross, 32));
}

// ------------------------------------------------------------ u32 kernels

void u32_add_mod(u32* acc, const u32* x, std::size_t n, u32 q) {
  const __m256i qv = _mm256_set1_epi32(static_cast<int>(q));
  const __m256i s32 = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i qm1s = _mm256_xor_si256(
      _mm256_set1_epi32(static_cast<int>(q - 1)), s32);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m256i s = _mm256_add_epi32(va, vx);
    // wrapped 2^32 (true sum >= 2^32 > q) OR s >= q: subtract q once.
    const __m256i wrap = _mm256_cmpgt_epi32(_mm256_xor_si256(va, s32),
                                            _mm256_xor_si256(s, s32));
    const __m256i ge = _mm256_cmpgt_epi32(_mm256_xor_si256(s, s32), qm1s);
    s = _mm256_sub_epi32(
        s, _mm256_and_si256(qv, _mm256_or_si256(wrap, ge)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), s);
  }
  for (; i < n; ++i) acc[i] = s_add32(acc[i], x[i], q);
}

void u32_sub_mod(u32* acc, const u32* x, std::size_t n, u32 q) {
  const __m256i qv = _mm256_set1_epi32(static_cast<int>(q));
  const __m256i s32 = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i borrow = _mm256_cmpgt_epi32(_mm256_xor_si256(vx, s32),
                                              _mm256_xor_si256(va, s32));
    const __m256i d = _mm256_add_epi32(_mm256_sub_epi32(va, vx),
                                       _mm256_and_si256(qv, borrow));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), d);
  }
  for (; i < n; ++i) acc[i] = s_sub32(acc[i], x[i], q);
}

void u32_accum_widen(u64* sums, const u32* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sums + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums + i),
                        _mm256_add_epi64(s, x));
  }
  for (; i < n; ++i) sums[i] += src[i];
}

void u32_axpy_split(u64* lo, u64* hi, const u32* src, u32 wlo, u32 whi,
                    std::size_t n) {
  const __m256i vwlo = _mm256_set1_epi64x(static_cast<long long>(wlo));
  const __m256i vwhi = _mm256_set1_epi64x(static_cast<long long>(whi));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    const __m256i vlo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + i));
    const __m256i vhi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(lo + i),
        _mm256_add_epi64(vlo, _mm256_mul_epu32(x, vwlo)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(hi + i),
        _mm256_add_epi64(vhi, _mm256_mul_epu32(x, vwhi)));
  }
  for (; i < n; ++i) {
    const u64 x = src[i];
    lo[i] += static_cast<u64>(wlo) * x;
    hi[i] += static_cast<u64>(whi) * x;
  }
}

/// Output rows per GEMM tile: 2 rows x 4 accumulators take 8 of the 16
/// ymm registers; the split input, a coefficient and the 16-bit mask take
/// 6 more (3 rows would spill).
constexpr std::size_t kGemmRows = 2;

/// One tile of gemm_split: R output rows x the 8 lanes at column col (the
/// first nl of them live; Full means nl == 8). Same lane split as the
/// AVX-512 body: even lanes in the low halves of the u64 lanes, odd lanes
/// after a 32-bit shift, each cut into 16-bit pieces.
template <std::size_t R, bool Full>
void gemm_tile(u32* const* dst, const u32* coeffs, std::size_t cs,
               const u32* const* src, std::size_t terms, std::size_t col,
               std::size_t nl, u32 q, u64 magic) {
  const __m256i m16 = _mm256_set1_epi64x(0xFFFF);
  const __m256i live =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(nl)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  // One lazy window per kMaxLazyTerms terms; the first window always runs,
  // so terms == 0 writes zeros.
  for (std::size_t k0 = 0; k0 == 0 || k0 < terms; k0 += kMaxLazyTerms) {
    const std::size_t k1 = std::min(terms, k0 + kMaxLazyTerms);
    __m256i lo_e[R], lo_o[R], hi_e[R], hi_o[R];
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      lo_e[r] = lo_o[r] = hi_e[r] = hi_o[r] = _mm256_setzero_si256();
    }
    for (std::size_t k = k0; k < k1; ++k) {
      const u32* s = src[k] + col;
      __m256i x;
      if constexpr (Full) {
        x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
      } else {
        x = _mm256_maskload_epi32(reinterpret_cast<const int*>(s), live);
      }
      const __m256i xlo_e = _mm256_and_si256(x, m16);
      const __m256i xhi_e = _mm256_srli_epi32(x, 16);
      const __m256i xlo_o = _mm256_and_si256(_mm256_srli_epi64(x, 32), m16);
      const __m256i xhi_o = _mm256_srli_epi64(x, 48);
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        const __m256i w =
            _mm256_set1_epi32(static_cast<int>(coeffs[r * cs + k]));
        lo_e[r] = _mm256_add_epi64(lo_e[r], _mm256_mul_epu32(xlo_e, w));
        hi_e[r] = _mm256_add_epi64(hi_e[r], _mm256_mul_epu32(xhi_e, w));
        lo_o[r] = _mm256_add_epi64(lo_o[r], _mm256_mul_epu32(xlo_o, w));
        hi_o[r] = _mm256_add_epi64(hi_o[r], _mm256_mul_epu32(xhi_o, w));
      }
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      // Interleave even/odd lanes back into column order: the unpacks give
      // lanes {0,1,4,5} and {2,3,6,7}, the 128-bit permutes reorder them.
      alignas(32) u64 lo[8];
      alignas(32) u64 hi[8];
      const __m256i la = _mm256_unpacklo_epi64(lo_e[r], lo_o[r]);
      const __m256i lb = _mm256_unpackhi_epi64(lo_e[r], lo_o[r]);
      const __m256i ha = _mm256_unpacklo_epi64(hi_e[r], hi_o[r]);
      const __m256i hb = _mm256_unpackhi_epi64(hi_e[r], hi_o[r]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(lo),
                         _mm256_permute2x128_si256(la, lb, 0x20));
      _mm256_store_si256(reinterpret_cast<__m256i*>(lo + 4),
                         _mm256_permute2x128_si256(la, lb, 0x31));
      _mm256_store_si256(reinterpret_cast<__m256i*>(hi),
                         _mm256_permute2x128_si256(ha, hb, 0x20));
      _mm256_store_si256(reinterpret_cast<__m256i*>(hi + 4),
                         _mm256_permute2x128_si256(ha, hb, 0x31));
      u32* d = dst[r] + col;
      for (std::size_t i = 0; i < nl; ++i) {
        const u32 v = s_fold_split(lo[i], hi[i], q, magic);
        d[i] = k0 == 0 ? v : s_add32(d[i], v, q);
      }
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
  if (r0 < rows) {
    gemm_tile<1, Full>(dst + r0, coeffs + r0 * cs, cs, src, terms, col, nl,
                       q, magic);
  }
}

void u32_gemm_split(u32* const* dst, const u32* coeffs, std::size_t cs,
                    const u32* const* src, std::size_t rows,
                    std::size_t terms, std::size_t n, u32 q) {
  const u64 magic = barrett_magic(q);
  std::size_t col = 0;
  for (; col + 8 <= n; col += 8) {
    gemm_block<true>(dst, coeffs, cs, src, rows, terms, col, 8, q, magic);
  }
  if (col < n) {
    gemm_block<false>(dst, coeffs, cs, src, rows, terms, col, n - col, q,
                      magic);
  }
}

// ---------------------------------------------------- ChaCha20 keystream
//
// Goll and Gueron's layout at 8 lanes: vector w holds state word w of 8
// blocks, one block per lane, each lane with its own counter. AVX2 has no
// rotate: the 16- and 8-bit rotates are byte shuffles, 12 and 7 are shift
// pairs. Two 8 x 8 word transposes on store (words 0..7, then 8..15) give
// each block's two 32-byte halves.

template <int K>
inline __m256i rotl32(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, K), _mm256_srli_epi32(x, 32 - K));
}

inline void chacha_qr(__m256i& a, __m256i& b, __m256i& c, __m256i& d,
                      __m256i rot16, __m256i rot8) {
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = rotl32<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = rotl32<7>(_mm256_xor_si256(b, c));
}

/// x[w] holds word w of blocks 0..7; stores those 8 words of block b at
/// out + 64 b. After the 32- and 64-bit unpacks, 128-bit lane k of lo[j]
/// (hi[j]) holds words 0..3 (4..7) of block 4k + j.
inline void store_transposed8(const __m256i* x, std::uint8_t* out) {
  const __m256i a0 = _mm256_unpacklo_epi32(x[0], x[1]);
  const __m256i a1 = _mm256_unpackhi_epi32(x[0], x[1]);
  const __m256i a2 = _mm256_unpacklo_epi32(x[2], x[3]);
  const __m256i a3 = _mm256_unpackhi_epi32(x[2], x[3]);
  const __m256i a4 = _mm256_unpacklo_epi32(x[4], x[5]);
  const __m256i a5 = _mm256_unpackhi_epi32(x[4], x[5]);
  const __m256i a6 = _mm256_unpacklo_epi32(x[6], x[7]);
  const __m256i a7 = _mm256_unpackhi_epi32(x[6], x[7]);
  const __m256i lo[4] = {
      _mm256_unpacklo_epi64(a0, a2), _mm256_unpackhi_epi64(a0, a2),
      _mm256_unpacklo_epi64(a1, a3), _mm256_unpackhi_epi64(a1, a3)};
  const __m256i hi[4] = {
      _mm256_unpacklo_epi64(a4, a6), _mm256_unpackhi_epi64(a4, a6),
      _mm256_unpacklo_epi64(a5, a7), _mm256_unpackhi_epi64(a5, a7)};
  for (int j = 0; j < 4; ++j) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 64 * j),
                        _mm256_permute2x128_si256(lo[j], hi[j], 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 64 * (4 + j)),
                        _mm256_permute2x128_si256(lo[j], hi[j], 0x31));
  }
}

/// 8 blocks at counters state[12] + 0..7 (mod 2^32) into out[0, 512).
void chacha_batch8(const u32* state, std::uint8_t* out) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  __m256i in[16];
  for (int w = 0; w < 16; ++w) {
    in[w] = _mm256_set1_epi32(static_cast<int>(state[w]));
  }
  in[12] = _mm256_add_epi32(in[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256i x[16];
  for (int w = 0; w < 16; ++w) x[w] = in[w];
  for (int round = 0; round < 10; ++round) {
    chacha_qr(x[0], x[4], x[8], x[12], rot16, rot8);
    chacha_qr(x[1], x[5], x[9], x[13], rot16, rot8);
    chacha_qr(x[2], x[6], x[10], x[14], rot16, rot8);
    chacha_qr(x[3], x[7], x[11], x[15], rot16, rot8);
    chacha_qr(x[0], x[5], x[10], x[15], rot16, rot8);
    chacha_qr(x[1], x[6], x[11], x[12], rot16, rot8);
    chacha_qr(x[2], x[7], x[8], x[13], rot16, rot8);
    chacha_qr(x[3], x[4], x[9], x[14], rot16, rot8);
  }
  for (int w = 0; w < 16; ++w) x[w] = _mm256_add_epi32(x[w], in[w]);
  store_transposed8(x, out);
  store_transposed8(x + 8, out + 32);
}

void u32_chacha20_blocks(const u32* state, std::uint8_t* out,
                         std::size_t nblocks) {
  u32 st[16];
  std::copy(state, state + 16, st);
  for (; nblocks >= 8; nblocks -= 8, out += 512, st[12] += 8) {
    chacha_batch8(st, out);
  }
  if (nblocks > 0) {
    // A batch always stores 8 blocks: a short one goes through a local
    // buffer so nothing lands past out.
    alignas(32) std::uint8_t tail[512];
    chacha_batch8(st, tail);
    std::copy(tail, tail + 64 * nblocks, out);
  }
}

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
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c));
  const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i vqm1 = _mm256_set1_epi64x(static_cast<long long>(q - 1));
  const __m256i vlimit = _mm256_set1_epi64x(static_cast<long long>(limit));
  const __m256i m32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i low_words = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  std::size_t i = 0;
  std::size_t j = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(draws + i));
    if (_mm256_movemask_pd(_mm256_castsi256_pd(lt_epu64(v, vlimit))) != 0xF) {
      // A rejected draw in the group: the scalar loop keeps the order.
      for (std::size_t k = i; k < i + 4; ++k) {
        if (draws[k] < limit) out[j++] = s_reduce_pm(draws[k], c, q);
      }
      continue;
    }
    __m256i x = _mm256_add_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64(v, 32), vc), _mm256_and_si256(v, m32));
    x = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), vc),
                         _mm256_and_si256(x, m32));
    // x < 2^33: the signed compare is exact.
    x = _mm256_sub_epi64(
        x, _mm256_and_si256(vq, _mm256_cmpgt_epi64(x, vqm1)));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out + j),
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(x, low_words)));
    j += 4;
  }
  for (; i < n; ++i) {
    if (draws[i] < limit) out[j++] = s_reduce_pm(draws[i], c, q);
  }
  return j;
}

// ------------------------------------------------------ CRC-32 folding
// Built only when the unit also has -mpclmul; the dispatcher hands this
// body out only on hosts whose probe found the pclmul bit. It is the one
// 128-bit body: AVX-512 hosts without VPCLMULQDQ run it too.

#if defined(__PCLMUL__)

u32 u32_crc32_fold(u32 state, const std::uint8_t* p, std::size_t n) {
  const __m128i k512 = crc_fold_pair<512>();
  const __m128i k128 = crc_fold_pair<128>();
  __m128i x0 = _mm_xor_si128(crc_load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = crc_load128(p + 16);
  __m128i x2 = crc_load128(p + 32);
  __m128i x3 = crc_load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(crc_clmul_fold(x0, k512), crc_load128(p));
    x1 = _mm_xor_si128(crc_clmul_fold(x1, k512), crc_load128(p + 16));
    x2 = _mm_xor_si128(crc_clmul_fold(x2, k512), crc_load128(p + 32));
    x3 = _mm_xor_si128(crc_clmul_fold(x3, k512), crc_load128(p + 48));
  }
  x0 = _mm_xor_si128(crc_clmul_fold(x0, k128), x1);
  x0 = _mm_xor_si128(crc_clmul_fold(x0, k128), x2);
  x0 = _mm_xor_si128(crc_clmul_fold(x0, k128), x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = _mm_xor_si128(crc_clmul_fold(x0, k128), crc_load128(p));
  }
  return crc32_reduce128(x0);
}

#endif  // __PCLMUL__

// ------------------------------------------------------------ u64 kernels

void u64_add_mod(u64* acc, const u64* x, std::size_t n, u64 q) {
  const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i qm1s = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(q - 1)), sign64());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m256i s = _mm256_add_epi64(va, vx);  // q < 2^63: cannot wrap
    s = _mm256_sub_epi64(s, _mm256_and_si256(qv, ge_q(s, qm1s)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), s);
  }
  for (; i < n; ++i) acc[i] = s_add64(acc[i], x[i], q);
}

void u64_sub_mod(u64* acc, const u64* x, std::size_t n, u64 q) {
  const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i d = _mm256_add_epi64(
        _mm256_sub_epi64(va, vx), _mm256_and_si256(qv, lt_epu64(va, vx)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), d);
  }
  for (; i < n; ++i) acc[i] = s_sub64(acc[i], x[i], q);
}

void u64_shoup_axpy(u64* acc, const u64* src, u64 w, u64 wp, std::size_t n,
                    u64 q) {
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(w));
  const __m256i vwp = _mm256_set1_epi64x(static_cast<long long>(wp));
  const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i qm1s = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(q - 1)), sign64());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i qhat = mulhi64(vwp, vx);
    __m256i r =
        _mm256_sub_epi64(mullo64(vw, vx), mullo64(qhat, qv));
    r = _mm256_sub_epi64(r, _mm256_and_si256(qv, ge_q(r, qm1s)));
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i s = _mm256_add_epi64(va, r);
    s = _mm256_sub_epi64(s, _mm256_and_si256(qv, ge_q(s, qm1s)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), s);
  }
  for (; i < n; ++i) {
    acc[i] = s_add64(acc[i], s_mul_shoup64(src[i], w, wp, q), q);
  }
}

/// One lazy-192 accumulation step on 4 lanes held in registers.
inline void lazy192_step(__m256i plo, __m256i phi, __m256i& lo, __m256i& mi,
                         __m256i& hi) {
  lo = _mm256_add_epi64(lo, plo);
  const __m256i c1 = lt_epu64(lo, plo);            // all-ones where carry
  const __m256i addend = _mm256_sub_epi64(phi, c1);  // phi + 1 on carry
  mi = _mm256_add_epi64(mi, addend);
  const __m256i c2 = lt_epu64(mi, addend);
  hi = _mm256_sub_epi64(hi, c2);
}

void u64_lazy192_axpy(u64* lo, u64* mi, u64* hi, u64 w, const u64* src,
                      std::size_t n) {
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(w));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i phi, plo;
    mul64wide(vw, vx, phi, plo);
    __m256i vlo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + i));
    __m256i vmi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mi + i));
    __m256i vhi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + i));
    lazy192_step(plo, phi, vlo, vmi, vhi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo + i), vlo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mi + i), vmi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi + i), vhi);
  }
  for (; i < n; ++i) s_lazy192(lo[i], mi[i], hi[i], w, src[i]);
}

void u64_lazy192_dot(u64* lo, u64* mi, u64* hi, const u64* coeffs,
                     std::size_t coeff_stride, const u64* x,
                     std::size_t terms, std::size_t lanes) {
  std::size_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    __m256i vlo = _mm256_setzero_si256();
    __m256i vmi = _mm256_setzero_si256();
    __m256i vhi = _mm256_setzero_si256();
    for (std::size_t c = 0; c < terms; ++c) {
      const __m256i vw = _mm256_set1_epi64x(
          static_cast<long long>(coeffs[c * coeff_stride]));
      const __m256i vx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + c * lanes + l));
      __m256i phi, plo;
      mul64wide(vw, vx, phi, plo);
      lazy192_step(plo, phi, vlo, vmi, vhi);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo + l), vlo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mi + l), vmi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi + l), vhi);
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
constexpr u64 kGlR64 = kGlEps;         // 2^64 mod p
constexpr u64 kGlR128 = GL::mul(kGlR64, kGlR64);  // 2^128 mod p
constexpr u64 kGlR64Pre = GL::shoup_precompute(kGlR64);
constexpr u64 kGlR128Pre = GL::shoup_precompute(kGlR128);

inline __m256i gl_p() { return _mm256_set1_epi64x(static_cast<long long>(kGlP)); }
inline __m256i gl_eps() { return _mm256_set1_epi64x(static_cast<long long>(kGlEps)); }
inline __m256i gl_pm1s() {
  return _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(kGlP - 1)), sign64());
}

inline __m256i gl_add(__m256i a, __m256i b) {
  __m256i s = _mm256_add_epi64(a, b);
  // wrapped 2^64: +2^64 == +eps (mod p); the fixup cannot wrap again.
  s = _mm256_add_epi64(s, _mm256_and_si256(gl_eps(), lt_epu64(s, a)));
  return _mm256_sub_epi64(s, _mm256_and_si256(gl_p(), ge_q(s, gl_pm1s())));
}

inline __m256i gl_sub(__m256i a, __m256i b) {
  const __m256i d = _mm256_sub_epi64(a, b);
  return _mm256_sub_epi64(d, _mm256_and_si256(gl_eps(), lt_epu64(a, b)));
}

/// mul_shoup(a, s, sp) per lane, valid for ANY u64 a (the Shoup bound
/// r = s*a - qhat*p < 2p holds for arbitrary a; see Goldilocks::mul_shoup).
inline __m256i gl_mul_shoup(__m256i a, __m256i vs, __m256i vsp) {
  const __m256i qhat = mulhi64(vsp, a);
  __m256i sa_hi, sa_lo;
  mul64wide(vs, a, sa_hi, sa_lo);
  // qeps = qhat * eps = (qhat << 32) - qhat as a 128-bit value.
  const __m256i qsl = _mm256_slli_epi64(qhat, 32);
  const __m256i qeps_lo = _mm256_sub_epi64(qsl, qhat);
  const __m256i borrow = lt_epu64(qsl, qhat);
  const __m256i qeps_hi =
      _mm256_add_epi64(_mm256_srli_epi64(qhat, 32), borrow);  // -1 on borrow
  // r128 = s*a + qeps - (qhat << 64); high word provably in {0, 1}.
  __m256i r_lo = _mm256_add_epi64(sa_lo, qeps_lo);
  const __m256i c1 = lt_epu64(r_lo, qeps_lo);
  __m256i r_hi = _mm256_add_epi64(sa_hi, qeps_hi);
  r_hi = _mm256_sub_epi64(r_hi, c1);  // +1 on carry
  r_hi = _mm256_sub_epi64(r_hi, qhat);
  // fold the 2^64 bit as +eps (cannot wrap or reach p), then canonicalize.
  const __m256i fold_mask = _mm256_sub_epi64(_mm256_setzero_si256(), r_hi);
  r_lo = _mm256_add_epi64(r_lo, _mm256_and_si256(gl_eps(), fold_mask));
  return _mm256_sub_epi64(r_lo,
                          _mm256_and_si256(gl_p(), ge_q(r_lo, gl_pm1s())));
}

void gl_add_mod(u64* acc, const u64* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), gl_add(va, vx));
  }
  for (; i < n; ++i) acc[i] = GL::add(acc[i], x[i]);
}

void gl_sub_mod(u64* acc, const u64* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), gl_sub(va, vx));
  }
  for (; i < n; ++i) acc[i] = GL::sub(acc[i], x[i]);
}

void gl_shoup_axpy(u64* acc, const u64* src, u64 w, u64 wp, std::size_t n) {
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(w));
  const __m256i vwp = _mm256_set1_epi64x(static_cast<long long>(wp));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        gl_add(va, gl_mul_shoup(vx, vw, vwp)));
  }
  for (; i < n; ++i) acc[i] = GL::add(acc[i], GL::mul_shoup(src[i], w, wp));
}

void gl_mul_shoup_inplace(u64* a, u64 s, u64 sp, std::size_t n) {
  const __m256i vs = _mm256_set1_epi64x(static_cast<long long>(s));
  const __m256i vsp = _mm256_set1_epi64x(static_cast<long long>(sp));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        gl_mul_shoup(va, vs, vsp));
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
  const __m256i r64 = _mm256_set1_epi64x(static_cast<long long>(kGlR64));
  const __m256i r64p = _mm256_set1_epi64x(static_cast<long long>(kGlR64Pre));
  const __m256i r128 = _mm256_set1_epi64x(static_cast<long long>(kGlR128));
  const __m256i r128p =
      _mm256_set1_epi64x(static_cast<long long>(kGlR128Pre));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vlo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + i));
    const __m256i vmi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mi + i));
    const __m256i vhi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + i));
    // from_u64(lo): one conditional subtraction (any u64 < 2p).
    const __m256i lo_c = _mm256_sub_epi64(
        vlo, _mm256_and_si256(gl_p(), ge_q(vlo, gl_pm1s())));
    const __m256i t_mi = gl_mul_shoup(vmi, r64, r64p);
    const __m256i t_hi = gl_mul_shoup(vhi, r128, r128p);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        gl_add(t_hi, gl_add(t_mi, lo_c)));
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
  for (; j + 4 <= n; j += 4) {
    const __m256i vtw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tw + j));
    const __m256i vtwp =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(twp + j));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i vu =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
    const __m256i t = gl_mul_shoup(vb, vtw, vtwp);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), gl_add(vu, t));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b + j), gl_sub(vu, t));
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
    const __m256i vtw = _mm256_set1_epi64x(static_cast<long long>(tw[j]));
    const __m256i vtwp = _mm256_set1_epi64x(static_cast<long long>(twp[j]));
    u64* aj = a + j * lanes;
    u64* bj = b + j * lanes;
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bj + l));
      const __m256i vu =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(aj + l));
      const __m256i t = gl_mul_shoup(vb, vtw, vtwp);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(aj + l), gl_add(vu, t));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(bj + l), gl_sub(vu, t));
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

const U32Kernels kU32Avx2 = {
    &u32_add_mod,
    &u32_sub_mod,
    &u32_accum_widen,
    &u32_axpy_split,
    &u32_gemm_split,
    &u32_chacha20_blocks,
    &u32_sample_pm32,
#if defined(__PCLMUL__)
    &u32_crc32_fold,
#else
    nullptr,  // crc32_fold: compiler lacks -mpclmul; slice-by-8
#endif
};

const U64Kernels kU64Avx2 = {
    &u64_add_mod,
    &u64_sub_mod,
    &u64_shoup_axpy,
    &u64_lazy192_axpy,
    &u64_lazy192_dot,
};

const GoldilocksKernels kGoldilocksAvx2 = {
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

#endif  // LSA_HAVE_AVX2
#endif  // x86_64

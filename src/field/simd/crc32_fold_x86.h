// CRC-32 folding shared by the x86 kernel units (simd_kernels_avx2.cpp,
// simd_kernels_avx512.cpp): the fold constants and the 128-bit helpers.
//
// The crc32_fold bodies fold in the bit-reflected domain of the IEEE
// polynomial P(x) = x^32 + 0x04C11DB7 (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009). Moving
// a 128-bit chunk D bits further down the stream multiplies its low 64 bits
// by x^(D+32) mod P and its high 64 bits by x^(D-32) mod P; the final
// reduction folds by x^64 and then divides by P with a Barrett step. The
// constants are derived here from P, at compile time.
//
// The helpers exist only in units built with -mpclmul, and have internal
// linkage: each unit compiles its own copy under its own -m flags, so the
// linker never swaps one unit's copy into the other.
#pragma once

#include <cstdint>

#if defined(__PCLMUL__)
#include <immintrin.h>
#endif

namespace lsa::field::simd::detail {

/// The polynomial's low 32 coefficients, MSB-first (non-reflected) form.
inline constexpr std::uint32_t kCrc32PolyNormal = 0x04C11DB7u;

/// Reverses the low `bits` bits of v.
consteval std::uint64_t crc32_reflect(std::uint64_t v, unsigned bits) {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < bits; ++i) r |= ((v >> i) & 1u) << (bits - 1 - i);
  return r;
}

/// [x^k mod P(x)]' << 1: the remainder reflected into the CRC's bit order
/// and shifted one bit, which absorbs the carry-less product of two
/// reflected 64-bit operands landing in bits 1..127.
consteval std::uint64_t crc32_fold_constant(unsigned k) {
  std::uint32_t r = 1;  // x^0
  for (unsigned i = 0; i < k; ++i) {
    r = (r << 1) ^ (kCrc32PolyNormal & (0u - (r >> 31)));
  }
  return crc32_reflect(r, 32) << 1;
}

/// crc32_fold_constant(K) as a compile-time value.
template <unsigned K>
inline constexpr std::uint64_t kCrc32Fold = crc32_fold_constant(K);

/// P(x) itself, all 33 coefficients reflected (the Barrett divisor).
inline constexpr std::uint64_t kCrc32PolyReflected =
    crc32_reflect((std::uint64_t{1} << 32) | kCrc32PolyNormal, 33);

/// floor(x^64 / P(x)), 33 coefficients reflected (the Barrett quotient).
consteval std::uint64_t crc32_barrett_mu() {
  unsigned __int128 num = static_cast<unsigned __int128>(1) << 64;
  const unsigned __int128 poly =
      (static_cast<unsigned __int128>(1) << 32) | kCrc32PolyNormal;
  std::uint64_t quot = 0;
  for (unsigned d = 64; d >= 32; --d) {
    if (((num >> d) & 1u) != 0) {
      num ^= poly << (d - 32);
      quot |= std::uint64_t{1} << (d - 32);
    }
  }
  return crc32_reflect(quot, 33);
}
inline constexpr std::uint64_t kCrc32BarrettMu = crc32_barrett_mu();

#if defined(__PCLMUL__)
namespace {

inline __m128i crc_load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// {lo: x^(D+32), hi: x^(D-32)}: moves a 128-bit chunk D bits down the
/// stream.
template <unsigned D>
inline __m128i crc_fold_pair() {
  return _mm_set_epi64x(static_cast<long long>(kCrc32Fold<D - 32>),
                        static_cast<long long>(kCrc32Fold<D + 32>));
}

/// lo * k.lo xor hi * k.hi, carry-less.
inline __m128i crc_clmul_fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// The 32-bit raw CRC state of a folded 128-bit remainder: fold 128 -> 96
/// -> 64 bits, then a Barrett division by P.
inline std::uint32_t crc32_reduce128(__m128i x) {
  const __m128i lo32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, crc_fold_pair<128>(), 0x10));
  const __m128i k64 =
      _mm_set_epi64x(0, static_cast<long long>(kCrc32Fold<64>));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, lo32), k64, 0x00));
  const __m128i barrett =
      _mm_set_epi64x(static_cast<long long>(kCrc32BarrettMu),
                     static_cast<long long>(kCrc32PolyReflected));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, lo32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, lo32), barrett, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

}  // namespace
#endif  // __PCLMUL__

}  // namespace lsa::field::simd::detail

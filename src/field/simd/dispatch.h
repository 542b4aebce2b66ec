// Runtime-dispatched SIMD kernel tables for the field substrate.
//
// The hot loops of this library — Shoup / lazy-192 axpy GEMM panels,
// split-word lazy accumulation, elementwise mask add/sub, NTT butterflies,
// the mask PRG's ChaCha20 keystream and field sampler, the wire frames'
// CRC-32 — are generic scalar code in field/field_vec.h, coding/ntt.h,
// crypto/chacha20.cpp, field/random_field.h and runtime/wire.h. This
// layer provides hand-vectorized implementations (AVX2, AVX-512, NEON) of
// those exact kernels, selected ONCE at startup by a CPUID/feature probe
// and reached through per-field function-pointer tables. The scalar
// templates stay as the bit-parity reference, in the same pattern as
// PrimeField::mul_reference: every vector kernel folds the same exact
// integer sums and canonical reductions, so its output is bit-identical to
// the scalar path on every input (tests/simd_kernel_test.cpp pins the
// boundary cases; the decode-strategy and protocol parity suites pin the
// end-to-end paths).
//
// Dispatch rules (see README "SIMD substrate"):
//   * compile-time: -DLSA_FORCE_SCALAR builds pin Level::kScalar;
//   * environment:  LSA_SIMD=scalar|neon|avx2|avx512 caps the probe;
//   * per-thread:   SimdPolicy::kForceScalar (field/simd/simd_policy.h),
//                   threaded through protocol::Params, wins over both.
// A null table pointer means "run the scalar template" — unknown moduli,
// unprobed ISAs and forced-scalar all take that path. A null entry in a
// table means the same for that one kernel. The CRC fold entry is further
// gated on its own feature bits (pclmul, vpclmulqdq) without demoting the
// level: see U32Kernels::crc32_fold.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "field/simd/simd_policy.h"

namespace lsa::field::simd {

/// Instruction-set level of a kernel table. Levels are probed at runtime;
/// on x86 kAvx512 implies kAvx2, on arm64 kNeon is the baseline.
enum class Level : std::uint8_t {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// Stable lowercase ISA name for bench/JSON output ("scalar", "neon",
/// "avx2", "avx512").
[[nodiscard]] const char* level_name(Level level);

/// Vector register width in bytes (8 for scalar — one u64 lane).
[[nodiscard]] std::size_t vector_bytes(Level level);

/// True when this host can execute kernels of the given level (kScalar is
/// always available; compiled-out ISAs report false).
[[nodiscard]] bool level_available(Level level);

/// Best level after the CPUID probe, the LSA_SIMD environment cap and the
/// compile-time LSA_FORCE_SCALAR switch. Probed once, then cached.
[[nodiscard]] Level detected_level();

/// detected_level(), unless the calling thread's SimdPolicy forces scalar.
[[nodiscard]] Level active_level();

// ---------------------------------------------------------------- tables
//
// Kernels take raw rep arrays plus whatever scalar parameters the generic
// templates close over; all inputs are canonical field elements unless a
// parameter is documented as a raw integer. Each table entry is
// bit-identical to the corresponding scalar loop.

/// Terms a split-word lazy accumulator takes before it must fold: each
/// partial product is < 2^16 * 2^32 = 2^48, and 2^15 * 2^48 = 2^63 keeps
/// the u64 lanes clear of overflow.
inline constexpr std::size_t kMaxLazyTerms = std::size_t{1} << 15;

/// Kernels on 32-bit lanes: the modular ones are generic over any 32-bit
/// prime modulus q (canonical reps < q); chacha20_blocks and sample_pm32
/// are the mask PRG's keystream and its field sampler; crc32_fold is the
/// wire frames' checksum.
struct U32Kernels {
  /// acc[i] = (acc[i] + x[i]) mod q — PrimeField::add elementwise.
  void (*add_mod)(std::uint32_t* acc, const std::uint32_t* x, std::size_t n,
                  std::uint32_t q);
  /// acc[i] = (acc[i] - x[i]) mod q — PrimeField::sub elementwise.
  void (*sub_mod)(std::uint32_t* acc, const std::uint32_t* x, std::size_t n,
                  std::uint32_t q);
  /// sums[i] += src[i] (u64 += u32): the lazy column-sum inner loop of
  /// add_accumulate_blocked.
  void (*accum_widen)(std::uint64_t* sums, const std::uint32_t* src,
                      std::size_t n);
  /// lo[i] += wlo * src[i]; hi[i] += whi * src[i] (wlo, whi < 2^16): the
  /// split-word lazy accumulation row of axpy_accumulate_blocked.
  void (*axpy_split)(std::uint64_t* lo, std::uint64_t* hi,
                     const std::uint32_t* src, std::uint32_t wlo,
                     std::uint32_t whi, std::size_t n);
  /// dst[r][i] = sum_k coeffs[r * coeff_stride + k] * src[k][i] mod q for
  /// r < rows, k < terms, i < n: the multi-row product behind the mask
  /// codec's encode and barycentric decode. Output rows are written, not
  /// accumulated. A tile of output rows x one lane block keeps split-word
  /// accumulators in registers across all terms (each input splits as
  /// x = xhi * 2^16 + xlo, so both partial products stay < 2^48) and folds
  /// each output element once per kMaxLazyTerms terms. Reads exactly n
  /// elements of every src row. Null on levels without a tiled body,
  /// which keep the per-row axpy_split path.
  void (*gemm_split)(std::uint32_t* const* dst, const std::uint32_t* coeffs,
                     std::size_t coeff_stride,
                     const std::uint32_t* const* src, std::size_t rows,
                     std::size_t terms, std::size_t n, std::uint32_t q);
  /// Writes nblocks ChaCha20 keystream blocks of 64 bytes each to out:
  /// block b is the RFC 8439 block function of the 16-word input `state`
  /// with its counter word state[12] advanced by b (mod 2^32). Stores whole
  /// blocks into out (64 * nblocks bytes, any alignment). Null on levels
  /// without a multi-block body, which loop crypto::chacha20_block.
  void (*chacha20_blocks)(const std::uint32_t* state, std::uint8_t* out,
                          std::size_t nblocks);
  /// The rejection sampler of field/random_field.h for a pseudo-Mersenne
  /// q = 2^32 - c, c < 2^16: writes each draw below floor((2^64 - 1) / q) * q,
  /// in order, as draw mod q to out (room for n) and returns how many it
  /// wrote. Vector groups holding a rejected draw take the scalar loop.
  /// Null on levels without a body, which keep the scalar loop.
  std::size_t (*sample_pm32)(std::uint32_t* out, const std::uint64_t* draws,
                             std::size_t n, std::uint32_t q);
  /// Folds n bytes at p (n >= 64 and a multiple of 16, any alignment) into
  /// the raw CRC-32 state (IEEE polynomial, reflected, before the final
  /// inversion) and returns the new raw state: equal to running the
  /// bitwise CRC update over those bytes. Carry-less-multiply folding:
  /// four 128-bit PCLMULQDQ lanes (64 bytes per step) on AVX2, four
  /// 512-bit VPCLMULQDQ lanes (256 bytes per step) on AVX-512. Neither
  /// level implies its multiply, so each body is gated on its own probed
  /// bit: an AVX-512 host without vpclmulqdq gets the 128-bit body, a host
  /// without pclmul gets null. Null runs slice-by-8 (NEON, scalar).
  std::uint32_t (*crc32_fold)(std::uint32_t state, const std::uint8_t* p,
                              std::size_t n);
};

/// Kernels generic over any 64-bit modulus q < 2^63 (so sums of two
/// canonical reps never wrap u64). The lazy-192 members are modulus-free
/// exact integer accumulation, usable by every 64-bit field including
/// Goldilocks.
struct U64Kernels {
  void (*add_mod)(std::uint64_t* acc, const std::uint64_t* x, std::size_t n,
                  std::uint64_t q);
  void (*sub_mod)(std::uint64_t* acc, const std::uint64_t* x, std::size_t n,
                  std::uint64_t q);
  /// acc[i] = add(acc[i], mul_shoup(src[i], w, wp)) — the Shoup axpy GEMM
  /// row (wp = shoup_precompute(w), the generic 64-bit Shoup form).
  void (*shoup_axpy)(std::uint64_t* acc, const std::uint64_t* src,
                     std::uint64_t w, std::uint64_t wp, std::size_t n,
                     std::uint64_t q);
  /// 192-bit lazy axpy row: (lo,mi,hi)[i] += w * src[i] as an exact 3-limb
  /// integer — field_vec.h lazy192_accumulate over a contiguous run.
  void (*lazy192_axpy)(std::uint64_t* lo, std::uint64_t* mi,
                       std::uint64_t* hi, std::uint64_t w,
                       const std::uint64_t* src, std::size_t n);
  /// SoA dot row: for each lane l < lanes,
  ///   (lo,mi,hi)[l] = sum_c coeffs[c * coeff_stride] * x[c * lanes + l]
  /// accumulated in registers (the collapsed base-node matvec of the
  /// batched decode plane). Overwrites the output limbs.
  void (*lazy192_dot)(std::uint64_t* lo, std::uint64_t* mi, std::uint64_t* hi,
                      const std::uint64_t* coeffs, std::size_t coeff_stride,
                      const std::uint64_t* x, std::size_t terms,
                      std::size_t lanes);
};

/// Goldilocks-specific kernels (p = 2^64 - 2^32 + 1 > 2^63 needs its own
/// add/sub wrap fixups and the 65-bit Shoup remainder path).
struct GoldilocksKernels {
  void (*add_mod)(std::uint64_t* acc, const std::uint64_t* x, std::size_t n);
  void (*sub_mod)(std::uint64_t* acc, const std::uint64_t* x, std::size_t n);
  /// acc[i] = add(acc[i], mul_shoup(src[i], w, wp)).
  void (*shoup_axpy)(std::uint64_t* acc, const std::uint64_t* src,
                     std::uint64_t w, std::uint64_t wp, std::size_t n);
  /// a[i] = mul_shoup(a[i], s, sp) — inverse-NTT scaling, SoA leaf scale.
  void (*mul_shoup_inplace)(std::uint64_t* a, std::uint64_t s,
                            std::uint64_t sp, std::size_t n);
  /// a[r*lanes + l] = mul_shoup(a[r*lanes + l], s[r], sp[r]) — the SoA
  /// pointwise-product / leaf-scale pass (one scalar per lane row).
  void (*mul_shoup_rows)(std::uint64_t* a, const std::uint64_t* s,
                         const std::uint64_t* sp, std::size_t rows,
                         std::size_t lanes);
  /// out[i] = lazy192_fold(lo[i], mi[i], hi[i]) — canonical reduction of
  /// the exact 192-bit sums (limbs are raw integers, not reps).
  void (*fold192)(std::uint64_t* out, const std::uint64_t* lo,
                  const std::uint64_t* mi, const std::uint64_t* hi,
                  std::size_t n);
  /// Cooley-Tukey butterflies with per-j twiddles (NttPlan::forward inner
  /// loop): t = mul_shoup(b[j], tw[j], twp[j]); a[j],b[j] = u+t, u-t.
  void (*butterfly_tw)(std::uint64_t* a, std::uint64_t* b,
                       const std::uint64_t* tw, const std::uint64_t* twp,
                       std::size_t n);
  /// SoA butterflies: for j < nj the lane blocks a[j*lanes..), b[j*lanes..)
  /// get the scalar twiddle tw[j] (the lane-streaming transform of the
  /// batched decode plane).
  void (*butterfly_soa)(std::uint64_t* a, std::uint64_t* b,
                        const std::uint64_t* tw, const std::uint64_t* twp,
                        std::size_t nj, std::size_t lanes);
};

/// Table for an explicit level — null when the level has no x86/arm64
/// implementation compiled in or the host cannot run it. Tests iterate
/// available levels through these.
[[nodiscard]] const U32Kernels* u32_kernels(Level level);
[[nodiscard]] const U64Kernels* u64_kernels(Level level);
[[nodiscard]] const GoldilocksKernels* goldilocks_kernels(Level level);

/// Tables at active_level() — the one call sites use. Null means "run the
/// scalar template".
[[nodiscard]] const U32Kernels* u32_active();
[[nodiscard]] const U64Kernels* u64_active();
[[nodiscard]] const GoldilocksKernels* goldilocks_active();

// ----------------------------------------------------- field-type routing

template <class F>
concept HasModulus = requires {
  { F::modulus } -> std::convertible_to<std::uint64_t>;
};

inline constexpr std::uint64_t kGoldilocksModulus = 0xFFFFFFFF00000001ull;

/// True for field::Goldilocks (matched structurally so the field header
/// need not know about this layer).
template <class F>
inline constexpr bool kIsGoldilocksField = [] {
  if constexpr (HasModulus<F> && sizeof(typename F::rep) == 8) {
    return F::modulus == kGoldilocksModulus;
  } else {
    return false;
  }
}();

/// True for 32-bit prime fields the U32Kernels table covers.
template <class F>
inline constexpr bool kIsSimdU32Field = [] {
  if constexpr (HasModulus<F>) {
    return sizeof(typename F::rep) == 4;
  } else {
    return false;
  }
}();

/// True for 64-bit fields the generic U64Kernels table covers (q < 2^63;
/// Goldilocks routes to its own table).
template <class F>
inline constexpr bool kIsSimdU64Field = [] {
  if constexpr (HasModulus<F> && sizeof(typename F::rep) == 8) {
    return F::modulus < (std::uint64_t{1} << 63);
  } else {
    return false;
  }
}();

}  // namespace lsa::field::simd

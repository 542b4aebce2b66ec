// Runtime feature probe and kernel-table resolution (field/simd/dispatch.h).
#include "field/simd/dispatch.h"

#include <cstdlib>
#include <cstring>

#include "field/simd/kernels_internal.h"

namespace lsa::field::simd {

namespace {

/// Raw hardware capability, independent of caps/overrides.
bool hardware_supports(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is baseline on arm64
#else
      return false;
#endif
    case Level::kAvx2:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(LSA_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Level::kAvx512:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(LSA_HAVE_AVX512)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
#else
      return false;
#endif
  }
  return false;
}

/// The carry-less multiply bits the crc32_fold bodies need, probed once.
/// Neither level implies them: AVX2 does not imply PCLMULQDQ, and
/// AVX-512F/DQ hosts such as Skylake-SP and Cascade Lake lack VPCLMULQDQ.
/// A missing bit demotes only the CRC body, never the level.
struct ClmulBits {
  bool pclmul = false;
  bool vpclmulqdq = false;
};

[[maybe_unused]] ClmulBits clmul_bits() {
  static const ClmulBits bits = [] {
    ClmulBits b;
#if defined(__x86_64__) || defined(_M_X64)
    b.pclmul = __builtin_cpu_supports("pclmul") != 0;
    b.vpclmulqdq = b.pclmul && __builtin_cpu_supports("vpclmulqdq") != 0;
#endif
    return b;
  }();
  return bits;
}

/// LSA_SIMD=scalar|neon|avx2|avx512 caps the probe (an unknown or
/// unavailable value degrades to the best level at or below the cap).
Level env_cap() {
  const char* env = std::getenv("LSA_SIMD");
  if (env == nullptr) return Level::kAvx512;  // no cap
  if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(env, "neon") == 0) return Level::kNeon;
  if (std::strcmp(env, "avx2") == 0) return Level::kAvx2;
  if (std::strcmp(env, "avx512") == 0) return Level::kAvx512;
  return Level::kAvx512;
}

Level probe() {
#if defined(LSA_FORCE_SCALAR)
  return Level::kScalar;
#else
  const Level cap = env_cap();
  const Level order[] = {Level::kAvx512, Level::kAvx2, Level::kNeon};
  for (Level l : order) {
    if (static_cast<int>(l) <= static_cast<int>(cap) && hardware_supports(l)) {
      return l;
    }
  }
  return Level::kScalar;
#endif
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNeon:
      return "neon";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::size_t vector_bytes(Level level) {
  switch (level) {
    case Level::kScalar:
      return 8;
    case Level::kNeon:
      return 16;
    case Level::kAvx2:
      return 32;
    case Level::kAvx512:
      return 64;
  }
  return 8;
}

bool level_available(Level level) { return hardware_supports(level); }

Level detected_level() {
  static const Level level = probe();
  return level;
}

Level active_level() {
  if (thread_policy() == SimdPolicy::kForceScalar) return Level::kScalar;
  return detected_level();
}

const U32Kernels* u32_kernels(Level level) {
  if (!hardware_supports(level)) return nullptr;
  switch (level) {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(LSA_HAVE_AVX2)
    case Level::kAvx2: {
      static const U32Kernels table = [] {
        U32Kernels t = detail::kU32Avx2;
        if (!clmul_bits().pclmul) t.crc32_fold = nullptr;
        return t;
      }();
      return &table;
    }
#endif
#if (defined(__x86_64__) || defined(_M_X64)) && defined(LSA_HAVE_AVX512)
    case Level::kAvx512: {
      // The next body down: 512-bit, else the AVX2 unit's 128-bit one,
      // else slice-by-8.
      static const U32Kernels table = [] {
        U32Kernels t = detail::kU32Avx512;
        const ClmulBits bits = clmul_bits();
        if (!bits.vpclmulqdq) t.crc32_fold = nullptr;
#if defined(LSA_HAVE_AVX2)
        if (t.crc32_fold == nullptr && bits.pclmul) {
          t.crc32_fold = detail::kU32Avx2.crc32_fold;
        }
#endif
        return t;
      }();
      return &table;
    }
#endif
#if defined(__aarch64__)
    case Level::kNeon:
      return &detail::kU32Neon;
#endif
    default:
      return nullptr;
  }
}

const U64Kernels* u64_kernels(Level level) {
  if (!hardware_supports(level)) return nullptr;
  switch (level) {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(LSA_HAVE_AVX2)
    case Level::kAvx2:
      return &detail::kU64Avx2;
#endif
#if (defined(__x86_64__) || defined(_M_X64)) && defined(LSA_HAVE_AVX512)
    case Level::kAvx512:
      return &detail::kU64Avx512;
#endif
#if defined(__aarch64__)
    case Level::kNeon:
      return &detail::kU64Neon;
#endif
    default:
      return nullptr;
  }
}

const GoldilocksKernels* goldilocks_kernels(Level level) {
  if (!hardware_supports(level)) return nullptr;
  switch (level) {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(LSA_HAVE_AVX2)
    case Level::kAvx2:
      return &detail::kGoldilocksAvx2;
#endif
#if (defined(__x86_64__) || defined(_M_X64)) && defined(LSA_HAVE_AVX512)
    case Level::kAvx512:
      return &detail::kGoldilocksAvx512;
#endif
#if defined(__aarch64__)
    case Level::kNeon:
      return &detail::kGoldilocksNeon;
#endif
    default:
      return nullptr;
  }
}

const U32Kernels* u32_active() { return u32_kernels(active_level()); }
const U64Kernels* u64_active() { return u64_kernels(active_level()); }
const GoldilocksKernels* goldilocks_active() {
  return goldilocks_kernels(active_level());
}

}  // namespace lsa::field::simd

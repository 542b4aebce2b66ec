// Uniform sampling of field elements from any 64-bit entropy source.
//
// Works with both the non-cryptographic simulation RNG (common::Xoshiro256ss)
// and the cryptographic PRG (crypto::Prg) — anything exposing
// `uint64_t next_u64()`. Rejection sampling removes modulo bias entirely.
// A source that also has the bulk `fill_u64` (crypto::Prg) is sampled a
// buffer of draws at a time, with the same draws accepted in the same
// order, so the output and the source's final position do not change.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "field/simd/dispatch.h"

namespace lsa::field {

template <class G>
concept BitSource = requires(G g) {
  { g.next_u64() } -> std::convertible_to<std::uint64_t>;
};

/// A BitSource whose fill_u64(out) returns exactly the draws of out.size()
/// next_u64() calls.
template <class G>
concept BulkBitSource =
    BitSource<G> && requires(G g, std::span<std::uint64_t> out) {
      g.fill_u64(out);
    };

/// Largest multiple of q that fits in 64 bits: the rejection sampler
/// accepts draws below it.
template <class F>
inline constexpr std::uint64_t kSampleLimit =
    (~0ull / F::modulus) * F::modulus;

/// One uniform element of F via rejection sampling from 64-bit draws.
template <class F, BitSource G>
[[nodiscard]] typename F::rep uniform(G& gen) {
  constexpr std::uint64_t q = F::modulus;
  std::uint64_t v = gen.next_u64();
  while (v >= kSampleLimit<F>) v = gen.next_u64();
  // mod-ok: sampling boundary, not a reduction kernel — one generic `%`
  // per draw is off every encode/decode hot path.
  return static_cast<typename F::rep>(v % q);
}

/// True for the 32-bit pseudo-Mersenne fields q = 2^32 - c, c < 2^16,
/// that U32Kernels::sample_pm32 covers (Fp32: c = 5).
template <class F>
inline constexpr bool kPseudoMersenne32 =
    std::is_same_v<typename F::rep, std::uint32_t> &&
    F::modulus > (std::uint64_t{1} << 32) - (std::uint64_t{1} << 16);

/// The rejection sampler over a run of draws: writes each accepted draw,
/// in order, reduced mod q to out (room for draws.size() elements) and
/// returns how many it wrote.
template <class F>
std::size_t sample_draws(typename F::rep* out,
                         std::span<const std::uint64_t> draws) {
  constexpr std::uint64_t q = F::modulus;
  if constexpr (kPseudoMersenne32<F>) {
    const auto* k = simd::u32_active();
    if (k != nullptr && k->sample_pm32 != nullptr) {
      return k->sample_pm32(out, draws.data(), draws.size(),
                            static_cast<std::uint32_t>(q));
    }
  }
  std::size_t j = 0;
  for (const std::uint64_t v : draws) {
    // mod-ok: as in uniform(); a constant q compiles to a multiply.
    if (v < kSampleLimit<F>) out[j++] = static_cast<typename F::rep>(v % q);
  }
  return j;
}

/// Fill a span with uniform field elements.
template <class F, BitSource G>
void fill_uniform(std::span<typename F::rep> out, G& gen) {
  if constexpr (BulkBitSource<G>) {
    // Ask for exactly as many draws as elements are missing: a rejected
    // draw costs one more draw in the next pass, so the source stops where
    // the one-at-a-time loop would.
    std::array<std::uint64_t, 256> draws;
    std::size_t i = 0;
    while (i < out.size()) {
      const std::span<std::uint64_t> run(draws.data(),
                                         std::min(draws.size(), out.size() - i));
      gen.fill_u64(run);
      i += sample_draws<F>(out.data() + i, run);
    }
  } else {
    for (auto& x : out) x = uniform<F>(gen);
  }
}

/// Allocate and fill a uniform vector of n elements.
template <class F, BitSource G>
[[nodiscard]] std::vector<typename F::rep> uniform_vector(std::size_t n,
                                                          G& gen) {
  std::vector<typename F::rep> out(n);
  fill_uniform<F>(std::span<typename F::rep>(out), gen);
  return out;
}

}  // namespace lsa::field

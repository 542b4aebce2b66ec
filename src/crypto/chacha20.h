// ChaCha20 stream cipher core (RFC 8439), used as the PRG that expands
// short random seeds into the long masks of SecAgg / SecAgg+ and into the
// local masks z_i of LightSecAgg.
//
// chacha20_block is the one-block reference. chacha20_blocks computes many
// consecutive blocks per call through the field/simd dispatch table
// (U32Kernels::chacha20_blocks): 16 blocks per vector batch on AVX-512 and
// 8 on AVX2, after Goll and Gueron, "Vectorization of ChaCha Stream Cipher"
// (ITNG 2014) — one block per vector lane, each lane with its own counter,
// and a word transpose on store. Its output is bit-identical to looping
// chacha20_block, which is also what it runs on NEON, on hosts without
// AVX2, under -DLSA_FORCE_SCALAR=ON, LSA_SIMD=scalar and
// SimdPolicy::kForceScalar (tests/crypto_test.cpp checks every level).
//
// This is a from-scratch implementation of a public algorithm, built for the
// simulation substrate of this repository. It matches the RFC 8439 test
// vectors (see tests/crypto_test.cpp) but has not been audited for
// side-channel resistance — do not lift it into a production system as-is.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace lsa::crypto {

/// 256-bit key.
using ChaChaKey = std::array<std::uint8_t, 32>;
/// 96-bit nonce (RFC 8439 layout).
using ChaChaNonce = std::array<std::uint8_t, 12>;

/// Computes one 64-byte ChaCha20 keystream block:
/// block = Serialize(ChaCha20Block(key, counter, nonce)).
void chacha20_block(const ChaChaKey& key, std::uint32_t counter,
                    const ChaChaNonce& nonce, std::span<std::uint8_t, 64> out);

/// Fills `out` with the out.size() / 64 consecutive keystream blocks at
/// counters counter, counter + 1, ... (mod 2^32, as a 32-bit block counter
/// wraps). Throws lsa::ConfigError unless out.size() is a multiple of 64.
void chacha20_blocks(const ChaChaKey& key, const ChaChaNonce& nonce,
                     std::uint32_t counter, std::span<std::uint8_t> out);

/// Generates `out.size()` keystream bytes starting at block `counter`.
/// (XOR with plaintext would give encryption; we only need the keystream.)
void chacha20_stream(const ChaChaKey& key, const ChaChaNonce& nonce,
                     std::uint32_t counter, std::span<std::uint8_t> out);

}  // namespace lsa::crypto

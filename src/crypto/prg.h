// Seed-expanding pseudo-random generator built on ChaCha20.
//
// In SecAgg / SecAgg+ a short agreed seed is expanded into a length-d mask
// (PRG(a_ij), PRG(b_i) in the paper's §3); in LightSecAgg each user expands
// a local seed into z_i and the padding sub-masks n_i. The Prg class exposes
// a `uint64_t next_u64()` bit source and its bulk form `fill_u64`, so
// field/random_field.h can sample unbiased field elements from it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/chacha20.h"

namespace lsa::crypto {

/// 32-byte PRG seed. SecAgg's pairwise/private seeds and LightSecAgg's local
/// mask seeds are all of this type.
using Seed = std::array<std::uint8_t, 32>;

/// Derives a Seed from a 64-bit value. This is a convenience for tests and
/// simulations; a deployment would use the raw output of the key agreement
/// (see key_agreement.h) or an OS CSPRNG.
[[nodiscard]] Seed seed_from_u64(std::uint64_t v);

/// Mixes two seeds (and a domain-separation label) into a new seed, by keying
/// ChaCha20 with the first and encrypting the second. Used to derive
/// per-round and per-purpose sub-seeds from one agreed seed.
[[nodiscard]] Seed derive_subseed(const Seed& parent, std::uint64_t label);

/// Buffered ChaCha20 keystream exposed as a 64-bit bit source. The stream
/// is the blocks at counters 0, 1, 2, ... of (key = seed, nonce = stream
/// id). A 64-bit draw never straddles two blocks: after a fill_bytes whose
/// length is not a multiple of 8, the draw that would cross the block
/// boundary starts at the next block instead.
class Prg {
 public:
  explicit Prg(const Seed& seed, std::uint64_t stream_id = 0);

  /// Next 64 keystream bits.
  [[nodiscard]] std::uint64_t next_u64();

  /// The next out.size() draws: exactly what out.size() next_u64() calls
  /// would return, copied out of the batch buffer in runs.
  void fill_u64(std::span<std::uint64_t> out);

  /// Fills `out` with keystream bytes.
  void fill_bytes(std::span<std::uint8_t> out);

 private:
  /// Blocks computed per refill: one AVX-512 batch (two AVX2 batches), so
  /// short fills never fall back to one block at a time. The stream is the
  /// same at every batch size; unused blocks are simply never read.
  static constexpr std::size_t kBatchBlocks = 16;

  void refill();

  ChaChaKey key_{};
  ChaChaNonce nonce_{};
  std::uint32_t counter_ = 0;
  std::array<std::uint8_t, 64 * kBatchBlocks> buf_{};
  std::size_t pos_ = buf_.size();  // force refill on first use
};

}  // namespace lsa::crypto

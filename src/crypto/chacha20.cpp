#include "crypto/chacha20.h"

#include <cstring>

#include "common/error.h"
#include "field/simd/dispatch.h"

namespace lsa::crypto {

namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b; d ^= a; d = rotl32(d, 16);
  c += d; b ^= c; b = rotl32(b, 12);
  a += b; d ^= a; d = rotl32(d, 8);
  c += d; b ^= c; b = rotl32(b, 7);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// The RFC 8439 input state: constants, key, block counter, nonce.
void init_state(const ChaChaKey& key, std::uint32_t counter,
                const ChaChaNonce& nonce, std::uint32_t state[16]) {
  // "expand 32-byte k" constants.
  state[0] = 0x61707865u;
  state[1] = 0x3320646eu;
  state[2] = 0x79622d32u;
  state[3] = 0x6b206574u;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);
}

}  // namespace

void chacha20_block(const ChaChaKey& key, std::uint32_t counter,
                    const ChaChaNonce& nonce,
                    std::span<std::uint8_t, 64> out) {
  std::uint32_t state[16];
  init_state(key, counter, nonce, state);

  std::uint32_t w[16];
  std::memcpy(w, state, sizeof(w));
  for (int round = 0; round < 10; ++round) {
    // Column rounds.
    quarter_round(w[0], w[4], w[8], w[12]);
    quarter_round(w[1], w[5], w[9], w[13]);
    quarter_round(w[2], w[6], w[10], w[14]);
    quarter_round(w[3], w[7], w[11], w[15]);
    // Diagonal rounds.
    quarter_round(w[0], w[5], w[10], w[15]);
    quarter_round(w[1], w[6], w[11], w[12]);
    quarter_round(w[2], w[7], w[8], w[13]);
    quarter_round(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) {
    store_le32(out.data() + 4 * i, w[i] + state[i]);
  }
}

void chacha20_blocks(const ChaChaKey& key, const ChaChaNonce& nonce,
                     std::uint32_t counter, std::span<std::uint8_t> out) {
  if (out.size() % 64 != 0) {
    throw lsa::ConfigError("chacha20_blocks: need whole 64-byte blocks");
  }
  const std::size_t nblocks = out.size() / 64;
  const auto* k = lsa::field::simd::u32_active();
  if (k != nullptr && k->chacha20_blocks != nullptr) {
    std::uint32_t state[16];
    init_state(key, counter, nonce, state);
    k->chacha20_blocks(state, out.data(), nblocks);
    return;
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    chacha20_block(key, counter++, nonce,
                   std::span<std::uint8_t, 64>(out.data() + 64 * b, 64));
  }
}

void chacha20_stream(const ChaChaKey& key, const ChaChaNonce& nonce,
                     std::uint32_t counter, std::span<std::uint8_t> out) {
  const std::size_t whole = out.size() / 64 * 64;
  chacha20_blocks(key, nonce, counter, out.first(whole));
  if (whole < out.size()) {
    std::array<std::uint8_t, 64> block;
    chacha20_blocks(key, nonce,
                    counter + static_cast<std::uint32_t>(whole / 64), block);
    std::memcpy(out.data() + whole, block.data(), out.size() - whole);
  }
}

}  // namespace lsa::crypto

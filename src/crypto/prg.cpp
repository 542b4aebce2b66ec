#include "crypto/prg.h"

#include <algorithm>
#include <cstring>

namespace lsa::crypto {

Seed seed_from_u64(std::uint64_t v) {
  // SplitMix64-style expansion of the 64-bit value over the 32-byte seed.
  Seed s{};
  std::uint64_t state = v;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::memcpy(s.data() + 8 * i, &z, 8);
  }
  return s;
}

Seed derive_subseed(const Seed& parent, std::uint64_t label) {
  ChaChaKey key;
  std::memcpy(key.data(), parent.data(), 32);
  ChaChaNonce nonce{};
  std::memcpy(nonce.data(), &label, 8);
  std::array<std::uint8_t, 64> block;
  chacha20_block(key, /*counter=*/0xfeedu, nonce, block);
  Seed out;
  std::memcpy(out.data(), block.data(), 32);
  return out;
}

Prg::Prg(const Seed& seed, std::uint64_t stream_id) {
  std::memcpy(key_.data(), seed.data(), 32);
  std::memcpy(nonce_.data(), &stream_id, 8);
  // Remaining 4 nonce bytes stay zero; stream_id gives 2^64 parallel streams.
}

std::uint64_t Prg::next_u64() {
  // Skip a block tail shorter than one draw (only a fill_bytes of a length
  // that is not a multiple of 8 leaves one).
  if ((pos_ & 63) > 56) pos_ = (pos_ | 63) + 1;
  if (pos_ == buf_.size()) refill();
  std::uint64_t v;
  std::memcpy(&v, buf_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

void Prg::fill_u64(std::span<std::uint64_t> out) {
  std::size_t i = 0;
  while (i < out.size()) {
    if ((pos_ & 7) != 0) {
      // Draws off the 8-byte grid until the next block boundary.
      out[i++] = next_u64();
      continue;
    }
    if (pos_ == buf_.size()) refill();
    const std::size_t n = std::min((buf_.size() - pos_) / 8, out.size() - i);
    std::memcpy(out.data() + i, buf_.data() + pos_, 8 * n);
    pos_ += 8 * n;
    i += n;
  }
}

void Prg::fill_bytes(std::span<std::uint8_t> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    if (pos_ == buf_.size()) refill();
    const std::size_t n = std::min(buf_.size() - pos_, out.size() - off);
    std::memcpy(out.data() + off, buf_.data() + pos_, n);
    pos_ += n;
    off += n;
  }
}

void Prg::refill() {
  chacha20_blocks(key_, nonce_, counter_, buf_);
  counter_ += static_cast<std::uint32_t>(kBatchBlocks);
  pos_ = 0;
}

}  // namespace lsa::crypto

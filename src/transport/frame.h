// Zero-copy framing over pooled buffers.
//
// A frame is runtime/wire.h's layout — 7-word header, CRC over the payload
// — built ONCE, directly from a field-row view (a FlatMatrix arena row, a
// stack vector's span), into a ref-counted pooled buffer. On the inbound
// side parse_frame() validates in place and exposes the payload as a
// std::span<const rep> aliasing the buffer words: receivers copy at most
// once, straight into their arena row (ShareBank::put), with no
// intermediate payload vector on either side.
//
// Layout recap ([] = one write each, little-endian):
//   words[0..6]  header: type/flags, sender, receiver, round lo/hi,
//                payload_elems, crc32(payload bytes)
//   words[7..]   payload: canonical Fp32 reps
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "common/error.h"
#include "field/fp.h"
#include "runtime/wire.h"
#include "transport/buffer_pool.h"
#include "transport/stats.h"

namespace lsa::transport {

inline constexpr std::size_t kHeaderWords = lsa::runtime::kHeaderBytes / 4;

/// Parsed, validated view of a frame. `payload` aliases the frame buffer —
/// it is valid only while the owning BufferRef is alive.
struct FrameView {
  lsa::runtime::MsgType type = lsa::runtime::MsgType::kEncodedMaskShare;
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
  std::uint64_t round = 0;
  std::span<const lsa::field::Fp32::rep> payload;
};

/// Builds a frame straight from a row view: one header write + one payload
/// write into a pooled buffer. This is the zero-copy send path — no
/// intermediate payload vector exists, which the stats counters attest.
[[nodiscard]] inline BufferRef build_frame(
    BufferPool& pool, lsa::runtime::MsgType type, std::uint32_t sender,
    std::uint32_t receiver, std::uint64_t round,
    std::span<const lsa::field::Fp32::rep> payload) {
  const std::size_t nbytes = lsa::runtime::kHeaderBytes + 4 * payload.size();
  BufferRef buf = pool.acquire(nbytes);
  const auto words = buf.words();
  if (!payload.empty()) {
    // copy-ok: THE single sanctioned send-side write — row view straight
    // into the pooled frame; note_framed (not note_copy) counts it.
    std::memcpy(words.data() + kHeaderWords, payload.data(),
                4 * payload.size());
  }
  const std::uint32_t crc = lsa::runtime::crc32(
      buf.bytes().subspan(lsa::runtime::kHeaderBytes, 4 * payload.size()));
  lsa::runtime::write_header(buf.bytes().data(), type, sender, receiver,
                             round,
                             static_cast<std::uint32_t>(payload.size()), crc);
  counters().note_framed(4 * payload.size());
  return buf;
}

/// Copies raw frame bytes into a pooled buffer (fuzzing / re-injection of
/// externally produced frames). No validation — parse_frame does that.
[[nodiscard]] inline BufferRef frame_from_bytes(
    BufferPool& pool, std::span<const std::uint8_t> bytes) {
  BufferRef buf = pool.acquire(bytes.size());
  if (!bytes.empty()) {
    // copy-ok: ingestion of externally produced raw bytes (fuzzing /
    // re-injection); not on any round's send path.
    std::memcpy(buf.bytes().data(), bytes.data(), bytes.size());
  }
  return buf;
}

/// Validates a frame in place (length, CRC, canonical field elements) and
/// returns a view whose payload aliases the buffer words. Throws
/// ProtocolError on any corruption.
[[nodiscard]] inline FrameView parse_frame(const BufferRef& buf) {
  const lsa::runtime::WireHeader h =
      lsa::runtime::read_header_checked(buf.bytes());
  FrameView f;
  f.type = h.type;
  f.sender = h.sender;
  f.receiver = h.receiver;
  f.round = h.round;
  f.payload = buf.words().subspan(kHeaderWords, h.payload_elems);
  lsa::runtime::check_canonical_payload(f.payload);
  return f;
}

}  // namespace lsa::transport

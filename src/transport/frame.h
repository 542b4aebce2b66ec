// Zero-copy framing over pooled buffers.
//
// A frame is runtime/wire.h's layout — 7-word header, CRC over the payload
// — in one contiguous range of a ref-counted pooled block, written once.
// A sender acquires the frame (acquire_frame: a block of its own), writes
// its payload in place through frame_payload (a device draws its mask or
// sums its recovery response straight there), and seals it (seal_frame:
// CRC + header). A device's N - 1 share frames come from
// acquire_frame_batch instead: back-to-back ranges of one block, each
// filled, sealed, counted and delivered exactly like a frame of its own
// (the encode writes every share straight into its range). build_frame is
// the copying variant for payloads that already live elsewhere: one copy
// of the row view into the frame, then the same seal. On the inbound side
// a receiver gets a FrameView whose payload is a std::span<const rep>
// aliasing the frame's words: it reads the payload where it lies or
// copies it once into its own arena row (ShareBank::put).
//
// Validation contract: a frame is validated once, where its bytes enter
// the process. parse_frame() is the validator — length, payload CRC and a
// canonical scan of every rep — and runs on every frame read off a socket
// (the hub's frames for its server machine and its hellos, a client's
// ingress), on bytes ingested through frame_from_bytes, and on every
// in-process delivery while a router fault hook is installed (the hook
// may have rewritten the bytes). A frame sealed by this process's own
// seal_frame and delivered untouched is read with view_sealed_frame():
// the header and a length check only. Its payload is exactly what the
// sender wrote, so in-process receivers get a sender's reps unchecked:
// senders must write canonical Fp32 reps (every device and server path
// does; a device's model input is the caller's to keep canonical).
//
// Layout recap ([] = one write each, little-endian):
//   words[0..6]  header: type/flags, sender, receiver, round lo/hi,
//                payload_elems, crc32(payload bytes)
//   words[7..]   payload: canonical Fp32 reps
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.h"
#include "field/fp.h"
#include "runtime/wire.h"
#include "transport/buffer_pool.h"
#include "transport/stats.h"

namespace lsa::transport {

inline constexpr std::size_t kHeaderWords = lsa::runtime::kHeaderBytes / 4;

/// Parsed view of a frame: validated by parse_frame, or read by
/// view_sealed_frame from a frame this process sealed. `payload` aliases
/// the frame buffer — it is valid only while the owning BufferRef is
/// alive.
struct FrameView {
  lsa::runtime::MsgType type = lsa::runtime::MsgType::kEncodedMaskShare;
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
  std::uint64_t round = 0;
  std::span<const lsa::field::Fp32::rep> payload;
};

/// A delivered frame: the view plus the buffer keeping it alive.
struct Inbound {
  BufferRef buf;
  FrameView view;
};

/// Receiver field of a broadcast frame: it is sealed once and shared by
/// every receiver, which dispatch on their own endpoint, never on this.
inline constexpr std::uint32_t kBroadcastReceiver = 0xFFFFFFFFu;

/// A pooled frame with room for `elems` payload reps. Header and payload
/// are unwritten (stale pool contents) until the caller fills
/// frame_payload() and seals it.
[[nodiscard]] inline BufferRef acquire_frame(BufferPool& pool,
                                             std::size_t elems) {
  return pool.acquire(lsa::runtime::kHeaderBytes + 4 * elems);
}

/// `count` frames with room for `elems` payload reps each, carved in order
/// from one pooled block (BufferPool::acquire_batch): a device's share
/// fan-out. Each is filled, sealed and sent like a frame from
/// acquire_frame; the block ends when the last of them is released.
[[nodiscard]] inline std::vector<BufferRef> acquire_frame_batch(
    BufferPool& pool, std::size_t count, std::size_t elems) {
  return pool.acquire_batch(count, lsa::runtime::kHeaderBytes + 4 * elems);
}

/// The payload region of a frame from acquire_frame or
/// acquire_frame_batch, writable until the frame is sealed and sent.
[[nodiscard]] inline std::span<lsa::field::Fp32::rep> frame_payload(
    BufferRef& frame) {
  return frame.words().subspan(
      kHeaderWords, (frame.size_bytes() - lsa::runtime::kHeaderBytes) / 4);
}

/// Seals a filled frame in place: CRC over the payload, then the header.
/// Every frame is sealed exactly once, so note_framed counts each frame
/// and its payload bytes once, whether the payload was written in place
/// or copied in by build_frame.
inline void seal_frame(BufferRef& frame, lsa::runtime::MsgType type,
                       std::uint32_t sender, std::uint32_t receiver,
                       std::uint64_t round) {
  const std::size_t payload_bytes =
      frame.size_bytes() - lsa::runtime::kHeaderBytes;
  const std::uint32_t crc = lsa::runtime::crc32(
      frame.bytes().subspan(lsa::runtime::kHeaderBytes, payload_bytes));
  lsa::runtime::write_header(frame.bytes().data(), type, sender, receiver,
                             round,
                             static_cast<std::uint32_t>(payload_bytes / 4),
                             crc);
  counters().note_framed(payload_bytes);
}

/// Copies a row view into a frame's payload (sizes must match).
inline void copy_payload(BufferRef& frame,
                         std::span<const lsa::field::Fp32::rep> payload) {
  const auto dst = frame_payload(frame);
  lsa::require(dst.size() == payload.size(),
               "frame: payload length differs from the frame's");
  if (!payload.empty()) {
    // copy-ok: THE copying send path — a row view that already lives
    // elsewhere, written once into its frame; seal_frame counts it as
    // framed (note_framed), not as an intermediate copy.
    std::memcpy(dst.data(), payload.data(), 4 * payload.size());
  }
}

/// Builds a sealed frame from a row view: acquire, one payload copy, seal.
[[nodiscard]] inline BufferRef build_frame(
    BufferPool& pool, lsa::runtime::MsgType type, std::uint32_t sender,
    std::uint32_t receiver, std::uint64_t round,
    std::span<const lsa::field::Fp32::rep> payload) {
  BufferRef buf = acquire_frame(pool, payload.size());
  copy_payload(buf, payload);
  seal_frame(buf, type, sender, receiver, round);
  return buf;
}

/// Copies raw frame bytes into a pooled buffer (fuzzing / re-injection of
/// externally produced frames). No validation here: its consumers run
/// parse_frame on the result.
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

namespace detail {

[[nodiscard]] inline FrameView view_of(const BufferRef& buf,
                                       const lsa::runtime::WireHeader& h) {
  FrameView f;
  f.type = h.type;
  f.sender = h.sender;
  f.receiver = h.receiver;
  f.round = h.round;
  f.payload = buf.words().subspan(kHeaderWords, h.payload_elems);
  return f;
}

}  // namespace detail

/// The validator for bytes from outside the process (see the contract at
/// the top of this file): checks the frame in place (length, payload CRC,
/// canonical field elements) and returns a view whose payload aliases the
/// buffer words. Throws ProtocolError on any corruption. Counted in
/// counters().frames_validated, whether or not the frame passes.
[[nodiscard]] inline FrameView parse_frame(const BufferRef& buf) {
  counters().note_validated();
  const FrameView f =
      detail::view_of(buf, lsa::runtime::read_header_checked(buf.bytes()));
  lsa::runtime::check_canonical_payload(f.payload);
  return f;
}

/// Header-only read of a frame this process sealed (seal_frame) and
/// delivers untouched: type, sender, receiver, round and a length check —
/// no CRC pass, no canonical scan. Throws ProtocolError on a length
/// mismatch. Never use it on bytes from a socket, frame_from_bytes or a
/// fault hook; parse_frame validates those.
[[nodiscard]] inline FrameView view_sealed_frame(const BufferRef& buf) {
  return detail::view_of(buf, lsa::runtime::read_header(buf.bytes()));
}

}  // namespace lsa::transport

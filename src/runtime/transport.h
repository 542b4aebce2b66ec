// Transport seam between the state machines and the message plane.
//
// The state machines in runtime/machines.h and runtime/async_machines.h
// emit traffic through this interface and never see what carries it:
//
//   * transport::ConcurrentRouter — the in-process plane (per-receiver
//     mailboxes over pooled frames), owned and pumped by runtime::Network
//     / runtime::AsyncNetwork, one receiver per lane of their ExecPolicy
//     (a server session's pool, or inline for the serial reference);
//   * transport::socket::SocketTransport — the same frames over TCP or
//     Unix-domain sockets.
//
// Frames are written in place: a sender acquires a pooled frame, writes
// its payload straight into frame_payload() (a device draws its mask,
// encodes its shares, sums its recovery response there) and hands the
// frame to send / broadcast, which seal it once (CRC + header) and
// enqueue it. acquire_batch hands out a device's whole share fan-out as
// frames carved from one block; each is then sent like any other frame,
// and the block is freed when its last frame is released. send_row /
// broadcast_row are the copying helpers for a payload that already lives
// elsewhere (a bitmap, a decoded result): one copy into the acquired
// frame, then the same send. Each transport thus has one framing path,
// and no intermediate payload vector exists on any send path
// (transport/stats.h counts copies; tests assert zero).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "runtime/wire.h"
#include "transport/buffer_pool.h"
#include "transport/frame.h"

namespace lsa::runtime {

/// Slack every mailbox, socket write queue and parked bin keeps above the
/// fan-in bound it is sized from.
inline constexpr std::size_t kCapacityHeadroom = 14;

/// Largest single-phase fan-in any one queue sees in a sync round: up to
/// 2N frames can land in one mailbox before any pump runs (N-1 offline
/// shares + survivor traffic on a user box, N masked models + N aggregated
/// shares on the server box across an unpumped phase pair). A bound below
/// it would wedge a lone driving thread on backpressure with nobody left
/// to drain. runtime::Network sizes its router from this rule plus
/// kCapacityHeadroom, and the socket hub its write queues and parked bins.
[[nodiscard]] constexpr std::size_t sync_fanin_bound(std::size_t n) {
  return 2 * n + 2;
}

class Transport {
 public:
  using rep = lsa::field::Fp32::rep;

  virtual ~Transport() = default;

  /// A pooled frame with an `elems`-rep payload for the caller to fill
  /// through transport::frame_payload; contents are stale until written.
  [[nodiscard]] virtual lsa::transport::BufferRef acquire(
      std::size_t elems) = 0;

  /// `count` pooled frames with an `elems`-rep payload each, carved from
  /// one block (a device's share fan-out: one block, not `count`).
  /// Each is filled, sent and released like a frame from acquire().
  [[nodiscard]] virtual std::vector<lsa::transport::BufferRef> acquire_batch(
      std::size_t count, std::size_t elems) = 0;

  /// Seals a filled frame from acquire() or acquire_batch() and sends it
  /// to `receiver`.
  virtual void send(lsa::transport::BufferRef frame, MsgType type,
                    std::uint32_t sender, std::uint32_t receiver,
                    std::uint64_t round) = 0;

  /// Seals one filled frame and fans it out to receivers
  /// 0..num_receivers-1 (the server's survivor-set / result / manifest
  /// broadcasts): one buffer, one reference per receiver.
  virtual void broadcast(lsa::transport::BufferRef frame, MsgType type,
                         std::uint32_t sender, std::uint64_t round,
                         std::uint32_t num_receivers) = 0;

  /// Copying send: acquire, one payload copy, send.
  void send_row(MsgType type, std::uint32_t sender, std::uint32_t receiver,
                std::uint64_t round, std::span<const rep> payload) {
    send(framed_copy(payload), type, sender, receiver, round);
  }

  /// Copying broadcast: acquire, one payload copy, broadcast.
  void broadcast_row(MsgType type, std::uint32_t sender, std::uint64_t round,
                     std::span<const rep> payload,
                     std::uint32_t num_receivers) {
    broadcast(framed_copy(payload), type, sender, round, num_receivers);
  }

 private:
  [[nodiscard]] lsa::transport::BufferRef framed_copy(
      std::span<const rep> payload) {
    lsa::transport::BufferRef frame = acquire(payload.size());
    lsa::transport::copy_payload(frame, payload);
    return frame;
  }
};

}  // namespace lsa::runtime

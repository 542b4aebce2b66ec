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
// send_row is THE hot entry point: senders pass a row view (FlatMatrix
// arena row, local vector span) and every transport frames it once,
// straight from the view — no intermediate payload vector exists on any
// send path (transport/stats.h counts copies; tests assert zero).
#pragma once

#include <span>

#include "runtime/wire.h"

namespace lsa::runtime {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends a payload row view to `receiver`.
  virtual void send_row(MsgType type, std::uint32_t sender,
                        std::uint32_t receiver, std::uint64_t round,
                        std::span<const lsa::field::Fp32::rep> payload) = 0;

  /// Broadcasts one payload to receivers 0..num_receivers-1 (the server's
  /// survivor-set / result / manifest fan-outs). Default: one send_row per
  /// receiver. Ref-counted transports override this to frame ONCE and
  /// share the buffer across all mailboxes.
  virtual void broadcast_row(MsgType type, std::uint32_t sender,
                             std::uint64_t round,
                             std::span<const lsa::field::Fp32::rep> payload,
                             std::uint32_t num_receivers) {
    for (std::uint32_t j = 0; j < num_receivers; ++j) {
      send_row(type, sender, j, round, payload);
    }
  }
};

}  // namespace lsa::runtime

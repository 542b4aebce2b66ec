// Per-connection state machine: one non-blocking stream socket, a frame
// decoder on the read side, and a bounded queue of pooled frames on the
// write side.
//
// Send path is zero-copy: callers enqueue the frame's BufferRef and flush()
// gathers queued frames into one writev straight from the pooled buffers —
// no staging buffer, no payload memcpy, so the global payload-copy counter
// stays untouched (the counter-enforced claim bench_socket gates on).
// Broadcasts enqueue the SAME BufferRef on many connections; the refcount
// is the only per-receiver cost and the last queue to drain recycles the
// block.
//
// Read path streams into the FrameDecoder; when a frame is mid-flight and
// large, reads land directly in its pooled buffer (direct_target) instead
// of bouncing through the chunk buffer.
//
// The queue is bounded (the cap argument). Enqueueing past the bound is the
// transport's backpressure signal — SocketTransport maps it onto the same
// blocking-sender contract the in-process mailboxes use, with a stall
// timeout that declares the peer crashed.
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "transport/buffer_pool.h"
#include "transport/socket/frame_decoder.h"

namespace lsa::transport::socket {

/// Decoder bound: a length field above this tears the connection down
/// (ProtocolError) instead of waiting for bytes that will never come.
inline constexpr std::size_t kMaxPayloadElems = 1u << 24;
/// Size of the buffer small reads (headers, small frames) land in.
inline constexpr std::size_t kReadChunkBytes = 16 * 1024;
/// Reads bypass the chunk buffer once a frame's remaining payload is at
/// least this large (big frames stream straight into their pooled buffer).
inline constexpr std::size_t kDirectReadThreshold = 4 * 1024;

class Connection {
 public:
  static constexpr std::uint32_t kUnbound = 0xFFFFFFFFu;

  /// `write_queue_cap` bounds the outbound queue; the hub re-sets it with
  /// set_queue_cap once a handshake tells it the session's N.
  Connection(int fd, BufferPool& pool, std::size_t write_queue_cap)
      : fd_(fd),
        queue_cap_(write_queue_cap),
        decoder_(pool, kMaxPayloadElems),
        rbuf_(kReadChunkBytes) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Reads until EAGAIN, feeding completed frames to sink(BufferRef&&).
  /// Returns false when the peer is gone (EOF or a fatal socket error);
  /// may throw ProtocolError from the decoder (oversized frame).
  template <class Sink>
  [[nodiscard]] bool pump_reads(Sink&& sink) {
    while (true) {
      ssize_t n = 0;
      const auto direct = decoder_.direct_target();
      if (direct.size() >= kDirectReadThreshold) {
        n = ::read(fd_, direct.data(), direct.size());
        if (n > 0) {
          bytes_in_ += static_cast<std::uint64_t>(n);
          decoder_.commit_direct(static_cast<std::size_t>(n), sink);
          continue;
        }
      } else {
        n = ::read(fd_, rbuf_.data(), rbuf_.size());
        if (n > 0) {
          bytes_in_ += static_cast<std::uint64_t>(n);
          decoder_.feed({rbuf_.data(), static_cast<std::size_t>(n)}, sink);
          continue;
        }
      }
      if (n == 0) return false;  // orderly EOF
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  /// Appends a frame to the bounded write queue. False = queue full (the
  /// caller applies the backpressure contract).
  [[nodiscard]] bool try_enqueue(BufferRef frame) {
    if (outq_.size() >= queue_cap_) return false;
    outq_.push_back(std::move(frame));
    if (outq_.size() > max_queue_depth_) max_queue_depth_ = outq_.size();
    return true;
  }

  /// writev-gathers queued frames until the queue drains or the kernel
  /// buffer fills. Returns false on a fatal error (peer gone).
  [[nodiscard]] bool flush() {
    while (!outq_.empty()) {
      iovec iov[kMaxIov];
      int niov = 0;
      std::size_t off = write_off_;
      for (auto it = outq_.begin(); it != outq_.end() && niov < kMaxIov;
           ++it) {
        const auto bytes = it->bytes();
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(bytes.data()) + off;
        iov[niov].iov_len = bytes.size() - off;
        ++niov;
        off = 0;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(niov);
      // MSG_NOSIGNAL: a peer that closed mid-round must surface as EPIPE
      // (mapped to crash()), not kill the process with SIGPIPE.
      const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      bytes_out_ += static_cast<std::uint64_t>(w);
      std::size_t left = static_cast<std::size_t>(w);
      while (left > 0) {
        const std::size_t front_rest =
            outq_.front().size_bytes() - write_off_;
        if (left >= front_rest) {
          left -= front_rest;
          outq_.pop_front();  // last ref may recycle the block here
          write_off_ = 0;
          ++frames_out_;
        } else {
          write_off_ += left;
          left = 0;
        }
      }
    }
    return true;
  }

  [[nodiscard]] bool wants_write() const { return !outq_.empty(); }
  [[nodiscard]] std::size_t queue_depth() const { return outq_.size(); }

  /// Drops every queued frame; returns how many were discarded.
  std::size_t drop_queue() {
    const std::size_t n = outq_.size();
    outq_.clear();
    write_off_ = 0;
    return n;
  }

  /// Surrenders the queued frames (connection teardown re-parks them for
  /// the user's rebind). A partially-written front frame restarts from
  /// byte 0 — the peer that saw the partial bytes is gone.
  [[nodiscard]] std::deque<BufferRef> take_queue() {
    write_off_ = 0;
    return std::move(outq_);
  }

  [[nodiscard]] std::uint64_t bytes_in() const { return bytes_in_; }
  [[nodiscard]] std::uint64_t bytes_out() const { return bytes_out_; }
  [[nodiscard]] std::uint64_t frames_out() const { return frames_out_; }
  [[nodiscard]] std::uint64_t frames_in() const {
    return decoder_.frames_out();
  }
  [[nodiscard]] std::size_t max_queue_depth() const {
    return max_queue_depth_;
  }
  void set_queue_cap(std::size_t cap) { queue_cap_ = cap; }

  /// Peek at a queued frame (tests pin the one-buffer-many-queues refcount
  /// through this).
  [[nodiscard]] const BufferRef& queued_front() const {
    return outq_.front();
  }

  // Session binding (hub side) and teardown bookkeeping, managed by
  // SocketTransport. The two sides of a stream die independently: a write
  // failure (peer closed first) makes the connection unroutable for NEW
  // outbound traffic (tx_dead) but its read side keeps draining — the
  // peer's final flushed frames (an upload before an orderly disconnect)
  // are valid protocol input ("delayed, not dropped"). `failed` is the
  // hard end: EOF drained or protocol violation, queued for reap.
  std::uint64_t session = 0;
  std::uint32_t user = kUnbound;
  bool failed = false;
  bool tx_dead = false;         ///< write side dead; reads still drain
  bool poisoned = false;        ///< protocol violation: drop its frames
  bool epollout_armed = false;  ///< current EPOLLOUT interest (dedups mod)
  [[nodiscard]] bool bound() const { return user != kUnbound; }

 private:
  static constexpr int kMaxIov = 8;

  int fd_;
  std::size_t queue_cap_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> rbuf_;
  std::deque<BufferRef> outq_;
  std::size_t write_off_ = 0;  ///< bytes of outq_.front() already written
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
  std::uint64_t frames_out_ = 0;
  std::size_t max_queue_depth_ = 0;
};

}  // namespace lsa::transport::socket

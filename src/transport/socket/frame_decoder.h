// Incremental wire-frame reassembly from a TCP/UDS byte stream.
//
// A stream socket tears frames arbitrarily: a read may end mid-header,
// mid-CRC, mid-payload, or deliver several coalesced frames at once. The
// decoder turns that byte soup back into pooled frame buffers:
//
//   * the 28-byte header is staged in a fixed array until complete — a torn
//     header costs no pool traffic;
//   * the header's payload_elems field then sizes ONE BufferPool acquire
//     for the whole frame, and payload bytes stream straight into it (the
//     receive-side single copy: kernel -> pooled frame);
//   * a bounded max_payload_elems rejects garbage lengths loudly
//     (ProtocolError) instead of waiting forever for gigabytes that will
//     never arrive — the "never hangs or over-reads" contract fuzzed by
//     tests/fuzz_wire_test.cpp.
//
// The decoder validates LENGTH only. CRC and field-canonicality checks stay
// where they already live (parse_frame / read_header_checked), applied by
// whoever consumes the reassembled frame — end-to-end, not per hop.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "common/error.h"
#include "runtime/wire.h"
#include "transport/buffer_pool.h"

namespace lsa::transport::socket {

class FrameDecoder {
 public:
  FrameDecoder(BufferPool& pool, std::size_t max_payload_elems)
      : pool_(&pool), max_payload_elems_(max_payload_elems) {}

  /// Feeds a chunk of stream bytes; calls sink(BufferRef&&) once per
  /// completed frame, in stream order. Throws ProtocolError on an oversized
  /// length field (the connection is beyond repair — tear it down).
  template <class Sink>
  void feed(std::span<const std::uint8_t> chunk, Sink&& sink) {
    while (true) {
      if (!frame_) {
        if (chunk.empty()) return;
        const std::size_t take =
            std::min(lsa::runtime::kHeaderBytes - header_have_, chunk.size());
        std::memcpy(header_.data() + header_have_, chunk.data(), take);
        header_have_ += take;
        chunk = chunk.subspan(take);
        if (header_have_ < lsa::runtime::kHeaderBytes) return;
        begin_frame();
      }
      const std::size_t take =
          std::min(frame_need_ - frame_have_, chunk.size());
      if (take != 0) {
        // copy-ok: THE single inbound wire->buffer copy (socket bytes land
        // directly in the pooled frame; no staging vector exists).
        std::memcpy(frame_.bytes().data() + frame_have_, chunk.data(), take);
        frame_have_ += take;
        chunk = chunk.subspan(take);
      }
      if (frame_have_ < frame_need_) return;  // chunk exhausted mid-payload
      emit(sink);
    }
  }

  /// Remaining bytes of the in-flight frame, as a writable target for
  /// direct reads (kernel -> pooled buffer without an intermediate chunk
  /// buffer). Empty when between frames; pair with commit_direct.
  [[nodiscard]] std::span<std::uint8_t> direct_target() {
    if (!frame_) return {};
    return frame_.bytes().subspan(frame_have_, frame_need_ - frame_have_);
  }

  /// Accounts `n` bytes read straight into direct_target().
  template <class Sink>
  void commit_direct(std::size_t n, Sink&& sink) {
    frame_have_ += n;
    if (frame_have_ == frame_need_) emit(sink);
  }

  /// Bytes staged but not yet emitted (torn header + partial frame).
  [[nodiscard]] std::size_t buffered_bytes() const {
    return frame_ ? frame_have_ : header_have_;
  }
  [[nodiscard]] bool mid_frame() const { return static_cast<bool>(frame_); }
  [[nodiscard]] std::uint64_t frames_out() const { return frames_out_; }

  /// Discards any partial state (reconnect reuses the decoder fresh).
  void reset() {
    header_have_ = 0;
    frame_.reset();
    frame_have_ = frame_need_ = 0;
  }

 private:
  void begin_frame() {
    const std::uint32_t payload_elems =
        lsa::runtime::decode_header(header_).payload_elems;
    lsa::require<lsa::ProtocolError>(
        payload_elems <= max_payload_elems_,
        "socket: oversized frame (" + std::to_string(payload_elems) +
            " elems > max " + std::to_string(max_payload_elems_) + ")");
    frame_need_ = lsa::runtime::kHeaderBytes + 4ull * payload_elems;
    frame_ = pool_->acquire(frame_need_);
    // copy-ok: 28-byte header replay into the just-acquired frame (the
    // header was necessarily staged to learn the frame length).
    std::memcpy(frame_.bytes().data(), header_.data(),
                lsa::runtime::kHeaderBytes);
    frame_have_ = lsa::runtime::kHeaderBytes;
    header_have_ = 0;
  }

  template <class Sink>
  void emit(Sink&& sink) {
    ++frames_out_;
    sink(std::move(frame_));
    frame_.reset();
    frame_have_ = frame_need_ = 0;
  }

  BufferPool* pool_;
  std::size_t max_payload_elems_;
  std::array<std::uint8_t, lsa::runtime::kHeaderBytes> header_{};
  std::size_t header_have_ = 0;
  BufferRef frame_;
  std::size_t frame_have_ = 0;
  std::size_t frame_need_ = 0;
  std::uint64_t frames_out_ = 0;
};

}  // namespace lsa::transport::socket

// Global transport instrumentation counters.
//
// The zero-copy claim of the transport layer ("every outbound payload is
// written once, in its frame") is enforced by measurement, not by
// convention: sealing a frame bumps the framed-byte counters, and any
// path that materializes an intermediate payload vector must bump the
// payload-copy counters (none in src/ does; bench_transport's reproduction
// of the seed router does, as its baseline). Tests and benches assert that
// rounds through every transport — server sessions, serial references,
// sockets — perform ZERO intermediate payload copies. The validation
// convention is measured the same way: parse_frame counts every frame it
// validates, and tests assert that an in-process round without a fault
// hook validates none while a socket round validates each frame once,
// where it comes off a socket.
//
// Counters count frames, not blocks. A device's share fan-out is one
// block carved into N - 1 frames (BufferPool::acquire_batch), yet it adds
// N - 1 to pool_allocs, and each of its frames adds one to frames_built
// and its payload to payload_bytes_framed when sealed, exactly as a frame
// with a block of its own does. A pool reuse ratio, reuses over
// (allocs + reuses), thus keeps its per-frame meaning; batch blocks are
// freed rather than recycled, so it stays low wherever shares dominate
// the traffic (about 0.01 on an N = 200 round). BufferPool::outstanding
// is the one block gauge: it counts a batch once.
//
// Counters are process-global relaxed atomics: cheap enough to leave on in
// release builds, and exact because every increment is a plain add.
#pragma once

#include <atomic>
#include <cstdint>

namespace lsa::transport {

struct Counters {
  /// Frames sealed for sending (transport/frame.h seal_frame), whether
  /// their payload was written in place or copied in from a row view.
  std::atomic<std::uint64_t> frames_built{0};
  /// Payload bytes of the sealed frames (each written once, in its frame).
  std::atomic<std::uint64_t> payload_bytes_framed{0};
  /// Intermediate payload copies: a payload vector materialized between a
  /// sender's row and its frame, or a frame and the receiver's row.
  std::atomic<std::uint64_t> payload_copies{0};
  std::atomic<std::uint64_t> payload_bytes_copied{0};
  /// Pool traffic, per frame: fresh heap allocations vs recycled buffers
  /// (a batch of k frames adds k allocations).
  std::atomic<std::uint64_t> pool_allocs{0};
  std::atomic<std::uint64_t> pool_reuses{0};
  /// Frames run through the full wire validator (transport/frame.h
  /// parse_frame: length, CRC, canonical scan) — the frames whose bytes
  /// came from outside the process, or passed a router fault hook.
  std::atomic<std::uint64_t> frames_validated{0};

  void note_copy(std::uint64_t bytes) {
    // relaxed: exact monotonic adds; tests assert on quiesced deltas, so
    // no cross-counter ordering is needed.
    payload_copies.fetch_add(1, std::memory_order_relaxed);
    payload_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
  }
  void note_framed(std::uint64_t bytes) {
    // relaxed: same contract as note_copy above.
    frames_built.fetch_add(1, std::memory_order_relaxed);
    payload_bytes_framed.fetch_add(bytes, std::memory_order_relaxed);
  }
  void note_validated() {
    // relaxed: same contract as note_copy above.
    frames_validated.fetch_add(1, std::memory_order_relaxed);
  }
};

inline Counters& counters() {
  static Counters c;
  return c;
}

/// Point-in-time snapshot for before/after deltas in tests and benches.
struct CountersSnapshot {
  std::uint64_t frames_built;
  std::uint64_t payload_bytes_framed;
  std::uint64_t payload_copies;
  std::uint64_t payload_bytes_copied;
  std::uint64_t pool_allocs;
  std::uint64_t pool_reuses;
  std::uint64_t frames_validated;
};

inline CountersSnapshot snapshot() {
  const auto& c = counters();
  // relaxed: point-in-time sample; callers quiesce traffic before
  // asserting exact values (before/after deltas bracket a serial region).
  return {c.frames_built.load(std::memory_order_relaxed),
          c.payload_bytes_framed.load(std::memory_order_relaxed),
          c.payload_copies.load(std::memory_order_relaxed),
          c.payload_bytes_copied.load(std::memory_order_relaxed),
          c.pool_allocs.load(std::memory_order_relaxed),
          c.pool_reuses.load(std::memory_order_relaxed),
          c.frames_validated.load(std::memory_order_relaxed)};
}

}  // namespace lsa::transport

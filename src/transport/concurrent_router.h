// Thread-safe MPSC message plane: sharded per-receiver mailboxes over
// pooled zero-copy frames — the one in-process transport. The one sync and
// the one async driver (runtime::Network / runtime::AsyncNetwork) own one
// router each and pump it through runtime::pump_router, one receiver per
// lane of their ExecPolicy: many lanes under a server session's pool, one
// on the default inline policy (the serial reference).
//
// Design:
//
//   * one bounded mailbox per receiver — senders are many (MPSC), the
//     receiver's consumer is one at a time. A mailbox is a deque of frame
//     references under one mutex, with a not-empty and a not-full
//     condition variable;
//   * per-link FIFO: each sender enqueues its own frames in program order
//     and the mailbox lock orders them;
//   * backpressure: send blocks on not-full when a mailbox is at capacity
//     (a crashed receiver unblocks its senders — frames to the dead are
//     dropped, not queued);
//   * zero-copy: senders write payloads straight into pooled ref-counted
//     frames from acquire() (a device's share fan-out: from one block,
//     acquire_batch()) and send() seals them in place
//     (transport/frame.h); try_recv hands back a payload span aliasing
//     that frame;
//   * validate once, where bytes enter the process (the contract in
//     transport/frame.h): every frame in a mailbox was sealed by this
//     router's own send / broadcast, so delivery reads its header only
//     (view_sealed_frame: no CRC pass, no canonical scan);
//   * fault semantics: sends from crashed parties are dropped silently,
//     frames addressed to a party that crashes are discarded undelivered,
//     revive() re-admits, and an optional fault hook may mutate or drop any
//     frame before it is enqueued (fuzz/corruption testing). While a hook
//     is installed every delivery runs the full validator, parse_frame,
//     so a corrupted frame throws at try_recv.
//
// Crash/revive fence: crash(party) sets `down`, bumps the mailbox epoch and
// clears the queue in ONE critical section, and every enqueue re-checks
// `down` under the same lock — so a crashed mailbox is empty and stays
// empty until revive(). A sender parked on backpressure across the crash
// carries a frame that predates it: it wakes to a changed epoch and drops
// the frame (counted in frames_dropped) even if revive() already ran, so
// post-revive mailboxes start empty.
//
// Wakes are notify_one except on crash: each pop frees exactly one slot
// and each push satisfies the one consumer, and a broadcast here is the
// thundering herd that flattens throughput at high fan-in (hundreds of
// parked senders stampeding per pop). A waiter whose opportunity is taken
// by a racing sender just re-parks; the racer consumed the slot, so no
// capacity is stranded. Every wait predicate reads state mutated under the
// mailbox mutex, so notifying after unlock loses no wakeup (hammered by
// tests/mailbox_stress_test.cpp under TSAN).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/thread_annotations.h"
#include "runtime/transport.h"
#include "runtime/wire.h"
#include "transport/buffer_pool.h"
#include "transport/frame.h"

namespace lsa::transport {

class ConcurrentRouter final : public lsa::runtime::Transport {
 public:
  /// num_parties includes the server; party ids are 0..num_parties-1.
  /// queue_capacity bounds each receiver's mailbox (backpressure); the
  /// drivers size it from their mode's fan-in bound plus
  /// runtime::kCapacityHeadroom (runtime/transport.h).
  ConcurrentRouter(std::size_t num_parties, std::size_t queue_capacity)
      : capacity_(queue_capacity) {
    lsa::require(capacity_ >= 1, "router: queue capacity must be >= 1");
    boxes_.reserve(num_parties);
    for (std::size_t i = 0; i < num_parties; ++i) {
      boxes_.push_back(std::make_unique<Mailbox>());
    }
  }

  [[nodiscard]] std::size_t num_parties() const { return boxes_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const { return capacity_; }
  [[nodiscard]] BufferPool& pool() { return pool_; }

  // ------------------------------------------------------------- liveness

  /// Marks a party crashed: its future sends are dropped, its undelivered
  /// mailbox is discarded, and senders blocked on its mailbox unblock.
  /// Returns with the mailbox EMPTY; no frame sent before this call can
  /// survive into a revived session (see the fence comment above).
  void crash(std::size_t party) {
    check_party(party);
    Mailbox& box = *boxes_[party];
    std::deque<BufferRef> discarded;  // released outside the lock
    {
      lsa::sync::MutexLock lk(box.mu);
      box.down.store(true, std::memory_order_seq_cst);
      ++box.epoch;
      discarded.swap(box.q);
    }
    // relaxed: monotonic telemetry total, read quiescently.
    dropped_.fetch_add(discarded.size(), std::memory_order_relaxed);
    // Everyone parked on this mailbox must observe the crash.
    box.not_full.notify_all();
    box.not_empty.notify_all();
  }

  void revive(std::size_t party) {
    check_party(party);
    Mailbox& box = *boxes_[party];
    lsa::sync::MutexLock lk(box.mu);
    box.down.store(false, std::memory_order_seq_cst);
  }

  [[nodiscard]] bool is_down(std::size_t party) const {
    check_party(party);
    return boxes_[party]->down.load(std::memory_order_seq_cst);
  }

  // ---------------------------------------------------------------- faults

  /// Called on every frame's bytes before enqueue (the buffer is exclusive
  /// at that point); may mutate them (corruption testing) or return false
  /// to drop the frame (lossy-link testing). Set before traffic starts:
  /// while a hook is installed, every delivery is validated (parse_frame).
  using FaultHook = std::function<bool(std::span<std::uint8_t>)>;
  void set_fault_hook(FaultHook hook) { hook_ = std::move(hook); }

  // ----------------------------------------------------------------- send

  [[nodiscard]] BufferRef acquire(std::size_t elems) override {
    return acquire_frame(pool_, elems);
  }
  [[nodiscard]] std::vector<BufferRef> acquire_batch(
      std::size_t count, std::size_t elems) override {
    return acquire_frame_batch(pool_, count, elems);
  }

  /// Seals the sender's filled frame and enqueues it. A crashed sender's
  /// frame is dropped unsealed and uncounted.
  void send(BufferRef frame, lsa::runtime::MsgType type, std::uint32_t sender,
            std::uint32_t receiver, std::uint64_t round) override {
    check_party(sender);
    check_party(receiver);
    if (is_down(sender)) return;
    seal_frame(frame, type, sender, receiver, round);
    enqueue(receiver, std::move(frame));
  }

  /// Broadcast: the frame is sealed ONCE (receiver field =
  /// kBroadcastReceiver) and shared across every live mailbox — no
  /// per-receiver payload writes or CRC passes.
  void broadcast(BufferRef frame, lsa::runtime::MsgType type,
                 std::uint32_t sender, std::uint64_t round,
                 std::uint32_t num_receivers) override {
    check_party(sender);
    lsa::require(num_receivers <= boxes_.size(),
                 "router: broadcast fan-out out of range");
    if (is_down(sender)) return;
    seal_frame(frame, type, sender, kBroadcastReceiver, round);
    if (hook_ && !hook_(frame.bytes())) {
      // relaxed: monotonic telemetry total, read quiescently.
      dropped_.fetch_add(num_receivers, std::memory_order_relaxed);
      return;
    }
    for (std::uint32_t j = 0; j < num_receivers; ++j) {
      enqueue_built(j, frame);  // shared ref, one buffer
    }
  }

  // ----------------------------------------------------------------- recv

  /// Pops the receiver's next frame and reads it: its header only, or the
  /// full validator while a fault hook is installed (see deliver). Returns
  /// false when the mailbox is empty (a crashed receiver's mailbox always
  /// is). Throws ProtocolError on a frame that fails the read — the frame
  /// is consumed either way.
  [[nodiscard]] bool try_recv(std::size_t receiver, Inbound& out) {
    check_party(receiver);
    Mailbox& box = *boxes_[receiver];
    BufferRef buf;
    {
      lsa::sync::MutexLock lk(box.mu);
      if (box.q.empty()) return false;
      buf = std::move(box.q.front());
      box.q.pop_front();
    }
    deliver(box, std::move(buf), out);
    return true;
  }

  /// Blocking variant: waits up to `timeout` for a frame. Returns false on
  /// timeout or when the receiver is down.
  [[nodiscard]] bool recv_wait(std::size_t receiver, Inbound& out,
                               std::chrono::milliseconds timeout) {
    check_party(receiver);
    Mailbox& box = *boxes_[receiver];
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    BufferRef buf;
    {
      lsa::sync::MutexLock lk(box.mu);
      // Explicit predicate loop (not a wait lambda): the guarded reads
      // stay inside this analyzed critical section.
      while (box.q.empty() && !box.down.load(std::memory_order_seq_cst)) {
        if (box.not_empty.wait_until(lk.native_lock(), deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (box.q.empty()) return false;  // timed out, or crashed (so empty)
      buf = std::move(box.q.front());
      box.q.pop_front();
    }
    deliver(box, std::move(buf), out);
    return true;
  }

  /// True when every mailbox is empty.
  [[nodiscard]] bool idle() const {
    for (const auto& box : boxes_) {
      lsa::sync::MutexLock lk(box->mu);
      if (!box->q.empty()) return false;
    }
    return true;
  }

  // relaxed: the four getters below are advisory telemetry snapshots —
  // tests quiesce traffic before asserting exact values.
  [[nodiscard]] std::uint64_t frames_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// High-water mark of any mailbox depth (bounded by queue_capacity).
  [[nodiscard]] std::size_t max_queue_depth() const {
    // relaxed: advisory telemetry snapshot, exact only at quiescence.
    return max_depth_.load(std::memory_order_relaxed);
  }
  /// Senders currently parked on this receiver's backpressure (telemetry;
  /// tests use it to wait for a sender to be provably blocked).
  [[nodiscard]] std::uint32_t parked_senders(std::size_t party) const {
    check_party(party);
    const Mailbox& box = *boxes_[party];
    lsa::sync::MutexLock lk(box.mu);
    return box.parked;
  }

 private:
  /// One receiver's inbox.
  struct Mailbox {
    mutable lsa::sync::Mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<BufferRef> q LSA_GUARDED_BY(mu);
    /// Crash count: a parked sender that wakes to a different epoch holds
    /// a pre-crash frame and drops it.
    std::uint64_t epoch LSA_GUARDED_BY(mu) = 0;
    std::uint32_t parked LSA_GUARDED_BY(mu) = 0;
    /// Stored only under mu (crash/revive), so every check made under mu
    /// is exact; the lock-free loads are the sender-liveness checks.
    std::atomic<bool> down{false};
  };

  void check_party(std::size_t p) const {
    lsa::require(p < boxes_.size(), "router: endpoint out of range");
  }

  /// Post-pop half of a receive, outside the lock: releases one parked
  /// producer (a slot just opened) and reads the frame in place. A frame
  /// this router sealed and nobody touched since needs its header only;
  /// one a fault hook saw may carry any bytes, so it gets parse_frame,
  /// which throws on corruption.
  void deliver(Mailbox& box, BufferRef buf, Inbound& out) {
    box.not_full.notify_one();
    out.buf = std::move(buf);
    out.view = hook_ ? parse_frame(out.buf) : view_sealed_frame(out.buf);
    // relaxed: monotonic telemetry total.
    delivered_.fetch_add(1, std::memory_order_relaxed);
  }

  void enqueue(std::size_t receiver, BufferRef frame) {
    if (hook_ && !hook_(frame.bytes())) {
      // relaxed: monotonic telemetry total.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    enqueue_built(receiver, std::move(frame));
  }

  /// Post-hook enqueue; broadcast fan-out shares one frame across calls.
  /// Blocks (parked, not spinning) while the mailbox is at capacity.
  void enqueue_built(std::size_t receiver, BufferRef frame) {
    Mailbox& box = *boxes_[receiver];
    std::size_t depth = 0;
    {
      lsa::sync::MutexLock lk(box.mu);
      const std::uint64_t epoch = box.epoch;
      while (!box.down.load(std::memory_order_seq_cst) &&
             box.q.size() >= capacity_) {
        ++box.parked;
        box.not_full.wait(lk.native_lock());
        --box.parked;
        if (box.epoch != epoch) break;  // crashed while parked
      }
      if (box.down.load(std::memory_order_seq_cst) || box.epoch != epoch) {
        // relaxed: monotonic telemetry total.
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;  // the frame is released outside the lock
      }
      box.q.push_back(std::move(frame));
      depth = box.q.size();
    }
    box.not_empty.notify_one();
    // relaxed: monotonic telemetry total.
    sent_.fetch_add(1, std::memory_order_relaxed);
    // relaxed: lossy high-water telemetry; no payload ordering rides on it.
    std::size_t seen = max_depth_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_depth_.compare_exchange_weak(seen, depth,
                                             std::memory_order_relaxed)) {
    }
  }

  std::size_t capacity_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  BufferPool pool_;
  FaultHook hook_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::size_t> max_depth_{0};
};

}  // namespace lsa::transport

// Ref-counted pooled wire buffers.
//
// Every frame the concurrent transport moves lives in a Block: a word-
// aligned byte arena acquired from a BufferPool and handed around as a
// cheap ref-counted BufferRef. The contract:
//
//   * acquire() recycles a retained block when one is available (the steady
//     state: a round's frame working set is allocated once and then cycles
//     through the freelist), falling back to a fresh heap block;
//   * BufferRef copies bump an intrusive atomic refcount — broadcasting one
//     frame to N receivers shares one buffer, never N copies;
//   * the last BufferRef released returns the block to its pool's freelist
//     (bounded; overflow blocks are freed). Pool lifetime is safe even if
//     refs outlive the BufferPool object: blocks pin the pool core via
//     shared_ptr and the core frees whatever the freelist still holds.
//
// Storage is std::uint32_t words so that a frame's payload region — field
// elements at a word-aligned offset (runtime/wire.h's 28-byte header is
// exactly 7 words) — can be exposed as a std::span<const rep> view without
// alignment hazards. Byte access goes through the bytes() spans
// (unsigned-char access to any object is always defined).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/thread_annotations.h"
#include "transport/stats.h"

namespace lsa::transport {

class BufferPool;

namespace detail {

struct PoolCore;

struct Block {
  /// Capacity arena (word-aligned bytes), never zeroed: every sender
  /// overwrites the whole frame it acquires.
  std::unique_ptr<std::uint32_t[]> words;
  std::size_t cap_words = 0;
  std::size_t len_bytes = 0;  ///< logical frame length
  std::atomic<std::uint32_t> refs{0};
  std::shared_ptr<PoolCore> home;  ///< keeps the freelist alive
};

struct PoolCore {
  lsa::sync::Mutex mu;
  std::vector<Block*> freelist LSA_GUARDED_BY(mu);
  std::size_t max_retained;  ///< const after construction
  std::atomic<std::uint64_t> outstanding{0};

  explicit PoolCore(std::size_t retain) : max_retained(retain) {}
  // Unlocked freelist walk: the core is destroyed when the last owner
  // (pool object or in-flight block) drops it — no concurrent access is
  // possible, and TSA exempts destructors for the same reason.
  ~PoolCore() {
    for (Block* b : freelist) delete b;
  }

  void release(Block* b) {
    // relaxed: monotonic gauge decrement; readers only sample a snapshot.
    outstanding.fetch_sub(1, std::memory_order_relaxed);
    // Drop the self-reference BEFORE requeueing; the freelist must hold
    // plain blocks or core destruction would cycle.
    std::shared_ptr<PoolCore> self = std::move(b->home);
    {
      lsa::sync::MutexLock lk(mu);
      if (freelist.size() < max_retained) {
        freelist.push_back(b);
        return;
      }
    }
    delete b;
  }
};

}  // namespace detail

/// Shared handle to a pooled frame buffer. Copy = refcount bump; the last
/// handle returns the block to the pool.
class BufferRef {
 public:
  BufferRef() = default;
  // relaxed: refcount increments need no ordering — only the final
  // decrement (acq_rel below) publishes the buffer to its recycler.
  explicit BufferRef(detail::Block* b) : b_(b) {
    if (b_ != nullptr) b_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BufferRef(const BufferRef& o) : b_(o.b_) {
    // relaxed: copy holds a live ref, so the count cannot hit zero here.
    if (b_ != nullptr) b_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BufferRef(BufferRef&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  BufferRef& operator=(BufferRef o) noexcept {
    std::swap(b_, o.b_);
    return *this;
  }
  ~BufferRef() { reset(); }

  void reset() {
    if (b_ == nullptr) return;
    detail::Block* b = std::exchange(b_, nullptr);
    // acq_rel: the releasing thread's writes to the buffer must be visible
    // to whichever thread performs the final release and recycles it.
    if (b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      b->home->release(b);
    }
  }

  [[nodiscard]] explicit operator bool() const { return b_ != nullptr; }
  [[nodiscard]] std::size_t size_bytes() const { return b_->len_bytes; }
  [[nodiscard]] std::uint32_t ref_count() const {
    // relaxed: advisory observability read (tests/stats); never an owner.
    return b_ == nullptr ? 0 : b_->refs.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::span<std::uint8_t> bytes() {
    return {reinterpret_cast<std::uint8_t*>(b_->words.get()), b_->len_bytes};
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {reinterpret_cast<const std::uint8_t*>(b_->words.get()),
            b_->len_bytes};
  }
  /// The arena as whole words (frame layouts are word-granular).
  [[nodiscard]] std::span<std::uint32_t> words() {
    return {b_->words.get(), (b_->len_bytes + 3) / 4};
  }
  [[nodiscard]] std::span<const std::uint32_t> words() const {
    return {b_->words.get(), (b_->len_bytes + 3) / 4};
  }

 private:
  detail::Block* b_ = nullptr;
};

/// Thread-safe freelist of frame blocks.
class BufferPool {
 public:
  /// max_retained: freelist cap; overflow releases go straight to delete.
  explicit BufferPool(std::size_t max_retained = 256)
      : core_(std::make_shared<detail::PoolCore>(max_retained)) {}

  /// A buffer of exactly `nbytes` logical length (capacity is whole words,
  /// reused across acquires). Contents are uninitialized / stale.
  [[nodiscard]] BufferRef acquire(std::size_t nbytes) {
    const std::size_t nwords = (nbytes + 3) / 4;
    detail::Block* b = nullptr;
    {
      lsa::sync::MutexLock lk(core_->mu);
      if (!core_->freelist.empty()) {
        b = core_->freelist.back();
        core_->freelist.pop_back();
      }
    }
    auto& c = counters();
    // relaxed: monotonic telemetry counters, aggregated by snapshot().
    if (b == nullptr) {
      b = new detail::Block();
      c.pool_allocs.fetch_add(1, std::memory_order_relaxed);
    } else {
      c.pool_reuses.fetch_add(1, std::memory_order_relaxed);
    }
    if (b->cap_words < nwords) {
      // A block that grows is reallocated, not copied: its old contents
      // are as stale as the new ones.
      b->words = std::make_unique_for_overwrite<std::uint32_t[]>(nwords);
      b->cap_words = nwords;
    }
    b->len_bytes = nbytes;
    b->home = core_;
    // relaxed: gauge increment; pairs with the relaxed decrement in release.
    core_->outstanding.fetch_add(1, std::memory_order_relaxed);
    return BufferRef(b);
  }

  /// Buffers currently held by live BufferRefs (not in the freelist).
  [[nodiscard]] std::uint64_t outstanding() const {
    // relaxed: advisory gauge snapshot for tests/telemetry.
    return core_->outstanding.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t retained() const {
    lsa::sync::MutexLock lk(core_->mu);
    return core_->freelist.size();
  }

 private:
  std::shared_ptr<detail::PoolCore> core_;
};

}  // namespace lsa::transport

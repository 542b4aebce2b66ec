// Ref-counted pooled wire buffers.
//
// Every frame the concurrent transport moves is one contiguous range of a
// Block: a word-aligned byte arena from a BufferPool, handed around as a
// cheap ref-counted BufferRef. The contract:
//
//   * acquire() hands out a block holding one frame. It recycles a
//     retained block when one is available, falling back to a fresh heap
//     block;
//   * acquire_batch() carves `count` frames, back to back, from ONE fresh
//     heap block: a device's share fan-out is one block, not N - 1.
//     Each frame is a range of its own; bytes(), words() and size_bytes()
//     never reach a neighbour;
//   * BufferRef copies bump the block's intrusive atomic refcount, shared
//     by every frame the block carries — broadcasting one frame to N
//     receivers shares one buffer, never N copies;
//   * the last BufferRef released, to any frame of a block, ends the
//     block, on whichever thread that happens: a single-frame block
//     returns to its pool's freelist (bounded; overflow blocks are freed),
//     a batch block is freed and never retained. Pool lifetime is safe
//     even if refs outlive the BufferPool object: blocks pin the pool core
//     via shared_ptr and the core frees whatever the freelist still holds.
//
// Storage is std::uint32_t words so that a frame's payload region — field
// elements at a word-aligned offset (runtime/wire.h's 28-byte header is
// exactly 7 words) — can be exposed as a std::span<const rep> view without
// alignment hazards. A batch frame starts on a word boundary too: frames
// are laid out at a stride of whole words. Byte access goes through the
// bytes() spans (unsigned-char access to any object is always defined).
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
struct Block;

/// What a BufferRef points at: one frame, a contiguous word range of its
/// block.
struct Frame {
  Block* block;
  std::uint32_t* words;   ///< the frame's first word
  std::size_t len_bytes;  ///< logical frame length
};

struct Block {
  /// Capacity arena (word-aligned bytes), never zeroed: every sender
  /// overwrites the whole frame it acquires.
  std::unique_ptr<std::uint32_t[]> words;
  std::size_t cap_words = 0;
  /// The one frame of a pooled block (BufferPool::acquire).
  Frame frame{this, nullptr, 0};
  /// The frames of a batch block (BufferPool::acquire_batch), in arena
  /// order; null for a pooled block.
  std::unique_ptr<Frame[]> batch;
  /// Live BufferRefs to any frame of this block.
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
    if (b->batch == nullptr) {  // a batch block is freed, never retained
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

/// Shared handle to one frame of a pooled block. Copy = refcount bump on
/// the block; the last handle to any of its frames ends the block.
class BufferRef {
 public:
  BufferRef() = default;
  // relaxed: refcount increments need no ordering — only the final
  // decrement (acq_rel below) publishes the buffer to its recycler.
  explicit BufferRef(detail::Frame* f) : f_(f) {
    if (f_ != nullptr) {
      f_->block->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  BufferRef(const BufferRef& o) : f_(o.f_) {
    // relaxed: copy holds a live ref, so the count cannot hit zero here.
    if (f_ != nullptr) {
      f_->block->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  BufferRef(BufferRef&& o) noexcept : f_(std::exchange(o.f_, nullptr)) {}
  BufferRef& operator=(BufferRef o) noexcept {
    std::swap(f_, o.f_);
    return *this;
  }
  ~BufferRef() { reset(); }

  void reset() {
    if (f_ == nullptr) return;
    detail::Block* b = std::exchange(f_, nullptr)->block;
    // acq_rel: the releasing thread's writes to the buffer must be visible
    // to whichever thread performs the final release and recycles it.
    if (b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      b->home->release(b);
    }
  }

  [[nodiscard]] explicit operator bool() const { return f_ != nullptr; }
  [[nodiscard]] std::size_t size_bytes() const { return f_->len_bytes; }
  /// Live refs to the block: for a batch frame, refs to any frame of its
  /// batch.
  [[nodiscard]] std::uint32_t ref_count() const {
    // relaxed: advisory observability read (tests/stats); never an owner.
    return f_ == nullptr ? 0
                         : f_->block->refs.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::span<std::uint8_t> bytes() {
    return {reinterpret_cast<std::uint8_t*>(f_->words), f_->len_bytes};
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {reinterpret_cast<const std::uint8_t*>(f_->words), f_->len_bytes};
  }
  /// The frame as whole words (frame layouts are word-granular).
  [[nodiscard]] std::span<std::uint32_t> words() {
    return {f_->words, (f_->len_bytes + 3) / 4};
  }
  [[nodiscard]] std::span<const std::uint32_t> words() const {
    return {f_->words, (f_->len_bytes + 3) / 4};
  }

 private:
  detail::Frame* f_ = nullptr;
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
    b->frame.words = b->words.get();
    b->frame.len_bytes = nbytes;
    b->home = core_;
    // relaxed: gauge increment; pairs with the relaxed decrement in release.
    core_->outstanding.fetch_add(1, std::memory_order_relaxed);
    return BufferRef(&b->frame);
  }

  /// `count` buffers of exactly `nbytes` logical length each, carved in
  /// order from ONE fresh heap block at a stride of whole words (a
  /// device's share fan-out). The block is one outstanding buffer until
  /// the last ref to any of its frames is released, and is then freed —
  /// never retained, so the freelist keeps its size mix. Counted as
  /// `count` pool_allocs, one per frame. Contents are uninitialized.
  [[nodiscard]] std::vector<BufferRef> acquire_batch(std::size_t count,
                                                     std::size_t nbytes) {
    std::vector<BufferRef> frames;
    if (count == 0) return frames;
    frames.reserve(count);
    const std::size_t stride = (nbytes + 3) / 4;
    auto owner = std::make_unique<detail::Block>();
    owner->words =
        std::make_unique_for_overwrite<std::uint32_t[]>(count * stride);
    owner->cap_words = count * stride;
    owner->batch = std::make_unique_for_overwrite<detail::Frame[]>(count);
    owner->home = core_;
    // relaxed: monotonic telemetry counter, aggregated by snapshot().
    counters().pool_allocs.fetch_add(count, std::memory_order_relaxed);
    // relaxed: gauge increment; pairs with the relaxed decrement in release.
    core_->outstanding.fetch_add(1, std::memory_order_relaxed);
    detail::Block* b = owner.release();  // the frames' refs own it now
    for (std::size_t k = 0; k < count; ++k) {
      b->batch[k] = {b, b->words.get() + k * stride, nbytes};
      frames.emplace_back(&b->batch[k]);
    }
    return frames;
  }

  /// Blocks currently held by live BufferRefs (not in the freelist); a
  /// batch is one block.
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

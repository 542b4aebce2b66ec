// Mailbox stress: hammers concurrent crash/revive/send/recv on ONE
// receiver. Built for the TSAN CI job — TSAN's happens-before tracking
// turns any lost synchronization in the mailbox lock, the parked-sender
// wake protocol, or the crash fence into a hard failure — but the test
// also asserts functional invariants that hold in any build:
//
//   * frame conservation: every send_row call is eventually accounted as
//     delivered or dropped, never lost and never duplicated;
//   * per-link ordering: the sequence numbers a receiver observes from one
//     sender are strictly increasing (crashes may punch holes, never
//     reorder);
//   * crash fencing: after the chaos stops and the receiver is revived, a
//     full drain leaves the mailbox idle and the pool with zero
//     outstanding buffers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "transport/concurrent_router.h"

namespace {

using namespace lsa::transport;
using lsa::field::Fp32;
using lsa::runtime::MsgType;
using rep = Fp32::rep;

TEST(MailboxStress, CrashReviveSendRecvOnOneReceiver) {
  constexpr std::size_t kSenders = 3;
  constexpr std::uint32_t kFramesPerSender = 1500;
  constexpr std::uint32_t kCrashCycles = 60;
  ConcurrentRouter router(kSenders + 1, /*queue_capacity=*/8);
  const std::uint32_t receiver = kSenders;

  std::vector<std::thread> senders;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (std::uint32_t k = 0; k < kFramesPerSender; ++k) {
        const std::vector<rep> payload = {s, k};
        router.send_row(MsgType::kMaskedModel, s, receiver, 0,
                        std::span<const rep>(payload));
      }
    });
  }

  std::atomic<bool> stop{false};
  std::vector<std::uint32_t> next_min(kSenders, 0);
  std::uint64_t received = 0;
  std::thread consumer([&] {
    Inbound in;
    while (!stop.load(std::memory_order_acquire)) {
      if (router.recv_wait(receiver, in, std::chrono::milliseconds(1))) {
        const std::uint32_t s = in.view.payload[0];
        const std::uint32_t k = in.view.payload[1];
        ASSERT_LT(s, kSenders);
        // Per-link order: strictly increasing, holes allowed (crash drops).
        ASSERT_GE(k, next_min[s]) << "reordered frame from sender " << s;
        next_min[s] = k + 1;
        in.buf.reset();
        ++received;
      }
    }
  });

  // Chaos: crash/revive the receiver while senders and consumer run. Each
  // crash() must return with the mailbox fenced empty.
  for (std::uint32_t c = 0; c < kCrashCycles; ++c) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    router.crash(receiver);
    Inbound in;
    EXPECT_FALSE(router.try_recv(receiver, in));  // down => nothing delivered
    router.revive(receiver);
  }

  for (auto& t : senders) t.join();
  // Drain the tail (senders are done; whatever they enqueued last must be
  // deliverable), then stop the consumer.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  consumer.join();
  router.revive(receiver);
  Inbound in;
  std::uint64_t tail = 0;
  while (router.try_recv(receiver, in)) {
    in.buf.reset();
    ++tail;
  }

  // Conservation: every send_row call ended as a delivery or a counted
  // drop (fenced senders + crash discards), never lost or duplicated.
  const std::uint64_t calls = kSenders * std::uint64_t{kFramesPerSender};
  EXPECT_EQ(router.frames_delivered(), received + tail);
  EXPECT_EQ(router.frames_delivered() + router.frames_dropped(), calls);
  EXPECT_TRUE(router.idle());
  EXPECT_EQ(router.pool().outstanding(), 0u);
}

}  // namespace

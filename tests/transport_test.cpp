// Concurrent transport subsystem: pooled ref-counted buffers, zero-copy
// framing, the MPSC ConcurrentRouter (per-link FIFO, backpressure,
// crash/revive, fault hooks), and the session-sharded multi-session
// AggregationServer — whose concurrent rounds must be bit-identical to the
// single-threaded runtime::Network, including dropout at the U boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "field/random_field.h"
#include "runtime/async_machines.h"
#include "runtime/machines.h"
#include "server/aggregation_server.h"
#include "sys/thread_pool.h"
#include "transport/buffer_pool.h"
#include "transport/concurrent_router.h"
#include "transport/frame.h"

namespace {

using namespace lsa::transport;
using lsa::field::Fp32;
using lsa::runtime::MsgType;
using rep = Fp32::rep;

// ---------------------------------------------------------------- buffers

TEST(BufferPool, RecyclesBlocksAndCountsRefs) {
  BufferPool pool(/*max_retained=*/4);
  const auto before = snapshot();
  BufferRef a = pool.acquire(100);
  EXPECT_EQ(a.size_bytes(), 100u);
  EXPECT_EQ(a.ref_count(), 1u);
  EXPECT_EQ(pool.outstanding(), 1u);
  {
    BufferRef b = a;  // shared, not copied
    EXPECT_EQ(a.ref_count(), 2u);
    EXPECT_EQ(pool.outstanding(), 1u);
  }
  EXPECT_EQ(a.ref_count(), 1u);
  a.reset();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.retained(), 1u);

  // Re-acquiring must reuse the retained block, even at a larger size.
  BufferRef c = pool.acquire(200);
  EXPECT_EQ(c.size_bytes(), 200u);
  const auto after = snapshot();
  EXPECT_EQ(after.pool_allocs - before.pool_allocs, 1u);
  EXPECT_EQ(after.pool_reuses - before.pool_reuses, 1u);
}

TEST(BufferPool, RefsMayOutliveThePool) {
  BufferRef survivor;
  {
    BufferPool pool(2);
    survivor = pool.acquire(64);
    survivor.bytes()[0] = 0xAB;
  }
  // The pool object is gone; the block (and its core) must still be alive.
  EXPECT_EQ(survivor.bytes()[0], 0xAB);
  survivor.reset();  // releases into the orphaned core, which frees it
}

TEST(BufferPool, FreelistIsBounded) {
  BufferPool pool(/*max_retained=*/2);
  std::vector<BufferRef> refs;
  for (int i = 0; i < 5; ++i) refs.push_back(pool.acquire(32));
  refs.clear();
  EXPECT_LE(pool.retained(), 2u);
}

TEST(BufferPool, BatchIsOneBlockUntilItsLastFrameIsReleased) {
  // k frames carved from one block are one outstanding buffer and k
  // allocations counted, until the last ref to any of them is released —
  // in every release order, with a copied ref outliving its original.
  constexpr std::size_t kFrames = 4;
  std::vector<std::size_t> order(kFrames);
  std::iota(order.begin(), order.end(), 0);
  do {
    BufferPool pool;
    const auto before = snapshot();
    std::vector<BufferRef> frames = pool.acquire_batch(kFrames, 40);
    ASSERT_EQ(frames.size(), kFrames);
    EXPECT_EQ(pool.outstanding(), 1u);
    EXPECT_EQ(snapshot().pool_allocs - before.pool_allocs, kFrames);
    BufferRef copy = frames[order.front()];
    EXPECT_EQ(copy.ref_count(), kFrames + 1);
    for (const std::size_t k : order) {
      EXPECT_EQ(frames[k].size_bytes(), 40u);
      frames[k].reset();
      EXPECT_EQ(pool.outstanding(), 1u);
    }
    EXPECT_EQ(copy.ref_count(), 1u);
    copy.reset();
    EXPECT_EQ(pool.outstanding(), 0u);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(BufferPool, BatchFramesStayInTheirRanges) {
  // Frames lie back to back at a stride of whole words, each exposing its
  // own range only. Every frame is filled with its own pattern and sealed;
  // each then passes the full validator with its header and payload
  // intact, so no fill or seal reached a neighbour.
  constexpr std::size_t kFrames = 5;
  constexpr std::size_t kElems = 13;
  BufferPool pool;
  std::vector<BufferRef> frames = acquire_frame_batch(pool, kFrames, kElems);
  ASSERT_EQ(frames.size(), kFrames);
  for (std::size_t k = 0; k < kFrames; ++k) {
    EXPECT_EQ(frames[k].size_bytes(), lsa::runtime::kHeaderBytes + 4 * kElems);
    EXPECT_EQ(frames[k].words().size(), kHeaderWords + kElems);
    if (k > 0) {
      EXPECT_EQ(frames[k].bytes().data(),
                frames[k - 1].bytes().data() + frames[k - 1].size_bytes());
    }
    const auto payload = frame_payload(frames[k]);
    ASSERT_EQ(payload.size(), kElems);
    for (std::size_t i = 0; i < kElems; ++i) {
      payload[i] = static_cast<rep>(1000 * k + i);
    }
  }
  for (std::size_t k = kFrames; k-- > 0;) {
    seal_frame(frames[k], MsgType::kEncodedMaskShare,
               static_cast<std::uint32_t>(k),
               static_cast<std::uint32_t>(k + 1), /*round=*/9);
  }
  for (std::size_t k = 0; k < kFrames; ++k) {
    const FrameView f = parse_frame(frames[k]);
    EXPECT_EQ(f.sender, k);
    EXPECT_EQ(f.receiver, k + 1);
    EXPECT_EQ(f.round, 9u);
    ASSERT_EQ(f.payload.size(), kElems);
    for (std::size_t i = 0; i < kElems; ++i) {
      EXPECT_EQ(f.payload[i], 1000 * k + i) << "frame " << k << " rep " << i;
    }
  }

  // A length that is not whole words still starts every frame on a word.
  std::vector<BufferRef> odd = pool.acquire_batch(3, 10);
  for (std::size_t k = 0; k < odd.size(); ++k) {
    EXPECT_EQ(odd[k].size_bytes(), 10u);
    EXPECT_EQ(odd[k].words().size(), 3u);
    EXPECT_EQ(odd[k].words().data(), odd[0].words().data() + 3 * k);
  }
}

TEST(BufferPool, BatchRefsMayOutliveThePool) {
  std::vector<BufferRef> frames;
  {
    BufferPool pool(2);
    frames = pool.acquire_batch(3, 64);
    for (std::size_t k = 0; k < frames.size(); ++k) {
      frames[k].bytes()[0] = static_cast<std::uint8_t>(0xA0 + k);
    }
  }
  // The pool object is gone; the batch block (and the core) must live on.
  for (std::size_t k = 0; k < frames.size(); ++k) {
    EXPECT_EQ(frames[k].bytes()[0], 0xA0 + k);
  }
  frames.clear();  // the last release frees the block in the orphaned core
}

TEST(BufferPool, ReleasedBatchBlockIsFreedNotRetained) {
  // A batch is a fresh block that never enters the freelist: acquiring it
  // reuses nothing, and releasing it leaves the retained blocks as they
  // were for the next single acquire.
  BufferPool pool(/*max_retained=*/4);
  pool.acquire(32).reset();
  ASSERT_EQ(pool.retained(), 1u);
  const auto before = snapshot();
  std::vector<BufferRef> frames = pool.acquire_batch(3, 32);
  EXPECT_EQ(pool.retained(), 1u);
  frames.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.retained(), 1u);
  BufferRef single = pool.acquire(32);
  const auto after = snapshot();
  EXPECT_EQ(after.pool_allocs - before.pool_allocs, 3u);
  EXPECT_EQ(after.pool_reuses - before.pool_reuses, 1u);
  EXPECT_EQ(pool.retained(), 0u);
}

// ----------------------------------------------------------------- frames

TEST(Frame, LayoutIsTheWireHeaderPlusPayload) {
  // build_frame writes exactly runtime/wire.h's layout: the 28-byte header
  // (CRC over the payload bytes, bitwise reference) then the payload words.
  const std::vector<rep> payload = {0, 1, 4294967290u, 42};
  const std::size_t hdr = lsa::runtime::kHeaderBytes;
  std::vector<std::uint8_t> expected(hdr + 4 * payload.size());
  std::memcpy(expected.data() + hdr, payload.data(), 4 * payload.size());
  lsa::runtime::write_header(
      expected.data(), MsgType::kAggregatedShares, 7, 12, 0xdeadbeefULL,
      static_cast<std::uint32_t>(payload.size()),
      lsa::runtime::crc32_reference(
          std::span<const std::uint8_t>(expected).subspan(hdr)));

  BufferPool pool;
  const auto frame = build_frame(pool, MsgType::kAggregatedShares, 7, 12,
                                 0xdeadbeefULL, std::span<const rep>(payload));
  ASSERT_EQ(frame.size_bytes(), expected.size());
  const auto bytes = frame.bytes();
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expected.begin()));

  const auto view = parse_frame(frame);
  EXPECT_EQ(view.type, MsgType::kAggregatedShares);
  EXPECT_EQ(view.sender, 7u);
  EXPECT_EQ(view.receiver, 12u);
  EXPECT_EQ(view.round, 0xdeadbeefULL);
  EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                         payload.begin()));
}

TEST(Frame, PayloadViewAliasesTheBuffer) {
  BufferPool pool;
  const std::vector<rep> payload = {1, 2, 3};
  const auto frame = build_frame(pool, MsgType::kMaskedModel, 0, 1, 0,
                                 std::span<const rep>(payload));
  const auto view = parse_frame(frame);
  const auto* words =
      reinterpret_cast<const std::uint32_t*>(frame.bytes().data());
  EXPECT_EQ(view.payload.data(), words + kHeaderWords);
}

TEST(Frame, BuildCountsZeroPayloadCopies) {
  BufferPool pool;
  const std::vector<rep> payload(256, 5);
  const auto before = snapshot();
  const auto frame = build_frame(pool, MsgType::kMaskedModel, 0, 1, 0,
                                 std::span<const rep>(payload));
  const auto view = parse_frame(frame);
  (void)view;
  const auto after = snapshot();
  EXPECT_EQ(after.payload_copies - before.payload_copies, 0u);
  EXPECT_EQ(after.frames_built - before.frames_built, 1u);
  EXPECT_EQ(after.payload_bytes_framed - before.payload_bytes_framed,
            4 * payload.size());
}

TEST(Frame, FilledInPlaceAndSealedMatchesBuildFrame) {
  // Devices write payloads straight into acquired frames and seal them;
  // build_frame copies a row in. For every message type the two give the
  // same bytes and the same framing counts, and neither counts a copy.
  BufferPool pool;
  lsa::common::Xoshiro256ss rng(91);
  for (const std::size_t elems : {std::size_t{0}, std::size_t{37}}) {
    const auto row = lsa::field::uniform_vector<Fp32>(elems, rng);
    for (std::uint16_t t = 1; t <= 9; ++t) {
      const auto type = static_cast<MsgType>(t);
      const auto s0 = snapshot();
      const BufferRef built = build_frame(pool, type, 3, 5, 0x123456789aull,
                                          std::span<const rep>(row));
      const auto s1 = snapshot();
      BufferRef filled = acquire_frame(pool, elems);
      const auto payload = frame_payload(filled);
      ASSERT_EQ(payload.size(), elems);
      for (std::size_t i = 0; i < elems; ++i) payload[i] = row[i];
      seal_frame(filled, type, 3, 5, 0x123456789aull);
      const auto s2 = snapshot();

      ASSERT_EQ(filled.size_bytes(), built.size_bytes());
      const auto a = built.bytes();
      const auto b = filled.bytes();
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << "type " << t << " elems " << elems;
      EXPECT_EQ(s1.frames_built - s0.frames_built, 1u);
      EXPECT_EQ(s2.frames_built - s1.frames_built, 1u);
      EXPECT_EQ(s1.payload_bytes_framed - s0.payload_bytes_framed, 4 * elems);
      EXPECT_EQ(s2.payload_bytes_framed - s1.payload_bytes_framed, 4 * elems);
      EXPECT_EQ(s2.payload_copies - s0.payload_copies, 0u);
    }
  }
}

// ----------------------------------------------------------------- router

TEST(ConcurrentRouter, PerLinkFifoUnderConcurrentSenders) {
  constexpr std::size_t kSenders = 4;
  constexpr std::size_t kFrames = 200;
  ConcurrentRouter router(kSenders + 1, /*queue_capacity=*/64);
  const std::uint32_t receiver = kSenders;

  std::vector<std::thread> senders;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (std::uint32_t k = 0; k < kFrames; ++k) {
        const std::vector<rep> payload = {s, k};
        router.send_row(MsgType::kMaskedModel, s, receiver, 0,
                        std::span<const rep>(payload));
      }
    });
  }
  std::vector<std::uint32_t> next_expected(kSenders, 0);
  std::size_t got = 0;
  Inbound in;
  while (got < kSenders * kFrames) {
    if (!router.recv_wait(receiver, in, std::chrono::milliseconds(2000))) {
      break;
    }
    ASSERT_EQ(in.view.payload.size(), 2u);
    const std::uint32_t s = in.view.payload[0];
    const std::uint32_t k = in.view.payload[1];
    EXPECT_EQ(k, next_expected[s]) << "per-link FIFO violated for sender "
                                   << s;
    next_expected[s] = k + 1;
    ++got;
  }
  for (auto& t : senders) t.join();
  EXPECT_EQ(got, kSenders * kFrames);
  EXPECT_TRUE(router.idle());
  EXPECT_LE(router.max_queue_depth(), 64u);
}

TEST(ConcurrentRouter, BackpressureBoundsQueueDepthAndBlocksSenders) {
  ConcurrentRouter router(2, /*queue_capacity=*/4);
  std::atomic<int> sent{0};
  std::thread producer([&] {
    const std::vector<rep> payload = {9};
    for (int k = 0; k < 64; ++k) {
      router.send_row(MsgType::kMaskedModel, 0, 1, 0,
                      std::span<const rep>(payload));
      sent.fetch_add(1);
    }
  });
  // Give the producer time to fill the bounded mailbox and block.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(sent.load(), 5);  // capacity 4 in flight + 1 in the send call
  int drained = 0;
  Inbound in;
  while (drained < 64) {
    if (!router.recv_wait(1, in, std::chrono::milliseconds(2000))) break;
    ++drained;
  }
  producer.join();
  EXPECT_EQ(drained, 64);
  EXPECT_EQ(sent.load(), 64);
  EXPECT_LE(router.max_queue_depth(), 4u);
}

TEST(ConcurrentRouter, CrashDropsAndReviveReadmits) {
  ConcurrentRouter router(3, /*queue_capacity=*/8);
  const std::vector<rep> payload = {1};
  auto send01 = [&] {
    router.send_row(MsgType::kMaskedModel, 0, 1, 0,
                    std::span<const rep>(payload));
  };
  send01();
  router.crash(1);  // discards the undelivered frame
  EXPECT_TRUE(router.idle());
  send01();  // dropped: receiver down
  EXPECT_TRUE(router.idle());
  router.crash(0);
  router.revive(1);
  send01();  // dropped: sender down
  EXPECT_TRUE(router.idle());
  router.revive(0);
  send01();
  Inbound in;
  ASSERT_TRUE(router.try_recv(1, in));
  EXPECT_EQ(in.view.payload[0], 1u);
  EXPECT_EQ(router.frames_dropped(), 2u);
}

TEST(ConcurrentRouter, CrashUnblocksBackpressuredSenders) {
  ConcurrentRouter router(2, /*queue_capacity=*/2);
  std::thread producer([&] {
    const std::vector<rep> payload = {7};
    for (int k = 0; k < 32; ++k) {
      router.send_row(MsgType::kMaskedModel, 0, 1, 0,
                      std::span<const rep>(payload));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  router.crash(1);  // the producer must not stay wedged
  producer.join();
  EXPECT_TRUE(router.idle());
}

TEST(ConcurrentRouter, BroadcastSharesOneRefCountedFrame) {
  constexpr std::size_t kReceivers = 5;
  ConcurrentRouter router(kReceivers + 1, /*queue_capacity=*/8);
  const std::uint32_t server = kReceivers;
  const std::vector<rep> payload(128, 3);
  const auto before = snapshot();
  router.broadcast_row(MsgType::kSurvivorSet, server, 4,
                       std::span<const rep>(payload), kReceivers);
  const auto after = snapshot();
  // ONE frame built (one payload write + one CRC), shared by all mailboxes.
  EXPECT_EQ(after.frames_built - before.frames_built, 1u);
  EXPECT_EQ(after.payload_bytes_framed - before.payload_bytes_framed,
            4 * payload.size());
  EXPECT_EQ(router.frames_sent(), kReceivers);

  Inbound first;
  ASSERT_TRUE(router.try_recv(0, first));
  // The other receivers' queue entries share the same block.
  EXPECT_EQ(first.buf.ref_count(), kReceivers);
  for (std::size_t r = 1; r < kReceivers; ++r) {
    Inbound in;
    ASSERT_TRUE(router.try_recv(r, in));
    EXPECT_EQ(in.view.payload.data(), first.view.payload.data());
    EXPECT_EQ(in.view.receiver, kBroadcastReceiver);
    EXPECT_TRUE(std::equal(in.view.payload.begin(), in.view.payload.end(),
                           payload.begin()));
  }
  EXPECT_EQ(first.buf.ref_count(), 1u);  // only `first` still holds it
}

TEST(ConcurrentRouter, CrashWakesBlockedReceiver) {
  ConcurrentRouter router(2, /*queue_capacity=*/8);
  const auto t0 = std::chrono::steady_clock::now();
  std::thread crasher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    router.crash(1);
  });
  Inbound in;
  EXPECT_FALSE(router.recv_wait(1, in, std::chrono::milliseconds(5000)));
  const auto waited = std::chrono::steady_clock::now() - t0;
  crasher.join();
  // Must return on the crash notification, not at timeout granularity.
  EXPECT_LT(waited, std::chrono::milliseconds(2000));
}

TEST(ConcurrentRouter, FaultHookCorruptionSurfacesAtDelivery) {
  ConcurrentRouter router(2, /*queue_capacity=*/8);
  router.set_fault_hook([](std::span<std::uint8_t> bytes) {
    if (bytes.size() > lsa::runtime::kHeaderBytes) {
      bytes[lsa::runtime::kHeaderBytes] ^= 0x10;
    }
    return true;
  });
  const std::vector<rep> payload = {1, 2, 3};
  router.send_row(MsgType::kMaskedModel, 0, 1, 0,
                  std::span<const rep>(payload));
  Inbound in;
  EXPECT_THROW((void)router.try_recv(1, in), lsa::ProtocolError);
  EXPECT_TRUE(router.idle());  // the corrupted frame was consumed
}

TEST(ConcurrentRouter, FifoHoldsUnderBackpressuredSenders) {
  constexpr std::size_t kSenders = 4;
  constexpr std::size_t kFrames = 100;
  ConcurrentRouter router(kSenders + 1, /*queue_capacity=*/8);
  const std::uint32_t receiver = kSenders;
  std::vector<std::thread> senders;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (std::uint32_t k = 0; k < kFrames; ++k) {
        const std::vector<rep> payload = {s, k};
        router.send_row(MsgType::kMaskedModel, s, receiver, 0,
                        std::span<const rep>(payload));
      }
    });
  }
  std::vector<std::uint32_t> next_expected(kSenders, 0);
  std::size_t got = 0;
  Inbound in;
  while (got < kSenders * kFrames &&
         router.recv_wait(receiver, in, std::chrono::milliseconds(2000))) {
    const std::uint32_t s = in.view.payload[0];
    EXPECT_EQ(in.view.payload[1], next_expected[s]);
    next_expected[s] = in.view.payload[1] + 1;
    ++got;
  }
  for (auto& t : senders) t.join();
  EXPECT_EQ(got, kSenders * kFrames);
  EXPECT_TRUE(router.idle());
  EXPECT_LE(router.max_queue_depth(), 8u);
}

TEST(ConcurrentRouter, CrashFencesParkedSenderOutOfRevivedMailbox) {
  // Crash/revive enqueue race: a sender that passed its liveness check and
  // is parked on backpressure when crash() runs must NOT slip its pre-crash
  // frame into the mailbox after revive(). crash() bumps the mailbox epoch,
  // so the parked sender wakes to a changed epoch and drops (and counts)
  // its frame even when revive() already ran.
  ConcurrentRouter router(2, /*queue_capacity=*/2);
  const std::vector<rep> payload = {5};
  auto send01 = [&] {
    router.send_row(MsgType::kMaskedModel, 0, 1, 0,
                    std::span<const rep>(payload));
  };
  send01();
  send01();  // mailbox now at capacity
  std::thread late(send01);
  // Wait until the late sender is provably parked on backpressure.
  while (router.parked_senders(1) == 0) std::this_thread::yield();
  router.crash(1);
  router.revive(1);  // immediately — the historical race window
  late.join();
  // The revived mailbox must start empty: 2 discarded + 1 late = 3 drops.
  EXPECT_TRUE(router.idle());
  Inbound in;
  EXPECT_FALSE(router.try_recv(1, in));
  EXPECT_EQ(router.frames_dropped(), 3u);
  // Post-revive traffic flows normally.
  send01();
  ASSERT_TRUE(router.try_recv(1, in));
  EXPECT_EQ(in.view.payload[0], 5u);
}

TEST(ConcurrentRouter, CrashAtExactCapacityUnblocksAllAndDrainsPool) {
  // Queue full with blocked senders, then receiver crash — every sender
  // unblocks, nothing is delivered post-crash, and every pooled frame
  // buffer is returned (outstanding back to zero).
  constexpr std::size_t kCap = 3;
  constexpr std::size_t kBlocked = 4;
  ConcurrentRouter router(2, kCap);
  const std::vector<rep> payload(16, 7);
  auto send01 = [&] {
    router.send_row(MsgType::kMaskedModel, 0, 1, 0,
                    std::span<const rep>(payload));
  };
  for (std::size_t k = 0; k < kCap; ++k) send01();  // exactly full
  EXPECT_EQ(router.pool().outstanding(), kCap);
  std::vector<std::thread> blocked;
  for (std::size_t k = 0; k < kBlocked; ++k) blocked.emplace_back(send01);
  while (router.parked_senders(1) < kBlocked) std::this_thread::yield();
  router.crash(1);
  for (auto& t : blocked) t.join();
  EXPECT_TRUE(router.idle());
  EXPECT_EQ(router.frames_dropped(), kCap + kBlocked);
  // No frame leaked from the pool: queued ones were discarded by crash,
  // parked ones were dropped by their own senders.
  EXPECT_EQ(router.pool().outstanding(), 0u);
}

// --------------------------------------------------------------- sessions

lsa::protocol::Params session_params(std::size_t n, std::size_t t,
                                     std::size_t u, std::size_t d) {
  lsa::protocol::Params p;
  p.num_users = n;
  p.privacy = t;
  p.dropout = n - u;
  p.target_survivors = u;
  p.model_dim = d;
  return p;
}

std::vector<std::vector<rep>> random_models(std::size_t n, std::size_t d,
                                            std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed);
  std::vector<std::vector<rep>> models(n);
  for (auto& m : models) m = lsa::field::uniform_vector<Fp32>(d, rng);
  return models;
}

TEST(Session, BitIdenticalToSingleThreadedNetworkWithDropouts) {
  // 7 users, U = 5, two crash after upload — dropout at the U boundary
  // (exactly U responders). The concurrent session must reproduce the
  // Network aggregate bit for bit, including the delayed-user semantics.
  const auto p = session_params(7, 2, 5, 33);
  const auto models = random_models(7, 33, 42);

  lsa::runtime::Network net(p, /*seed=*/9);
  const auto expected = net.run_round(0, models, {1, 4});

  lsa::sys::ThreadPool pool(4);
  auto pp = p;
  pp.exec.pool = &pool;
  lsa::server::Session session(lsa::server::SessionConfig{.params = pp,
                                                          .seed = 9});
  const auto got = session.run_round(0, models, {1, 4});
  EXPECT_EQ(got, expected);
  // Crashed users never saw the result; live users did.
  EXPECT_FALSE(session.user(1).last_result().has_value());
  ASSERT_TRUE(session.user(0).last_result().has_value());
  EXPECT_EQ(*session.user(0).last_result(), expected);
}

TEST(Session, SendSideIsZeroCopy) {
  const auto p = session_params(6, 1, 4, 24);
  const auto models = random_models(6, 24, 3);
  lsa::server::Session session(
      lsa::server::SessionConfig{.params = p, .seed = 5});
  const auto before = snapshot();
  (void)session.run_round(0, models, {});
  const auto after = snapshot();
  EXPECT_EQ(after.payload_copies - before.payload_copies, 0u)
      << "a send-side intermediate payload copy sneaked in";
  EXPECT_GT(after.frames_built - before.frames_built, 0u);
}

TEST(Session, TooManyCrashesFailLoudly) {
  const auto p = session_params(6, 1, 5, 8);
  const auto models = random_models(6, 8, 10);
  lsa::server::Session session(
      lsa::server::SessionConfig{.params = p, .seed = 9});
  EXPECT_THROW((void)session.run_round(0, models, {0, 1}),
               lsa::ProtocolError);
}

TEST(AggregationServer, MultiSessionRoundsMatchSerialReference) {
  // 6 sessions with different parameters/seeds run concurrently across
  // shards; every aggregate must equal its single-threaded Network
  // reference, including sessions with dropouts at the U boundary.
  lsa::sys::ThreadPool pool(4);
  lsa::server::AggregationServer server(&pool, /*num_shards=*/4);

  struct Spec {
    lsa::protocol::Params params;
    std::uint64_t seed;
    std::vector<std::size_t> crash;
  };
  std::vector<Spec> specs;
  for (std::uint64_t k = 0; k < 6; ++k) {
    const std::size_t n = 5 + k;
    const std::size_t u = n - 2;
    Spec s{session_params(n, 1 + k % 2, u, 16 + 8 * k), 100 + k, {}};
    if (k % 2 == 0) s.crash = {k % n, (k + 2) % n};  // exactly U respond
    specs.push_back(std::move(s));
  }

  std::vector<std::vector<std::vector<rep>>> model_sets;
  std::vector<std::vector<rep>> expected;
  for (const auto& s : specs) {
    model_sets.push_back(
        random_models(s.params.num_users, s.params.model_dim, s.seed * 7));
  }
  for (std::size_t k = 0; k < specs.size(); ++k) {
    lsa::runtime::Network net(specs[k].params, specs[k].seed);
    expected.push_back(net.run_round(0, model_sets[k], specs[k].crash));
  }

  std::vector<lsa::server::AggregationServer::RoundWork> works;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    auto pp = specs[k].params;
    pp.exec.pool = &pool;  // intra-session fan-out shares the shard pool
    const auto id = server.open_session(
        lsa::server::SessionConfig{.params = pp, .seed = specs[k].seed});
    works.push_back({id, 0, &model_sets[k], specs[k].crash});
  }
  const auto results = server.run_rounds(works);
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t k = 0; k < results.size(); ++k) {
    EXPECT_EQ(results[k], expected[k]) << "session " << k;
  }
  EXPECT_EQ(server.rounds_completed(), specs.size());
}

TEST(AggregationServer, MultiRoundMultiSessionWithRejoins) {
  lsa::sys::ThreadPool pool(3);
  lsa::server::AggregationServer server(&pool, 2);
  const auto p = session_params(5, 1, 4, 12);
  const auto id0 = server.open_session(
      lsa::server::SessionConfig{.params = p, .seed = 21});
  const auto id1 = server.open_session(
      lsa::server::SessionConfig{.params = p, .seed = 22});

  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::size_t u = 0; u < 5; ++u) {
      server.session(id0).router().revive(u);
      server.session(id1).router().revive(u);
    }
    const auto models0 = random_models(5, 12, 500 + round);
    const auto models1 = random_models(5, 12, 600 + round);
    lsa::runtime::Network ref0(p, 21);
    lsa::runtime::Network ref1(p, 22);
    // References replay all prior rounds so per-round PRG states line up.
    std::vector<std::vector<rep>> exp0, exp1;
    for (std::uint64_t r = 0; r <= round; ++r) {
      for (std::size_t u = 0; u < 5; ++u) ref0.router().revive(u);
      for (std::size_t u = 0; u < 5; ++u) ref1.router().revive(u);
      exp0.push_back(ref0.run_round(r, random_models(5, 12, 500 + r),
                                    {r % 5}));
      exp1.push_back(ref1.run_round(r, random_models(5, 12, 600 + r), {}));
    }
    const auto results = server.run_rounds(
        {{id0, round, &models0, {round % 5}}, {id1, round, &models1, {}}});
    EXPECT_EQ(results[0], exp0.back()) << "round " << round;
    EXPECT_EQ(results[1], exp1.back()) << "round " << round;
  }
}

// ---------------------------------------------------- persistent cohorts

/// Elementwise Fp32 sum of all models — the ground-truth aggregate when
/// every user uploads (crash-after-upload users are delayed, not dropped).
std::vector<rep> model_sum(const std::vector<std::vector<rep>>& models) {
  std::vector<rep> acc(models[0].size(), Fp32::zero);
  for (const auto& m : models) {
    lsa::field::add_inplace<Fp32>(std::span<rep>(acc),
                                  std::span<const rep>(m));
  }
  return acc;
}

TEST(Session, PersistentCohortTenStableRoundsSetUpOnce) {
  // A stable 10-round persistent cohort: exactly one offline encode +
  // share distribution per user, one plan build, nine exact-plan reuses —
  // and every aggregate bit-identical to the per-round (non-persistent)
  // session over the same models.
  constexpr std::size_t kN = 7, kRounds = 10;
  auto p = session_params(kN, 2, 5, 33);
  auto pp = p;
  pp.persistent_cohort = true;
  lsa::server::Session persistent(
      lsa::server::SessionConfig{.params = pp, .seed = 9});
  lsa::server::Session legacy(
      lsa::server::SessionConfig{.params = p, .seed = 9});

  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const auto models = random_models(kN, 33, 1000 + r);
    const auto got = persistent.run_round(r, models, {});
    EXPECT_EQ(got, legacy.run_round(r, models, {})) << "round " << r;
    EXPECT_EQ(got, model_sum(models)) << "round " << r;
  }

  const auto st = persistent.stats();
  EXPECT_EQ(st.offline_encodes, kN);  // once per user, NOT per round
  EXPECT_EQ(st.decode_plan_builds, 1u);
  EXPECT_EQ(st.decode_plan_reuses, kRounds - 1);
  EXPECT_EQ(st.decode_plan_patches, 0u);
  // The per-round session paid the setup every round.
  EXPECT_EQ(legacy.stats().offline_encodes, kN * kRounds);
}

TEST(Session, PersistentCohortEpochAdvanceRetriggersSetup) {
  constexpr std::size_t kN = 6, kD = 16;
  auto p = session_params(kN, 1, 4, kD);
  p.persistent_cohort = true;
  lsa::server::Session session(
      lsa::server::SessionConfig{.params = p, .seed = 4});

  for (std::uint64_t r = 0; r < 3; ++r) {
    const auto models = random_models(kN, kD, 30 + r);
    EXPECT_EQ(session.run_round(r, models, {}), model_sum(models));
  }
  EXPECT_EQ(session.stats().offline_encodes, kN);
  EXPECT_EQ(session.user(0).epoch(), 0u);

  // Membership change: epoch advances, devices re-run offline setup once.
  session.advance_epoch();
  EXPECT_EQ(session.user(0).epoch(), 1u);
  for (std::uint64_t r = 3; r < 6; ++r) {
    const auto models = random_models(kN, kD, 30 + r);
    EXPECT_EQ(session.run_round(r, models, {}), model_sum(models));
  }
  const auto st = session.stats();
  EXPECT_EQ(st.offline_encodes, 2 * kN);  // one setup per epoch per user
  EXPECT_EQ(st.decode_plan_builds, 1u);   // survivor set never changed
}

TEST(Session, PersistentCohortChurnSoakHundredRounds) {
  // 100 rounds with a randomized crash-after-upload pattern: survivor-set
  // churn exercises exact reuse, incremental patching AND full rebuilds.
  // Every aggregate must equal the ground-truth model sum (delayed, not
  // dropped), the offline setup must never re-run, and the plan counters
  // must account for every round exactly.
  constexpr std::size_t kN = 10, kU = 7, kD = 24, kRounds = 100;
  auto p = session_params(kN, 2, kU, kD);
  p.persistent_cohort = true;
  lsa::server::Session session(
      lsa::server::SessionConfig{.params = p, .seed = 77});
  lsa::common::Xoshiro256ss rng(555);

  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::size_t u = 0; u < kN; ++u) session.router().revive(u);
    // 0-3 distinct users crash after uploading (D = N - U = 3).
    std::vector<std::size_t> crash;
    const std::size_t k = rng.next_u64() % 4;
    while (crash.size() < k) {
      const std::size_t c = rng.next_u64() % kN;
      if (std::find(crash.begin(), crash.end(), c) == crash.end()) {
        crash.push_back(c);
      }
    }
    const auto models = random_models(kN, kD, 9000 + r);
    ASSERT_EQ(session.run_round(r, models, crash), model_sum(models))
        << "round " << r;
  }

  const auto st = session.stats();
  EXPECT_EQ(st.offline_encodes, kN);  // setup never re-ran
  EXPECT_EQ(st.decode_plan_builds + st.decode_plan_patches +
                st.decode_plan_reuses,
            kRounds);
  EXPECT_GE(st.decode_plan_patches, 1u);  // ±1/±2 churn occurred
  EXPECT_GE(st.decode_plan_reuses, 1u);
}

// ------------------------------------- validation and the pooled fold

TEST(Session, InProcessRoundsValidateNoFrames) {
  // Every frame in a router mailbox was sealed by that router's own send
  // or broadcast, so delivery reads its header only. An inline Network
  // round and a pooled session round deliver every frame they send and
  // run the full validator (parse_frame) on none.
  const auto p = session_params(6, 1, 4, 40);
  const auto models = random_models(6, 40, 31);
  lsa::sys::ThreadPool pool(4);
  auto pp = p;
  pp.exec.pool = &pool;
  lsa::runtime::Network net(p, /*seed=*/13);
  lsa::server::Session session(
      lsa::server::SessionConfig{.params = pp, .seed = 13});

  const auto before = snapshot();
  const auto want = net.run_round(0, models, {});
  EXPECT_EQ(session.run_round(0, models, {}), want);
  const auto after = snapshot();
  EXPECT_EQ(after.frames_validated - before.frames_validated, 0u);
  EXPECT_EQ(want, model_sum(models));
  for (const auto* r : {&net.router(), &session.router()}) {
    EXPECT_GT(r->frames_delivered(), 0u);
    EXPECT_EQ(r->frames_delivered(), r->frames_sent());
    EXPECT_EQ(r->frames_dropped(), 0u);
  }
}

/// What step_round_crash_before_pump saw.
struct SteppedRound {
  std::vector<rep> result;
  std::uint64_t blocks = 0;  ///< pool blocks outstanding after the starts
  std::uint64_t frames = 0;  ///< frames sealed by the starts
};

/// One round stepped by hand on `net` (a Network or a pooled Session):
/// every device starts, the pool and the frame counter are sampled before
/// the pump, user `crashed` goes down with its mailbox still full — the
/// discard releases one frame of every other device's share batch — and
/// the round is recovered.
template <class Net>
SteppedRound step_round_crash_before_pump(
    Net& net, std::uint64_t round,
    const std::vector<std::vector<rep>>& models, std::size_t crashed) {
  SteppedRound out;
  const auto before = snapshot();
  for (std::size_t i = 0; i < models.size(); ++i) {
    net.user(i).start_round(round, models[i]);
  }
  out.blocks = net.router().pool().outstanding();
  out.frames = snapshot().frames_built - before.frames_built;
  net.router().crash(crashed);
  net.pump();  // shares and uploads; the crashed user's upload included
  net.server().begin_recovery(round);
  net.pump();  // survivor set out, aggregated shares back
  out.result = net.server().finish_round(round);
  net.pump();  // result broadcast
  return out;
}

TEST(Session, ShareFanOutIsOneBlockPerDevice) {
  // A device's N - 1 share frames are carved from one block. After the
  // start fan-out and before the pump the pool holds 2N blocks: a share
  // block and an upload per device, not N(N - 1) + N = 36 frame blocks,
  // while the frame counter still counts all 36 sealed frames. Every
  // block is back after a round whose crashed uploader's mailbox was
  // discarded, inline and pooled, and after run_round with the same
  // crash; the pooled aggregates match the inline Network.
  constexpr std::size_t kN = 6;
  constexpr std::size_t kCrashed = 2;
  const auto p = session_params(kN, 1, 4, 40);
  lsa::sys::ThreadPool pool(4);
  auto pp = p;
  pp.exec.pool = &pool;
  lsa::runtime::Network net(p, /*seed=*/15);
  lsa::server::Session session(
      lsa::server::SessionConfig{.params = pp, .seed = 15});

  const auto models = random_models(kN, 40, 34);
  const auto inline_round =
      step_round_crash_before_pump(net, 0, models, kCrashed);
  const auto pooled_round =
      step_round_crash_before_pump(session, 0, models, kCrashed);
  for (const auto* r : {&inline_round, &pooled_round}) {
    EXPECT_EQ(r->blocks, 2 * kN);
    EXPECT_EQ(r->frames, kN * (kN - 1) + kN);
  }
  EXPECT_EQ(inline_round.result, model_sum(models));
  EXPECT_EQ(pooled_round.result, inline_round.result);
  EXPECT_EQ(net.router().pool().outstanding(), 0u);
  EXPECT_EQ(session.router().pool().outstanding(), 0u);

  net.router().revive(kCrashed);
  session.router().revive(kCrashed);
  const auto next = random_models(kN, 40, 35);
  const auto want1 = net.run_round(1, next, {kCrashed});
  EXPECT_EQ(session.run_round(1, next, {kCrashed}), want1);
  EXPECT_EQ(want1, model_sum(next));
  EXPECT_EQ(net.router().pool().outstanding(), 0u);
  EXPECT_EQ(session.router().pool().outstanding(), 0u);
}

TEST(Session, AsyncCyclePinsOneShareBlockPerArrival) {
  // An async arrival's share fan-out is one block too: after K submits and
  // before the pump the pool holds 2K blocks, a share block and an upload
  // per arrival. The cycle then matches run_cycle on a twin network and
  // returns every block.
  constexpr std::size_t kK = 3;
  constexpr std::uint64_t kNow = 5;
  const auto p = session_params(6, 1, 4, 12);
  const lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(p, kK, constant, /*c_g=*/64, /*seed=*/17);
  lsa::runtime::AsyncNetwork twin(p, kK, constant, /*c_g=*/64, /*seed=*/17);
  const auto updates = random_models(kK, 12, 36);
  std::vector<lsa::runtime::Arrival> arrivals;
  for (std::size_t a = 0; a < kK; ++a) {
    arrivals.push_back({a + 1, /*born_round=*/kNow - a, updates[a]});
  }
  const auto want = twin.run_cycle(kNow, arrivals);

  for (const auto& a : arrivals) {
    net.user(a.user).submit_update(a.born_round, a.update);
  }
  EXPECT_EQ(net.router().pool().outstanding(), 2 * kK);
  net.pump();
  net.server().send_manifest(kNow, constant, /*c_g=*/64);
  net.pump();
  const auto got = net.server().finish_cycle(kNow);
  net.pump();
  EXPECT_EQ(got.weighted_sum, want.weighted_sum);
  EXPECT_EQ(got.weight_sum, want.weight_sum);
  EXPECT_EQ(net.router().pool().outstanding(), 0u);
  EXPECT_EQ(twin.router().pool().outstanding(), 0u);
}

TEST(Session, FaultHookValidatesEveryDelivery) {
  // A fault hook may rewrite any frame's bytes, so while one is installed
  // every delivery runs parse_frame: inline and pooled, with a
  // crash-after-upload user whose queued frames are discarded undelivered.
  const auto p = session_params(6, 1, 4, 40);
  const auto models = random_models(6, 40, 32);
  lsa::sys::ThreadPool pool(4);
  auto pp = p;
  pp.exec.pool = &pool;
  lsa::runtime::Network net(p, /*seed=*/14);
  lsa::server::Session session(
      lsa::server::SessionConfig{.params = pp, .seed = 14});
  const auto pass = [](std::span<std::uint8_t>) { return true; };
  net.router().set_fault_hook(pass);
  session.router().set_fault_hook(pass);

  const auto before = snapshot();
  const auto want = net.run_round(0, models, {3});
  EXPECT_EQ(session.run_round(0, models, {3}), want);
  const auto after = snapshot();
  EXPECT_EQ(want, model_sum(models));
  const std::uint64_t delivered =
      net.router().frames_delivered() + session.router().frames_delivered();
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(after.frames_validated - before.frames_validated, delivered);
}

TEST(Session, PooledUploadFoldMatchesInlineNetwork) {
  // The server folds each upload in kUploadFoldGrain blocks over the
  // session pool, from inside the pump's own fan-out. At d = 2 grains +
  // 17 every upload splits into two full blocks and a ragged tail; two
  // rounds, the second with a crash-after-upload user, must match the
  // inline Network bit for bit.
  constexpr std::size_t kN = 6;
  constexpr std::size_t kD = 2 * lsa::runtime::kUploadFoldGrain + 17;
  const auto p = session_params(kN, 1, 4, kD);
  lsa::sys::ThreadPool pool(4);
  auto pp = p;
  pp.exec.pool = &pool;
  lsa::runtime::Network net(p, /*seed=*/61);
  lsa::server::Session session(
      lsa::server::SessionConfig{.params = pp, .seed = 61});

  for (std::uint64_t r = 0; r < 2; ++r) {
    for (std::size_t u = 0; u < kN; ++u) {
      net.router().revive(u);
      session.router().revive(u);
    }
    const std::vector<std::size_t> crash =
        r == 1 ? std::vector<std::size_t>{2} : std::vector<std::size_t>{};
    const auto models = random_models(kN, kD, 700 + r);
    const auto want = net.run_round(r, models, crash);
    EXPECT_EQ(session.run_round(r, models, crash), want) << "round " << r;
    EXPECT_EQ(want, model_sum(models)) << "round " << r;
  }
}

TEST(Session, PooledDuplicateUploadRejectedBeforeTheSum) {
  // NetworkRound.DuplicateUploadRejected on the pooled fold: a second
  // upload from a user is refused before any block of it reaches the
  // sum, so the round still recovers its exact sum.
  constexpr std::size_t kN = 5;
  constexpr std::size_t kD = 2 * lsa::runtime::kUploadFoldGrain + 17;
  lsa::sys::ThreadPool pool(4);
  auto p = session_params(kN, 1, 4, kD);
  p.exec.pool = &pool;
  lsa::server::Session session(
      lsa::server::SessionConfig{.params = p, .seed = 19});
  const auto models = random_models(kN, kD, 50);
  for (std::size_t i = 0; i < kN; ++i) {
    session.user(i).start_round(0, models[i]);
  }
  session.pump();
  const std::vector<rep> second(kD, 7);
  session.router().send_row(MsgType::kMaskedModel, /*sender=*/2,
                            /*receiver=*/static_cast<std::uint32_t>(kN),
                            /*round=*/0, std::span<const rep>(second));
  EXPECT_THROW(session.pump(), lsa::ProtocolError);

  EXPECT_EQ(session.server().arrived(0),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  session.server().begin_recovery(0);
  session.pump();  // survivor set out, aggregated shares back
  EXPECT_EQ(session.server().finish_round(0), model_sum(models));
  session.pump();  // result broadcast

  const auto next = random_models(kN, kD, 51);
  EXPECT_EQ(session.run_round(1, next, {}), model_sum(next));
}

// --------------------------------------------------------- batched rounds
//
// Several rounds of one sync session queued and executed by a single
// drive: the shard steps them whole, in order. The contract under test:
// every aggregate is BIT-IDENTICAL to runtime::Network under every
// dropout pattern, and the session counters account for every round.

/// Queues `model_sets.size()` rounds of one sync session on a 1-shard
/// server and drives them in a single batch.
std::vector<std::vector<rep>> drive_batched_rounds(
    lsa::sys::ThreadPool& pool, const lsa::protocol::Params& p,
    std::uint64_t seed,
    const std::vector<std::vector<std::vector<rep>>>& model_sets,
    const std::vector<std::vector<std::size_t>>& crashes,
    lsa::server::SessionStats* stats_out = nullptr, bool persistent = false) {
  lsa::server::AggregationServer server(&pool, /*num_shards=*/1);
  auto pp = p;
  pp.exec.pool = &pool;
  pp.persistent_cohort = persistent;
  const auto id = server.open_session(
      lsa::server::SessionConfig{.params = pp, .seed = seed});
  std::vector<lsa::server::AggregationServer::RoundWork> works;
  for (std::size_t r = 0; r < model_sets.size(); ++r) {
    works.push_back({id, r, &model_sets[r], crashes[r]});
  }
  auto results = server.run_rounds(works);
  if (stats_out != nullptr) *stats_out = server.session(id).stats();
  return results;
}

TEST(BatchedRounds, BitIdenticalToNetworkAcrossDropoutsNoRevive) {
  // Crashes accumulate without revive until the last round runs at the U
  // boundary with exactly U live users:
  //   * N = 7, U = 5: round 1 kills user 1, round 2 kills user 4;
  //   * N = 6, U = 4: crashes at both ends, rounds 0 and 2.
  // The batch must match the serial Network bit for bit, every round.
  struct Case {
    lsa::protocol::Params params;
    std::uint64_t seed;
    std::uint64_t model_seed;
    std::vector<std::vector<std::size_t>> crashes;
  };
  const std::vector<Case> cases = {
      {session_params(7, 2, 5, 33), 31, 7000, {{}, {1}, {4}, {}}},
      {session_params(6, 1, 4, 24), 8, 8100, {{2}, {}, {5}}},
  };
  lsa::sys::ThreadPool pool(4);
  for (const auto& c : cases) {
    SCOPED_TRACE("N = " + std::to_string(c.params.num_users));
    const std::size_t rounds = c.crashes.size();
    std::vector<std::vector<std::vector<rep>>> model_sets;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      model_sets.push_back(random_models(c.params.num_users,
                                         c.params.model_dim,
                                         c.model_seed + r));
    }
    lsa::runtime::Network net(c.params, c.seed);
    lsa::server::SessionStats st;
    const auto results = drive_batched_rounds(pool, c.params, c.seed,
                                              model_sets, c.crashes, &st);
    ASSERT_EQ(results.size(), rounds);
    for (std::size_t r = 0; r < rounds; ++r) {
      EXPECT_EQ(results[r], net.run_round(r, model_sets[r], c.crashes[r]))
          << "round " << r;
    }
    EXPECT_EQ(st.steps, rounds);
  }
}

TEST(BatchedRounds, ReviveBetweenDrivesRejoinsTheCohort) {
  // Crash in the first batch, revive between drives, run a second batch:
  // the revived user is back in every aggregate, matching a Network
  // reference replaying the same crash/revive schedule.
  const auto p = session_params(6, 1, 4, 16);
  std::vector<std::vector<std::vector<rep>>> model_sets;
  for (std::uint64_t r = 0; r < 4; ++r) {
    model_sets.push_back(random_models(6, 16, 8200 + r));
  }

  lsa::runtime::Network net(p, /*seed=*/55);
  std::vector<std::vector<rep>> expected;
  expected.push_back(net.run_round(0, model_sets[0], {}));
  expected.push_back(net.run_round(1, model_sets[1], {2}));
  for (std::size_t u = 0; u < 6; ++u) net.router().revive(u);
  expected.push_back(net.run_round(2, model_sets[2], {}));
  expected.push_back(net.run_round(3, model_sets[3], {}));

  lsa::sys::ThreadPool pool(4);
  lsa::server::AggregationServer server(&pool, /*num_shards=*/1);
  auto pp = p;
  pp.exec.pool = &pool;
  const auto id = server.open_session(
      lsa::server::SessionConfig{.params = pp, .seed = 55});
  const auto first = server.run_rounds(
      {{id, 0, &model_sets[0], {}}, {id, 1, &model_sets[1], {2}}});
  EXPECT_EQ(first[0], expected[0]);
  EXPECT_EQ(first[1], expected[1]);
  // Rounds 2/3 exclude the dead user until it revives.
  for (std::size_t u = 0; u < 6; ++u) server.session(id).router().revive(u);
  const auto second = server.run_rounds(
      {{id, 2, &model_sets[2], {}}, {id, 3, &model_sets[3], {}}});
  EXPECT_EQ(second[0], expected[2]);
  EXPECT_EQ(second[1], expected[3]);
  EXPECT_EQ(second[0], model_sum(model_sets[2]));  // all 6 back in
}

TEST(BatchedRounds, PersistentCohortEpochsKeepExactCounters) {
  // A stable 6-round persistent cohort driven as one batch pays exactly
  // one offline encode per user and one plan build, and every aggregate
  // is the exact model sum.
  const auto p = session_params(7, 2, 5, 33);
  constexpr std::size_t kRounds = 6;
  std::vector<std::vector<std::vector<rep>>> model_sets;
  std::vector<std::vector<std::size_t>> crashes(kRounds);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    model_sets.push_back(random_models(7, 33, 8400 + r));
  }

  lsa::sys::ThreadPool pool(4);
  lsa::server::SessionStats st;
  const auto results = drive_batched_rounds(pool, p, /*seed=*/6, model_sets,
                                            crashes, &st,
                                            /*persistent=*/true);
  for (std::size_t r = 0; r < kRounds; ++r) {
    EXPECT_EQ(results[r], model_sum(model_sets[r])) << "round " << r;
  }
  EXPECT_EQ(st.steps, kRounds);
  EXPECT_EQ(st.offline_encodes, 7u);  // once per user, NOT per round
  EXPECT_EQ(st.decode_plan_builds, 1u);
  EXPECT_EQ(st.decode_plan_reuses, kRounds - 1);
  EXPECT_EQ(st.decode_plan_patches, 0u);
}

TEST(AggregationServer, MixedShardSyncAndAsyncInOneDrive) {
  // One shard holding two sync sessions and an async buffered session:
  // the shard task steps all three in one drive, with every sync
  // aggregate matching its Network reference.
  lsa::sys::ThreadPool pool(4);
  lsa::server::AggregationServer server(&pool, /*num_shards=*/1);

  const auto pa = session_params(7, 2, 5, 20);
  const auto pb = session_params(5, 1, 4, 12);
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<std::vector<rep>>> models_a, models_b;
  const std::vector<std::vector<std::size_t>> crashes_a = {{0, 2}, {}, {}};
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    models_a.push_back(random_models(7, 20, 8500 + r));
    models_b.push_back(random_models(5, 12, 8600 + r));
  }
  lsa::runtime::Network ref_a(pa, /*seed=*/71);
  lsa::runtime::Network ref_b(pb, /*seed=*/72);
  std::vector<std::vector<rep>> exp_a, exp_b;
  for (std::size_t r = 0; r < kRounds; ++r) {
    exp_a.push_back(ref_a.run_round(r, models_a[r], crashes_a[r]));
    exp_b.push_back(ref_b.run_round(r, models_b[r], {}));
  }

  auto ppa = pa;
  ppa.exec.pool = &pool;
  auto ppb = pb;
  ppb.exec.pool = &pool;
  const auto id_a = server.open_session(
      lsa::server::SessionConfig{.params = ppa, .seed = 71});
  const auto id_b = server.open_session(
      lsa::server::SessionConfig{.params = ppb, .seed = 72});
  lsa::server::AsyncSessionConfig ca;
  ca.params = session_params(6, 1, 4, 12);
  ca.params.exec.pool = &pool;
  ca.seed = 73;
  ca.buffer_k = 2;
  ca.staleness = {lsa::quant::StalenessKind::kPolynomial, 1.0};
  ca.schedule = {.seed = 3, .tau_max = 3};
  const auto id_c = server.open_async_session(ca);
  server.async_session(id_c).enqueue_scheduled_cycles(2);

  std::vector<lsa::server::AggregationServer::RoundWork> works;
  for (std::size_t r = 0; r < kRounds; ++r) {
    works.push_back({id_a, r, &models_a[r], crashes_a[r]});
    works.push_back({id_b, r, &models_b[r], {}});
  }
  const auto results = server.run_rounds(works);
  for (std::size_t r = 0; r < kRounds; ++r) {
    EXPECT_EQ(results[2 * r], exp_a[r]) << "session A round " << r;
    EXPECT_EQ(results[2 * r + 1], exp_b[r]) << "session B round " << r;
  }
  EXPECT_EQ(server.async_session(id_c).outputs().size(), 2u);
  EXPECT_EQ(server.rounds_completed(), 2 * kRounds);
  EXPECT_EQ(server.cycles_completed(), 2u);
}

TEST(BatchedRounds, UnrecoverableRoundAbandonsQueueOthersProceed) {
  // Round 1 of one session loses too many responders (crash 2 of 6 with
  // U = 5): the drive rethrows, the failing session abandons its
  // remaining queue after one completed round, and a healthy session in
  // the same shard still completes every round.
  const auto p = session_params(6, 1, 5, 12);
  std::vector<std::vector<std::vector<rep>>> models_bad, models_ok;
  for (std::uint64_t r = 0; r < 3; ++r) {
    models_bad.push_back(random_models(6, 12, 8700 + r));
    models_ok.push_back(random_models(6, 12, 8800 + r));
  }

  lsa::sys::ThreadPool pool(4);
  lsa::server::AggregationServer server(&pool, /*num_shards=*/1);
  auto pp = p;
  pp.exec.pool = &pool;
  const auto id_bad = server.open_session(
      lsa::server::SessionConfig{.params = pp, .seed = 91});
  const auto id_ok = server.open_session(
      lsa::server::SessionConfig{.params = pp, .seed = 92});
  std::vector<lsa::server::AggregationServer::RoundWork> works;
  for (std::size_t r = 0; r < 3; ++r) {
    works.push_back(
        {id_bad, r, &models_bad[r],
         r == 1 ? std::vector<std::size_t>{0, 3} : std::vector<std::size_t>{}});
    works.push_back({id_ok, r, &models_ok[r], {}});
  }
  EXPECT_THROW((void)server.run_rounds(works), lsa::ProtocolError);
  EXPECT_EQ(server.session(id_bad).pending(), 0u);  // queue abandoned
  EXPECT_EQ(server.session(id_ok).pending(), 0u);   // ran to completion
  EXPECT_EQ(server.session(id_bad).stats().steps, 1u);
  EXPECT_EQ(server.session(id_ok).stats().steps, 3u);
  EXPECT_EQ(server.rounds_completed(), 4u);
  // The healthy session's rounds all completed and are correct: replay
  // the same workload standalone for the expected bits.
  lsa::runtime::Network ref(p, /*seed=*/92);
  std::vector<std::vector<rep>> exp_ok;
  for (std::size_t r = 0; r < 3; ++r) {
    exp_ok.push_back(ref.run_round(r, models_ok[r], {}));
  }
  const auto again = drive_batched_rounds(
      pool, p, /*seed=*/92, models_ok,
      std::vector<std::vector<std::size_t>>(3));
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(again[r], exp_ok[r]) << "round " << r;
  }
}

}  // namespace

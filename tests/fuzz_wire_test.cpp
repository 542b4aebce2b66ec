// Fuzz-style robustness tests: random and mutated byte streams thrown at the
// wire deserializer and mutated frames at a live network round. The
// deserializer must reject garbage with a typed error, never crash or
// accept silently-corrupted payloads.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "field/random_field.h"
#include "field/simd/simd_policy.h"
#include "protocol/lightsecagg.h"
#include "quant/staleness.h"
#include "runtime/machines.h"
#include "runtime/wire.h"
#include "server/aggregation_server.h"
#include "transport/buffer_pool.h"
#include "transport/frame.h"
#include "transport/socket/frame_decoder.h"

namespace {

using namespace lsa::runtime;
using lsa::field::Fp32;
using rep = Fp32::rep;

TEST(Crc32, SliceBy8MatchesBitwiseReferenceOnBoundaryInputs) {
  // Pinned to slice-by-8 so the scalar body stays covered on SIMD hosts.
  const lsa::field::simd::ScopedSimdPolicy scalar(
      lsa::field::simd::SimdPolicy::kForceScalar);
  // Known answer: CRC32("123456789") = 0xCBF43926.
  const char* check = "123456789";
  const std::span<const std::uint8_t> check_span(
      reinterpret_cast<const std::uint8_t*>(check), 9);
  EXPECT_EQ(crc32(check_span), 0xCBF43926u);
  EXPECT_EQ(crc32_reference(check_span), 0xCBF43926u);

  // Boundary shapes: empty, every length straddling the 8-byte slicing
  // granularity, constant fills.
  for (std::size_t len = 0; len <= 40; ++len) {
    for (const std::uint8_t fill : {0x00, 0xFF, 0x5A}) {
      std::vector<std::uint8_t> buf(len, fill);
      EXPECT_EQ(crc32(buf), crc32_reference(buf)) << "len " << len;
    }
  }
}

TEST(Crc32, SliceBy8MatchesBitwiseReferenceOnRandomInputs) {
  const lsa::field::simd::ScopedSimdPolicy scalar(
      lsa::field::simd::SimdPolicy::kForceScalar);
  lsa::common::Xoshiro256ss rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t len = rng.next_below(513);
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    ASSERT_EQ(crc32(buf), crc32_reference(buf)) << "trial " << trial;
  }
}

TEST(FuzzPooledFrames, RandomBytesNeverAccepted) {
  lsa::transport::BufferPool pool;
  lsa::common::Xoshiro256ss rng(5);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.next_below(200);
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto frame = lsa::transport::frame_from_bytes(pool, buf);
    try {
      const auto view = lsa::transport::parse_frame(frame);
      if (!view.payload.empty()) ++accepted;
    } catch (const lsa::Error&) {
      // expected
    }
  }
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzPooledFrames, TruncationBitFlipsAndBadLengthsRejected) {
  lsa::transport::BufferPool pool;
  // 5 elements (20 bytes) run slice-by-8 only. 197 elements (788 bytes, the
  // mnist-n200-p10 share) and 1,100 elements (4,400 bytes: several 256-byte
  // fold steps plus a tail) reach the carry-less-multiply fold wherever the
  // level has one, so corruption must be caught through the folded prefix.
  lsa::common::Xoshiro256ss rng(71);
  std::vector<std::vector<rep>> payloads = {{10, 20, 30, 40, 50}};
  for (const std::size_t elems : {std::size_t{197}, std::size_t{1100}}) {
    std::vector<rep> p(elems);
    for (auto& v : p) v = static_cast<rep>(rng.next_below(Fp32::modulus));
    payloads.push_back(std::move(p));
  }
  for (const auto& payload : payloads) {
    SCOPED_TRACE(testing::Message() << payload.size() << " elements");
    const auto frame =
        lsa::transport::build_frame(pool, MsgType::kMaskedModel, 3, 9, 77,
                                    std::span<const rep>(payload));
    const auto bytes = frame.bytes();
    const std::vector<std::uint8_t> good(bytes.begin(), bytes.end());

    // Sanity: the untampered frame parses.
    EXPECT_NO_THROW((void)lsa::transport::parse_frame(frame));

    // Truncation at every boundary.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{5}, kHeaderBytes - 1, kHeaderBytes,
          good.size() - 4, good.size() - 1}) {
      const auto cut = lsa::transport::frame_from_bytes(
          pool, std::span<const std::uint8_t>(good.data(), keep));
      EXPECT_THROW((void)lsa::transport::parse_frame(cut), lsa::ProtocolError)
          << "kept " << keep;
    }

    // Payload bit flips (CRC) — every byte, two bit positions.
    for (std::size_t pos = kHeaderBytes; pos < good.size(); ++pos) {
      for (const std::uint8_t bit : {0x01, 0x80}) {
        auto mutated = good;
        mutated[pos] ^= bit;
        const auto f = lsa::transport::frame_from_bytes(pool, mutated);
        EXPECT_THROW((void)lsa::transport::parse_frame(f), lsa::ProtocolError)
            << "payload byte " << pos << " bit " << int(bit);
      }
    }

    // Length-field tampering (offset 20).
    for (const int delta : {1, 2, 255}) {
      auto mutated = good;
      mutated[20] = static_cast<std::uint8_t>(mutated[20] + delta);
      const auto f = lsa::transport::frame_from_bytes(pool, mutated);
      EXPECT_THROW((void)lsa::transport::parse_frame(f), lsa::ProtocolError);
    }

    // CRC-field tampering.
    auto mutated = good;
    mutated[24] ^= 0x01;
    const auto f = lsa::transport::frame_from_bytes(pool, mutated);
    EXPECT_THROW((void)lsa::transport::parse_frame(f), lsa::ProtocolError);

    // One element set to q - 1, q or 0xFFFFFFFF at the first, a middle and
    // the last element, CRC fixed up to match: the canonicality scan alone
    // decides, and it accepts exactly the reps below q = 2^32 - 5.
    const auto q = static_cast<rep>(Fp32::modulus);
    for (const std::size_t elem :
         {std::size_t{0}, payload.size() / 2, payload.size() - 1}) {
      for (const rep value : {rep{q - 1}, q, rep{0xFFFFFFFFu}}) {
        auto edited = good;
        std::memcpy(edited.data() + kHeaderBytes + 4 * elem, &value, 4);
        const std::uint32_t fixed_crc = crc32(std::span<const std::uint8_t>(
            edited.data() + kHeaderBytes, edited.size() - kHeaderBytes));
        std::memcpy(edited.data() + 24, &fixed_crc, 4);
        const auto f2 = lsa::transport::frame_from_bytes(pool, edited);
        if (value < q) {
          EXPECT_NO_THROW((void)lsa::transport::parse_frame(f2))
              << "element " << elem << " value " << value;
        } else {
          EXPECT_THROW((void)lsa::transport::parse_frame(f2),
                       lsa::ProtocolError)
              << "element " << elem << " value " << value;
        }
      }
    }
  }
}

TEST(FuzzPooledFrames, AsyncFrameTypesRoundTripAndRejectCorruption) {
  // The async protocol's frame types through the pooled zero-copy framing
  // path: a timestamped encoded mask share (the round field carries the
  // BORN round — exercise the full 64-bit range), a buffer manifest of
  // (user, born_round, weight) triples, and a weighted-share response.
  // Each must round-trip byte-exactly and reject truncation, payload bit
  // flips and length tampering, like the sync types.
  lsa::transport::BufferPool pool;
  struct Case {
    MsgType type;
    std::uint64_t round;
    std::vector<rep> payload;
  };
  const std::vector<Case> cases = {
      // [~z_i]_j at born round 2^40 + 3 (async rounds are true u64s).
      {MsgType::kEncodedMaskShare, (1ull << 40) + 3, {7, 11, 4294967290u, 0}},
      // Manifest triples: (user, born_round, quantized staleness weight).
      {MsgType::kBufferManifest, 9, {0, 7, 64, 3, 8, 32, 5, 9, 64}},
      // sum_b w_b [~z_{u_b}^{(t_b)}]_j — an ordinary share-length row.
      {MsgType::kWeightedShares, 9, {1, 2, 3, 4, 5}},
  };
  for (const auto& c : cases) {
    const auto frame = lsa::transport::build_frame(
        pool, c.type, 3, 9, c.round, std::span<const rep>(c.payload));
    const auto view = lsa::transport::parse_frame(frame);
    EXPECT_EQ(view.type, c.type);
    EXPECT_EQ(view.round, c.round);
    ASSERT_EQ(view.payload.size(), c.payload.size());
    EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                           c.payload.begin()));

    const auto bytes = frame.bytes();
    const std::vector<std::uint8_t> good(bytes.begin(), bytes.end());
    // Truncation at every interesting boundary.
    for (const std::size_t keep :
         {std::size_t{0}, kHeaderBytes - 1, kHeaderBytes, good.size() - 4,
          good.size() - 1}) {
      const auto cut = lsa::transport::frame_from_bytes(
          pool, std::span<const std::uint8_t>(good.data(), keep));
      EXPECT_THROW((void)lsa::transport::parse_frame(cut),
                   lsa::ProtocolError)
          << "type " << int(c.type) << " kept " << keep;
    }
    // Payload bit flips (CRC must catch every one).
    for (std::size_t pos = kHeaderBytes; pos < good.size(); ++pos) {
      for (const std::uint8_t bit : {0x01, 0x80}) {
        auto mutated = good;
        mutated[pos] ^= bit;
        const auto f = lsa::transport::frame_from_bytes(pool, mutated);
        EXPECT_THROW((void)lsa::transport::parse_frame(f),
                     lsa::ProtocolError)
            << "type " << int(c.type) << " byte " << pos;
      }
    }
    // Length-field tampering (offset 20).
    for (const int delta : {1, 255}) {
      auto mutated = good;
      mutated[20] = static_cast<std::uint8_t>(mutated[20] + delta);
      const auto f = lsa::transport::frame_from_bytes(pool, mutated);
      EXPECT_THROW((void)lsa::transport::parse_frame(f), lsa::ProtocolError);
    }
  }
}

TEST(FuzzAsyncSession, CorruptedAsyncFramesFailLoudlyNotWrongly) {
  // Flip a payload bit in every 5th frame of an async buffer cycle driven
  // through the zero-copy transport: the cycle must either complete with
  // the EXACT staleness-weighted aggregate or throw — never return a wrong
  // one. Covers the async types in flight (timestamped shares, manifest,
  // weighted shares, result).
  lsa::server::AsyncSessionConfig cfg;
  cfg.params.num_users = 6;
  cfg.params.privacy = 1;
  cfg.params.dropout = 2;
  cfg.params.target_survivors = 4;
  cfg.params.model_dim = 16;
  cfg.buffer_k = 3;
  cfg.staleness = {lsa::quant::StalenessKind::kPolynomial, 1.0};
  cfg.c_g = 1u << 6;

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    cfg.seed = 100 + seed;
    lsa::server::AsyncSession session(cfg);
    lsa::common::Xoshiro256ss rng(seed);
    std::vector<lsa::runtime::Arrival> arrivals;
    for (std::size_t b = 0; b < 3; ++b) {
      arrivals.push_back(
          {b + seed % 3, 5 + b,
           lsa::field::uniform_vector<Fp32>(16, rng)});
    }
    std::vector<rep> expected(16, Fp32::zero);
    for (const auto& a : arrivals) {
      const auto w = lsa::quant::quantized_staleness_weight(
          cfg.staleness, 8 - a.born_round, cfg.c_g);
      lsa::field::axpy_inplace<Fp32>(std::span<rep>(expected),
                                     Fp32::from_u64(w),
                                     std::span<const rep>(a.update));
    }
    int count = 0;
    session.router().set_fault_hook(
        [&count](std::span<std::uint8_t> frame) {
          if (++count % 5 == 0 &&
              frame.size() > lsa::runtime::kHeaderBytes) {
            frame[lsa::runtime::kHeaderBytes] ^= 0x10;
          }
          return true;
        });
    try {
      const auto out = session.run_cycle(8, arrivals);
      EXPECT_EQ(out.weighted_sum, expected) << "seed " << seed;
    } catch (const lsa::Error&) {
      // Loud failure is acceptable; silent corruption is not.
    }
  }
}

TEST(FuzzNetwork, CorruptingRouterFramesFailsLoudlyNotWrongly) {
  // Flip a payload bit in every 7th frame mid-round: the run must either
  // complete with the EXACT aggregate (corruption hit a frame that was
  // retransmittable/unused) or throw — never return a wrong aggregate.
  lsa::protocol::Params p;
  p.num_users = 5;
  p.privacy = 1;
  p.dropout = 1;
  p.target_survivors = 4;
  p.model_dim = 16;

  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Network net(p, seed);
    lsa::common::Xoshiro256ss rng(seed + 100);
    std::vector<std::vector<rep>> models(5);
    std::vector<rep> expected(16, Fp32::zero);
    for (auto& mdl : models) {
      mdl = lsa::field::uniform_vector<Fp32>(16, rng);
      lsa::field::add_inplace<Fp32>(std::span<rep>(expected),
                                    std::span<const rep>(mdl));
    }
    int count = 0;
    net.router().set_fault_hook([&count](std::span<std::uint8_t> frame) {
      if (++count % 7 == 0 && frame.size() > kHeaderBytes) {
        frame[kHeaderBytes] ^= 0x10;
      }
      return true;
    });
    try {
      const auto result = net.run_round(0, models, {});
      EXPECT_EQ(result, expected) << "seed " << seed;
    } catch (const lsa::Error&) {
      // Loud failure is acceptable; silent corruption is not.
    }
  }
}

TEST(VerifiedProtocol, RedundantDecodePassesOnHonestRound) {
  lsa::protocol::Params p{.num_users = 8, .privacy = 2, .dropout = 2,
                          .target_survivors = 5, .model_dim = 24};
  lsa::protocol::LightSecAgg<Fp32> proto(p, 3, nullptr,
                                         /*verify_redundant=*/true);
  lsa::common::Xoshiro256ss rng(4);
  std::vector<std::vector<rep>> inputs(8);
  std::vector<rep> expected(24, Fp32::zero);
  std::vector<bool> dropped(8, false);
  dropped[6] = true;
  for (std::size_t i = 0; i < 8; ++i) {
    inputs[i] = lsa::field::uniform_vector<Fp32>(24, rng);
    if (dropped[i]) continue;
    lsa::field::add_inplace<Fp32>(std::span<rep>(expected),
                                  std::span<const rep>(inputs[i]));
  }
  EXPECT_EQ(proto.run_round(inputs, dropped), expected);
}

// ------------------------------------------------ stream frame reassembly

// The socket backend's FrameDecoder must reconstruct byte-identical frames
// from a TCP byte stream no matter how the kernel tears it: split headers,
// split CRC words, frames coalesced into one read, trailing partials. It
// must emit frames in order, never hang waiting for bytes it already has,
// never over-read past a frame boundary, and reject garbage lengths loudly.

std::vector<std::uint8_t> frame_bytes(lsa::transport::BufferPool& pool,
                                      std::uint32_t sender,
                                      std::size_t payload_len) {
  lsa::common::Xoshiro256ss rng(900 + sender * 131 + payload_len);
  std::vector<rep> payload(payload_len);
  for (auto& w : payload) {
    w = static_cast<rep>(rng.next_below(Fp32::modulus));
  }
  const auto buf = lsa::transport::build_frame(
      pool, MsgType::kEncodedMaskShare, sender, sender + 1, 5,
      std::span<const rep>(payload));
  return {buf.bytes().begin(), buf.bytes().end()};
}

// Feeds `stream` split into [0, cut) / [cut, end) and checks the decoder
// reproduces exactly `want` (byte-identical, in order).
void check_split(lsa::transport::BufferPool& pool,
                 const std::vector<std::uint8_t>& stream, std::size_t cut,
                 const std::vector<std::vector<std::uint8_t>>& want) {
  lsa::transport::socket::FrameDecoder dec(pool, /*max_payload_elems=*/4096);
  std::vector<std::vector<std::uint8_t>> got;
  auto sink = [&](lsa::transport::BufferRef&& f) {
    got.emplace_back(f.bytes().begin(), f.bytes().end());
  };
  dec.feed(std::span<const std::uint8_t>(stream.data(), cut), sink);
  dec.feed(std::span<const std::uint8_t>(stream.data() + cut,
                                         stream.size() - cut),
           sink);
  ASSERT_EQ(got.size(), want.size()) << "cut " << cut;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "cut " << cut << " frame " << i;
  }
  EXPECT_EQ(dec.buffered_bytes(), 0u) << "cut " << cut;
}

TEST(FrameReassembly, EverySplitOffsetReproducesFramesExactly) {
  lsa::transport::BufferPool pool(16);
  // Three frames including a zero-payload one (header-only boundary) —
  // every 2-way split crosses a torn header, a split CRC word, a torn
  // payload, or a coalesced pair at some offset.
  std::vector<std::vector<std::uint8_t>> want = {
      frame_bytes(pool, 0, 13), frame_bytes(pool, 1, 0),
      frame_bytes(pool, 2, 7)};
  std::vector<std::uint8_t> stream;
  for (const auto& f : want) stream.insert(stream.end(), f.begin(), f.end());
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    check_split(pool, stream, cut, want);
  }
}

TEST(FrameReassembly, ByteAtATimeAndCoalescedDeliverIdentically) {
  lsa::transport::BufferPool pool(16);
  std::vector<std::vector<std::uint8_t>> want = {
      frame_bytes(pool, 3, 1), frame_bytes(pool, 4, 31),
      frame_bytes(pool, 5, 0), frame_bytes(pool, 6, 8)};
  std::vector<std::uint8_t> stream;
  for (const auto& f : want) stream.insert(stream.end(), f.begin(), f.end());

  // One byte per feed: maximal tearing.
  lsa::transport::socket::FrameDecoder dec(pool, 4096);
  std::vector<std::vector<std::uint8_t>> got;
  auto sink = [&](lsa::transport::BufferRef&& f) {
    got.emplace_back(f.bytes().begin(), f.bytes().end());
  };
  for (const std::uint8_t b : stream) {
    dec.feed(std::span<const std::uint8_t>(&b, 1), sink);
  }
  ASSERT_EQ(got, want);
  EXPECT_EQ(dec.buffered_bytes(), 0u);

  // Entire stream in one chunk: maximal coalescing.
  got.clear();
  dec.feed(stream, sink);
  ASSERT_EQ(got, want);
  EXPECT_EQ(dec.frames_out(), 8u);
}

TEST(FrameReassembly, TrailingPartialStaysBufferedNeverOverReads) {
  lsa::transport::BufferPool pool(16);
  const auto f0 = frame_bytes(pool, 7, 9);
  std::vector<std::uint8_t> stream = f0;
  // Trailing garbage shorter than a header: must stay staged, no frame.
  const std::vector<std::uint8_t> tail = {0xde, 0xad, 0xbe, 0xef, 0x01};
  stream.insert(stream.end(), tail.begin(), tail.end());

  lsa::transport::socket::FrameDecoder dec(pool, 4096);
  std::size_t frames = 0;
  dec.feed(stream, [&](lsa::transport::BufferRef&& f) {
    ++frames;
    EXPECT_EQ((std::vector<std::uint8_t>(f.bytes().begin(),
                                         f.bytes().end())),
              f0);
  });
  EXPECT_EQ(frames, 1u);
  EXPECT_EQ(dec.buffered_bytes(), tail.size());
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FrameReassembly, OversizedLengthThrowsAtHeaderCompletionAndResets) {
  lsa::transport::BufferPool pool(16);
  std::vector<std::uint8_t> header(lsa::runtime::kHeaderBytes, 0);
  const std::uint32_t huge = 1u << 30;
  std::memcpy(header.data() + 20, &huge, 4);

  lsa::transport::socket::FrameDecoder dec(pool, /*max_payload_elems=*/4096);
  auto sink = [](lsa::transport::BufferRef&&) { FAIL() << "no frame"; };
  // Feed all but the last header byte: no exception yet (length unknown).
  dec.feed(std::span<const std::uint8_t>(header.data(),
                                         lsa::runtime::kHeaderBytes - 1),
           sink);
  EXPECT_EQ(dec.buffered_bytes(), lsa::runtime::kHeaderBytes - 1);
  const std::uint8_t last = header.back();
  EXPECT_THROW(dec.feed(std::span<const std::uint8_t>(&last, 1), sink),
               lsa::ProtocolError);
  // reset() restores a usable decoder.
  dec.reset();
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  const auto good = frame_bytes(pool, 8, 3);
  std::size_t frames = 0;
  dec.feed(good, [&](lsa::transport::BufferRef&&) { ++frames; });
  EXPECT_EQ(frames, 1u);
}

TEST(FrameReassembly, RandomChunkingsAlwaysReconstructExactly) {
  lsa::transport::BufferPool pool(16);
  lsa::common::Xoshiro256ss rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nframes = 1 + rng.next_below(5);
    std::vector<std::vector<std::uint8_t>> want;
    std::vector<std::uint8_t> stream;
    for (std::size_t i = 0; i < nframes; ++i) {
      want.push_back(frame_bytes(
          pool, static_cast<std::uint32_t>(trial * 8 + i),
          rng.next_below(64)));
      stream.insert(stream.end(), want.back().begin(), want.back().end());
    }
    lsa::transport::socket::FrameDecoder dec(pool, 4096);
    std::vector<std::vector<std::uint8_t>> got;
    auto sink = [&](lsa::transport::BufferRef&& f) {
      got.emplace_back(f.bytes().begin(), f.bytes().end());
    };
    std::size_t off = 0;
    std::size_t fed = 0;
    while (off < stream.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.next_below(97),
                                stream.size() - off);
      dec.feed(std::span<const std::uint8_t>(stream.data() + off, n), sink);
      off += n;
      fed += n;
      // Progress accounting: everything fed is either emitted or staged —
      // the decoder can neither hang onto emitted bytes nor over-read.
      std::size_t emitted = 0;
      for (const auto& g : got) emitted += g.size();
      ASSERT_EQ(emitted + dec.buffered_bytes(), fed) << "trial " << trial;
    }
    ASSERT_EQ(got, want) << "trial " << trial;
    ASSERT_EQ(dec.buffered_bytes(), 0u) << "trial " << trial;
  }
}

}  // namespace

// Wire format for the distributed protocol runtime.
//
// The protocol classes in src/protocol are orchestrated (one function runs
// all parties), which is ideal for tests and cost accounting. The runtime
// layer instead executes LightSecAgg as *communicating state machines* —
// the shape of the paper's real system (Fig. 4) — so every message crosses
// this wire format; transport/frame.h builds and parses the frames.
// Layout (little-endian):
//
//   [u16 type][u16 flags][u32 sender][u32 receiver][u64 round]
//   [u32 payload_elems][u32 crc32(payload)][payload: u32 field reps]
//
// The header is exactly 7 words (28 bytes), so the payload region of a
// word-aligned frame buffer is itself word-aligned — the property the
// zero-copy span views in src/transport/frame.h rely on.
//
// The CRC lets the runtime reject corrupted frames (tested by fault
// injection in tests/runtime_test.cpp and tests/fuzz_wire_test.cpp). The
// production crc32 folds payloads of kCrc32FoldMinBytes and up with
// carry-less multiplies through the SIMD dispatch (U32Kernels::crc32_fold:
// PCLMULQDQ on AVX2, VPCLMULQDQ on AVX-512) and runs table-driven
// slice-by-8 over short payloads, the last < 16 bytes and every level
// without a fold body. Both compute the same IEEE CRC-32, so the wire
// format does not depend on the host; crc32_reference keeps the bitwise
// definition as the tested ground truth.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/error.h"
#include "field/fp.h"
#include "field/simd/dispatch.h"

namespace lsa::runtime {

enum class MsgType : std::uint16_t {
  kEncodedMaskShare = 1,   ///< [~z_i]_j, offline phase (round = born round)
  kMaskedModel = 2,        ///< ~x_i = x_i + z_i, upload phase
  kSurvivorSet = 3,        ///< server -> users: U1 as a bitmap payload
  kAggregatedShares = 4,   ///< user j -> server: sum_{i in U1} [~z_i]_j
  kAggregateResult = 5,    ///< server -> users: the recovered aggregate
  // Asynchronous protocol (App. F; runtime/async_machines.h):
  kBufferManifest = 6,     ///< server -> users: (user, t_i, weight) triples
  kWeightedShares = 7,     ///< user j -> server: sum_b w_b [~z_{u_b}^(t_b)]_j
  // Socket transport session control (transport/socket/socket_transport.h).
  // These never reach the protocol state machines: the hub consumes kHello
  // to bind a connection to (session, user) and the client endpoint consumes
  // kWelcome to complete its handshake. Payloads are canonical field reps
  // like every other frame so the one wire validator covers them too.
  kSessionHello = 8,       ///< client -> hub: bind connection (round = session)
  kSessionWelcome = 9,     ///< hub -> client: binding accepted (echoed identity)
};

/// CRC-32 (IEEE 802.3 polynomial, bitwise implementation). Kept as the
/// ground-truth reference the table-driven crc32 is tested against.
[[nodiscard]] inline std::uint32_t crc32_reference(
    std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

namespace detail {

/// 8 slice tables: kCrcTables[0] is the classic byte table; table k folds a
/// byte that sits k positions ahead of the CRC window.
consteval std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr auto kCrcTables = make_crc_tables();

/// Slice-by-8 update of a raw (pre-inversion) CRC state: 8 bytes per
/// iteration via 8 parallel table lookups, then one byte at a time.
[[nodiscard]] inline std::uint32_t crc32_slice8(std::uint32_t crc,
                                                const std::uint8_t* p,
                                                std::size_t n) {
  const auto& t = kCrcTables;
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

}  // namespace detail

/// Payload length from which crc32 folds: the shortest input crc32_fold
/// takes, and already a win there (64 bytes: 9 ns folded against 28 ns
/// slice-by-8 on an AVX-512 host, either body). Shorter payloads, such as
/// 16-byte survivor bitmaps and hello/welcome frames, run slice-by-8.
inline constexpr std::size_t kCrc32FoldMinBytes = 64;

/// CRC-32 of data. From kCrc32FoldMinBytes up, the longest multiple-of-16
/// prefix goes through the active level's U32Kernels::crc32_fold and
/// slice-by-8 finishes the last < 16 bytes; shorter payloads, NEON, scalar
/// builds, LSA_SIMD=scalar and SimdPolicy::kForceScalar run slice-by-8
/// throughout. Bit-identical to crc32_reference on every input either way
/// (tests/simd_kernel_test.cpp and tests/fuzz_wire_test.cpp).
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n >= kCrc32FoldMinBytes) {
    const auto* k = lsa::field::simd::u32_active();
    if (k != nullptr && k->crc32_fold != nullptr) {
      const std::size_t folded = n & ~std::size_t{15};
      crc = k->crc32_fold(crc, p, folded);
      p += folded;
      n -= folded;
    }
  }
  return ~detail::crc32_slice8(crc, p, n);
}

inline constexpr std::size_t kHeaderBytes = 2 + 2 + 4 + 4 + 8 + 4 + 4;
static_assert(kHeaderBytes % 4 == 0, "payload must stay word-aligned");

/// Writes the 28-byte header into `p` (caller guarantees capacity). The
/// CRC slot is filled by the caller once the payload bytes are in place.
inline void write_header(std::uint8_t* p, MsgType type, std::uint32_t sender,
                         std::uint32_t receiver, std::uint64_t round,
                         std::uint32_t payload_elems, std::uint32_t crc) {
  auto put16 = [&p](std::uint16_t v) { std::memcpy(p, &v, 2); p += 2; };
  auto put32 = [&p](std::uint32_t v) { std::memcpy(p, &v, 4); p += 4; };
  auto put64 = [&p](std::uint64_t v) { std::memcpy(p, &v, 8); p += 8; };
  put16(static_cast<std::uint16_t>(type));
  put16(0);  // flags (reserved)
  put32(sender);
  put32(receiver);
  put64(round);
  put32(payload_elems);
  put32(crc);
}

/// Header fields of a frame.
struct WireHeader {
  MsgType type = MsgType::kEncodedMaskShare;
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
  std::uint64_t round = 0;
  std::uint32_t payload_elems = 0;
  std::uint32_t crc = 0;  ///< as written by the sender, not yet checked
};

/// The one decoder of the header layout: reads the fields of the 28
/// header bytes `hdr` and checks nothing. For bytes whose length is known
/// already — a staged header, a frame the socket decoder assembled.
[[nodiscard]] inline WireHeader decode_header(
    std::span<const std::uint8_t, kHeaderBytes> hdr) {
  const std::uint8_t* p = hdr.data();
  auto get16 = [&p] { std::uint16_t v; std::memcpy(&v, p, 2); p += 2; return v; };
  auto get32 = [&p] { std::uint32_t v; std::memcpy(&v, p, 4); p += 4; return v; };
  auto get64 = [&p] { std::uint64_t v; std::memcpy(&v, p, 8); p += 8; return v; };
  WireHeader h;
  h.type = static_cast<MsgType>(get16());
  (void)get16();  // flags
  h.sender = get32();
  h.receiver = get32();
  h.round = get64();
  h.payload_elems = get32();
  h.crc = get32();
  return h;
}

/// Reads the header and checks header/payload truncation only: no CRC
/// pass, no look at the payload. Throws ProtocolError on a length
/// mismatch.
[[nodiscard]] inline WireHeader read_header(
    std::span<const std::uint8_t> buf) {
  lsa::require<lsa::ProtocolError>(buf.size() >= kHeaderBytes,
                                   "wire: truncated header");
  const WireHeader h = decode_header(buf.first<kHeaderBytes>());
  lsa::require<lsa::ProtocolError>(
      buf.size() == kHeaderBytes + 4ull * h.payload_elems,
      "wire: truncated payload");
  return h;
}

/// The one wire validator every receive path of bytes from outside the
/// process goes through (via transport::parse_frame): read_header plus the
/// payload CRC, throws ProtocolError on any mismatch. The payload bytes
/// live at buf[kHeaderBytes ..] untouched; canonicality is checked on the
/// payload view by check_canonical_payload.
[[nodiscard]] inline WireHeader read_header_checked(
    std::span<const std::uint8_t> buf) {
  const WireHeader h = read_header(buf);
  const std::uint32_t crc_actual = crc32(buf.subspan(kHeaderBytes));
  lsa::require<lsa::ProtocolError>(crc_actual == h.crc,
                                   "wire: payload CRC mismatch");
  return h;
}

/// Canonicality scan of a payload view: a branchless OR of v >= q kept in
/// the rep's own 32-bit width, which auto-vectorizes with twice the lanes
/// of a compare widened to 64 bits and accepts exactly the same values (a
/// bool accumulator does not vectorize); one require at the end off the
/// throw path.
inline void check_canonical_payload(
    std::span<const lsa::field::Fp32::rep> payload) {
  using rep = lsa::field::Fp32::rep;
  constexpr auto q = static_cast<rep>(lsa::field::Fp32::modulus);
  static_assert(q == lsa::field::Fp32::modulus, "Fp32 modulus fits its rep");
  rep non_canonical = 0;
  for (const rep v : payload) {
    non_canonical |= static_cast<rep>(v >= q);
  }
  lsa::require<lsa::ProtocolError>(non_canonical == 0,
                                   "wire: non-canonical field element");
}

}  // namespace lsa::runtime

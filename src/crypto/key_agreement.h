// Pairwise key agreement (Diffie–Hellman) for SecAgg / SecAgg+.
//
// The paper's baselines agree on pairwise seeds a_{i,j} =
// Key.Agree(sk_i, pk_j) = Key.Agree(sk_j, pk_i) (§3). Production systems use
// X25519; this repository substitutes a finite-group Diffie–Hellman over a
// hard-coded 61-bit safe-prime group. The substitution preserves everything
// the experiments measure — the message sizes (s ≪ d), the commutativity
// that makes pairwise masks cancel, and the O(N) agreements per user — while
// staying dependency-free. It is NOT cryptographically strong at 61 bits;
// README.md ("Substitutions") documents it as a simulation substrate.
#pragma once

#include <cstdint>

#include "crypto/prg.h"

namespace lsa::crypto {

/// The hard-coded group: p is the largest 61-bit safe prime, g = 3 generates
/// the order-(p-1)/2 subgroup (crypto_test checks p and q with the
/// Miller–Rabin helper in tests/primality.h).
struct DhGroup {
  static constexpr std::uint64_t p = 2305843009213691579ull;
  static constexpr std::uint64_t q = (p - 1) / 2;  // subgroup order
  static constexpr std::uint64_t g = 3;
};

struct KeyPair {
  std::uint64_t secret = 0;  ///< sk in [1, q)
  std::uint64_t public_key = 0;  ///< g^sk mod p
};

/// Derives a keypair deterministically from 32 bytes of entropy.
[[nodiscard]] KeyPair generate_keypair(const Seed& entropy);

/// g^(sk_a * sk_b) mod p — symmetric in the two parties.
[[nodiscard]] std::uint64_t shared_secret(std::uint64_t my_secret,
                                          std::uint64_t their_public);

/// Hashes the shared group element into a 32-byte PRG seed
/// (the a_{i,j} of the paper). Both parties derive the identical seed.
[[nodiscard]] Seed agreed_seed(std::uint64_t my_secret,
                               std::uint64_t their_public);

/// Modular exponentiation in the group (exposed for tests).
[[nodiscard]] std::uint64_t group_pow(std::uint64_t base, std::uint64_t exp);

}  // namespace lsa::crypto

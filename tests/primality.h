// Test helper: deterministic Miller–Rabin primality for 64-bit integers.
//
// Validates the hard-coded Diffie–Hellman group parameters (safe prime p,
// subgroup order q) of crypto/key_agreement.h and the prime moduli of the
// fields. No library code needs it, so it lives with the tests.
#pragma once

#include <cstdint>

namespace lsa::crypto {

namespace detail {

inline std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b,
                                std::uint64_t m) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % m);
}

inline std::uint64_t powmod_u64(std::uint64_t a, std::uint64_t e,
                                std::uint64_t m) {
  std::uint64_t r = 1 % m;
  a %= m;
  while (e != 0) {
    if (e & 1u) r = mulmod_u64(r, a, m);
    a = mulmod_u64(a, a, m);
    e >>= 1;
  }
  return r;
}

}  // namespace detail

/// Deterministic for all n < 2^64 using the standard 12-base witness set.
[[nodiscard]] inline bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int s = 0;
  while ((d & 1u) == 0) {
    d >>= 1;
    ++s;
  }
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    std::uint64_t x = detail::powmod_u64(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < s - 1; ++i) {
      x = detail::mulmod_u64(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

/// True when p is a safe prime (p and (p-1)/2 both prime).
[[nodiscard]] inline bool is_safe_prime_u64(std::uint64_t p) {
  return p > 5 && is_prime_u64(p) && is_prime_u64((p - 1) / 2);
}

}  // namespace lsa::crypto

// Deterministic arrival scheduling for asynchronous buffered cycles.
//
// In buffered async FL (paper §4.2, App. F) the server aggregates whenever K
// updates sit in its buffer; which users arrive, and how stale each update
// is, are properties of the *deployment*, not the protocol. To make
// mixed-cohort runs reproducible — the sharded server's async sessions must
// be bit-identical to runtime::AsyncNetwork on the inline ExecPolicy at the
// same seed, whatever the thread interleaving — the arrival pattern is
// factored into this seeded scheduler: every consumer (server::AsyncSession,
// the inline AsyncNetwork reference in tests/benches) derives the SAME
// arrivals for cycle c from the same ArrivalSchedule, with no shared state
// between cycles (each cycle reseeds from (seed, cycle)).
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "field/fp.h"
#include "field/random_field.h"

namespace lsa::runtime {

/// One asynchronous update arriving at the server: `user` finished a local
/// update born at global round `born_round` (staleness tau = now - born).
struct Arrival {
  std::size_t user = 0;
  std::uint64_t born_round = 0;
  std::vector<lsa::field::Fp32::rep> update;
};

/// Seeded description of an arrival pattern. Staleness is uniform in
/// [0, tau_max]; users within one cycle are distinct (concurrent
/// submissions fan out one user per pool lane).
struct ArrivalSchedule {
  std::uint64_t seed = 1;
  /// Arrivals per buffer cycle; 0 = resolved by the consumer (buffer K).
  std::size_t arrivals_per_cycle = 0;
  std::uint64_t tau_max = 3;  ///< staleness cap (uniform draw in [0, tau_max])
  /// Aggregation round of cycle 0; 0 = resolved to tau_max so every drawn
  /// born round is a valid (non-negative) global round.
  std::uint64_t first_now = 0;
  std::uint64_t now_stride = 1;  ///< global rounds between buffer cycles
};

class ArrivalScheduler {
 public:
  using Fp = lsa::field::Fp32;

  ArrivalScheduler(ArrivalSchedule schedule, std::size_t num_users,
                   std::size_t model_dim, std::size_t default_arrivals)
      : s_(schedule), n_(num_users), d_(model_dim) {
    if (s_.arrivals_per_cycle == 0) s_.arrivals_per_cycle = default_arrivals;
    if (s_.first_now == 0) s_.first_now = s_.tau_max;
    lsa::require<lsa::ConfigError>(
        s_.arrivals_per_cycle >= 1 && s_.arrivals_per_cycle <= n_,
        "arrival scheduler: need 1 <= arrivals_per_cycle <= N "
        "(users within a cycle are distinct)");
    lsa::require<lsa::ConfigError>(s_.now_stride >= 1,
                                   "arrival scheduler: now_stride must be >= 1");
  }

  [[nodiscard]] const ArrivalSchedule& schedule() const { return s_; }

  [[nodiscard]] std::uint64_t now_for_cycle(std::uint64_t cycle) const {
    return s_.first_now + cycle * s_.now_stride;
  }

  /// The arrivals of cycle `cycle`: distinct users, born rounds in
  /// [now - tau_max, now], update vectors drawn from the cycle's own RNG
  /// stream. Pure function of (schedule, cycle) — every caller sees the
  /// same pattern regardless of which cycles it asked for before.
  [[nodiscard]] std::vector<Arrival> arrivals_for_cycle(
      std::uint64_t cycle) const {
    lsa::common::Xoshiro256ss rng(s_.seed ^
                                  (0x5c4ed011u + cycle * 0x9e3779b97f4a7c15ull));
    const std::uint64_t now = now_for_cycle(cycle);
    std::vector<Arrival> out;
    out.reserve(s_.arrivals_per_cycle);
    std::vector<std::uint8_t> used(n_, 0);
    for (std::size_t k = 0; k < s_.arrivals_per_cycle; ++k) {
      std::size_t user;
      do {
        user = static_cast<std::size_t>(rng.next_below(n_));
      } while (used[user] != 0);
      used[user] = 1;
      const std::uint64_t tau =
          std::min(rng.next_below(s_.tau_max + 1), now);
      out.push_back(Arrival{user, now - tau,
                            lsa::field::uniform_vector<Fp>(d_, rng)});
    }
    return out;
  }

 private:
  ArrivalSchedule s_;
  std::size_t n_;
  std::size_t d_;
};

}  // namespace lsa::runtime

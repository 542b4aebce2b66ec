#include "fl/fedbuff.h"

#include <deque>
#include <optional>

#include "common/error.h"
#include "field/fp.h"
#include "quant/quantizer.h"
#include "runtime/async_machines.h"

namespace lsa::fl {

namespace {

using lsa::field::Fp32;
using rep = Fp32::rep;

struct Arrival {
  std::size_t user = 0;
  std::uint64_t born_round = 0;
  std::vector<double> delta;  ///< x(t_i) - x_i^(E)
};

}  // namespace

std::vector<RoundRecord> run_fedbuff(
    Model& global, const SyntheticDataset& data,
    const std::vector<std::vector<std::size_t>>& partitions,
    const FedBuffConfig& cfg) {
  const std::size_t n = partitions.size();
  const std::size_t d = global.dim();
  lsa::require<lsa::ConfigError>(n >= cfg.buffer_k && cfg.buffer_k >= 1,
                                 "fedbuff: need K <= N");
  lsa::common::Xoshiro256ss rng(cfg.seed);
  // Separate stream for quantization noise: secure and plaintext runs with
  // the same seed then share an identical arrival/staleness schedule, so
  // their curves differ only by quantization (the Fig. 7/11 comparison).
  lsa::common::Xoshiro256ss quant_rng(cfg.seed ^ 0x9e3779b97f4a7c15ull);

  // History of global models so arrivals can train from stale snapshots.
  std::deque<std::vector<double>> history;  // history[0] = newest
  history.push_front(global.params());

  // Secure mode: one async cohort of N devices and the buffering server.
  std::optional<lsa::runtime::AsyncNetwork> secure;
  lsa::quant::Quantizer<Fp32> quant(cfg.c_l);
  if (cfg.secure) {
    lsa::protocol::Params p;
    p.num_users = n;
    p.privacy = cfg.privacy_t == 0 ? std::max<std::size_t>(1, n / 10)
                                   : cfg.privacy_t;
    const std::size_t u = cfg.target_u == 0
                              ? std::max(p.privacy + 1, n - n / 5)
                              : cfg.target_u;
    p.dropout = n - u;
    p.target_survivors = u;
    p.model_dim = d;
    secure.emplace(p, cfg.buffer_k, cfg.staleness, cfg.c_g,
                   cfg.seed ^ 0xfedbull);
  }

  std::vector<RoundRecord> records;
  records.reserve(cfg.rounds);

  for (std::size_t round = 0; round < cfg.rounds; ++round) {
    // K distinct arrivals this round, each with its own staleness.
    std::vector<bool> used(n, false);
    std::vector<Arrival> arrivals;
    arrivals.reserve(cfg.buffer_k);
    for (std::size_t k = 0; k < cfg.buffer_k; ++k) {
      std::size_t user;
      do {
        user = static_cast<std::size_t>(rng.next_below(n));
      } while (used[user]);
      used[user] = true;
      const std::uint64_t tau =
          std::min<std::uint64_t>(rng.next_below(cfg.tau_max + 1), round);
      const std::uint64_t born = round - tau;

      // Train from the stale snapshot.
      auto local = global.clone();
      local->params() = history[tau];
      auto user_rng = rng.split();
      (void)local_sgd(*local, data.train(), partitions[user], cfg.sgd,
                      user_rng);
      Arrival a;
      a.user = user;
      a.born_round = born;
      a.delta.resize(d);
      for (std::size_t i = 0; i < d; ++i) {
        a.delta[i] = history[tau][i] - local->params()[i];
      }
      if (cfg.update_transform) cfg.update_transform(a.delta, a.user);
      arrivals.push_back(std::move(a));
    }

    // Server-side aggregation.
    std::vector<double> update(d, 0.0);
    if (!cfg.secure) {
      double weight_sum = 0.0;
      for (const auto& a : arrivals) {
        const double w = cfg.staleness.weight(round - a.born_round);
        weight_sum += w;
        for (std::size_t i = 0; i < d; ++i) update[i] += w * a.delta[i];
      }
      for (auto& v : update) v /= weight_sum;
    } else {
      // Quantize in arrival order, then one buffer cycle: timestamped
      // share exchange, masked uploads, one-shot weighted recovery.
      std::vector<lsa::runtime::Arrival> uploads;
      uploads.reserve(arrivals.size());
      for (const auto& a : arrivals) {
        uploads.push_back({a.user, a.born_round,
                           quant.quantize_vector(
                               std::span<const double>(a.delta), quant_rng)});
      }
      const auto out = secure->run_cycle(round, uploads);
      // Normalize by sum_i w_i: the c_g factor common to numerator and
      // denominator cancels, leaving the plaintext path's normalization up
      // to staleness quantization (eq. 37).
      quant.dequantize_vector_scaled(
          std::span<const rep>(out.weighted_sum), std::span<double>(update),
          static_cast<double>(out.weight_sum));
    }

    auto& p = global.params();
    for (std::size_t i = 0; i < d; ++i) p[i] -= cfg.eta_g * update[i];

    history.push_front(global.params());
    while (history.size() > cfg.tau_max + 1) history.pop_back();

    RoundRecord rec;
    rec.round = round;
    rec.train_loss = 0.0;
    if (round % cfg.eval_every == 0 || round + 1 == cfg.rounds) {
      rec.test_accuracy = accuracy(global, data.test());
    } else {
      rec.test_accuracy =
          records.empty() ? 0.0 : records.back().test_accuracy;
    }
    records.push_back(rec);
  }
  return records;
}

}  // namespace lsa::fl

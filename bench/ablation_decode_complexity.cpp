// Ablation — server decode kernels (paper §5.2, Table 5 "decoding
// complexity at server O(d U logU / (U-T))").
//
// The paper's decode-complexity row assumes *fast* polynomial interpolation.
// This bench runs the shipped kernels on the real C++ field arithmetic
// against a per-coordinate fast-decode baseline and locates the crossovers:
//
//   barycentric  O(U^2)       scalar + blocked lazy O(U d)  (GEMM default)
//   ntt          O(d U log^2 U / (U-T)) with per-coordinate Newton
//                inversions and allocations — a bench-local loop over
//                SubproductTree::interpolate / evaluate     (baseline)
//   batched-ntt  same complexity class, but the subproduct trees, Newton
//                inverses, twiddle/operand transforms are built once per
//                (xs, betas) plan and all coordinates stream through
//                (coding/decode_plan.h)                      (the plane)
//
// The per-coordinate baseline must decode to the barycentric GEMM's bits
// at every measured point (hard FAIL otherwise), so every speedup compares
// two correct decodes.
//
// Part 0 measures the 64-bit axpy kernel substrate itself: per-term
// Barrett/Mersenne/Goldilocks reduction vs Shoup precomputed-operand
// multiplies vs the shipped 3-limb lazy accumulation.
//
// Output: human tables on stdout plus a machine-readable BENCH_decode.json
// (bench_common.h::JsonReport) for the cross-PR perf trajectory and the CI
// regression gate. `--smoke` shrinks the sweep to one CI-sized point;
// `--json <path>` overrides the output file.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "coding/decode_plan.h"
#include "coding/mask_codec.h"
#include "coding/ntt.h"
#include "coding/poly.h"
#include "common/timer.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/simd/dispatch.h"
#include "field/simd/simd_policy.h"

namespace {

using F = lsa::field::Goldilocks;
using rep = F::rep;
using lsa::coding::DecodeStrategy;

struct DecodeInputs {
  std::vector<rep> xs;
  std::vector<rep> betas;
  std::vector<std::vector<rep>> shares;
  std::vector<const rep*> rows;
  std::size_t seg_len = 0;
};

DecodeInputs make_inputs(std::size_t u, std::size_t t, std::size_t d,
                         std::uint64_t seed) {
  DecodeInputs in;
  const std::size_t num_betas = u - t;
  in.seg_len = (d + num_betas - 1) / num_betas;
  in.xs.resize(u);
  in.betas.resize(num_betas);
  for (std::size_t k = 0; k < num_betas; ++k) {
    in.betas[k] = F::from_u64(1 + k);
  }
  for (std::size_t j = 0; j < u; ++j) {
    in.xs[j] = F::from_u64(u + 2 + j);
  }
  lsa::common::Xoshiro256ss rng(seed);
  in.shares.resize(u);
  in.rows.resize(u);
  for (std::size_t j = 0; j < u; ++j) {
    in.shares[j] = lsa::field::uniform_vector<F>(in.seg_len, rng);
    in.rows[j] = in.shares[j].data();
  }
  return in;
}

/// The per-coordinate baseline the batched plane replaces: per coordinate,
/// fast-interpolate g from the share column over a subproduct tree and
/// fast-evaluate it at the betas. The trees are shared read-only across
/// coordinates, but every coordinate re-runs the divrem Newton inversions
/// and re-allocates its intermediates.
std::vector<rep> percoord_decode(const DecodeInputs& in) {
  const std::size_t u = in.xs.size();
  const std::size_t nb = in.betas.size();
  lsa::coding::SubproductTree<F> share_tree{std::span<const rep>(in.xs)};
  lsa::coding::SubproductTree<F> beta_tree{std::span<const rep>(in.betas)};
  std::vector<rep> out(nb * in.seg_len);
  std::vector<rep> column(u);
  for (std::size_t l = 0; l < in.seg_len; ++l) {
    for (std::size_t j = 0; j < u; ++j) column[j] = in.rows[j][l];
    const auto vals = beta_tree.evaluate(share_tree.interpolate(column));
    for (std::size_t k = 0; k < nb; ++k) out[k * in.seg_len + l] = vals[k];
  }
  return out;
}

/// The GEMM decode as a caller without a plan cache pays it: barycentric
/// weights for a fresh plan, then the blocked GEMM.
std::vector<rep> barycentric_decode(const DecodeInputs& in) {
  lsa::coding::BatchedDecodePlan<F> plan{std::span<const rep>(in.xs),
                                         std::span<const rep>(in.betas)};
  return plan.run(DecodeStrategy::kBarycentric,
                  std::span<const rep* const>(in.rows), in.seg_len, {});
}

/// Mean seconds per call of `decode`, plus the last call's output.
struct TimedDecode {
  double s = 0.0;
  std::vector<rep> out;
};

template <class Decode>
TimedDecode time_decode(Decode&& decode, int reps) {
  TimedDecode t;
  lsa::common::Stopwatch sw;
  for (int r = 0; r < reps; ++r) t.out = decode();
  t.s = sw.elapsed_sec() / reps;
  return t;
}

/// Times the barycentric GEMM and the per-coordinate baseline at one point
/// and hard-FAILs (returns false) unless they decode to the same bits.
bool time_baseline_pair(const DecodeInputs& in, int reps, double& bary_s,
                        double& percoord_s) {
  const auto tb = time_decode([&] { return barycentric_decode(in); }, reps);
  const auto tn = time_decode([&] { return percoord_decode(in); }, reps);
  bary_s = tb.s;
  percoord_s = tn.s;
  if (tb.out == tn.out) return true;
  std::printf("FAIL: U=%zu U-T=%zu seg=%zu per-coordinate baseline "
              "disagrees with the barycentric decode\n",
              in.xs.size(), in.betas.size(), in.seg_len);
  return false;
}

/// Streaming time of a REUSED plan (setup excluded — the per-session
/// plan-cache steady state), plus the one-time setup cost.
struct PlanTiming {
  double setup_s = 0.0;
  double stream_s = 0.0;
};

PlanTiming time_plan(DecodeStrategy strategy, const DecodeInputs& in,
                     int reps) {
  lsa::coding::BatchedDecodePlan<F> plan{
      std::span<const rep>(in.xs), std::span<const rep>(in.betas)};
  std::span<const rep* const> rows(in.rows);
  // First run pays the lazy setup.
  auto out = plan.run(strategy, rows, in.seg_len, {});
  PlanTiming pt;
  pt.setup_s = plan.barycentric_setup_seconds() +
               plan.batched_setup_seconds();
  lsa::common::Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    out = plan.run(strategy, rows, in.seg_len, {});
    volatile auto sink = out[0];
    (void)sink;
  }
  pt.stream_s = sw.elapsed_sec() / reps;
  return pt;
}

/// Forces BOTH lazy components (barycentric weight matrix + batched
/// subproduct-tree plane) of a plan by running each strategy once, and
/// returns the total setup seconds those builds paid.
double force_setup(lsa::coding::BatchedDecodePlan<F>& plan,
                   const DecodeInputs& in) {
  std::span<const rep* const> rows(in.rows);
  auto out = plan.run(DecodeStrategy::kBarycentric, rows, in.seg_len, {});
  out = plan.run(DecodeStrategy::kBatchedNtt, rows, in.seg_len, {});
  volatile auto sink = out[0];
  (void)sink;
  return plan.barycentric_setup_seconds() + plan.batched_setup_seconds();
}

// ---- Part 0: the 64-bit axpy substrate (per-term reduction vs Shoup vs
// the shipped lazy kernel). ----
template <class Field>
void bench_axpy(const char* field_name, std::size_t u, std::size_t n,
                int reps, lsa::bench::JsonReport& json) {
  using frep = typename Field::rep;
  lsa::common::Xoshiro256ss rng(91);
  std::vector<frep> coeffs(u);
  std::vector<std::vector<frep>> rows(u);
  std::vector<const frep*> rp(u);
  for (auto& c : coeffs) c = lsa::field::uniform<Field>(rng);
  for (std::size_t k = 0; k < u; ++k) {
    rows[k] = lsa::field::uniform_vector<Field>(n, rng);
    rp[k] = rows[k].data();
  }
  std::vector<frep> acc(n, Field::zero);

  // Best-of-3 trials per kernel: single timings at this scale jitter by
  // >10% on shared machines, and the CI gate reads these numbers.
  const auto best_of = [&](auto&& body) {
    double best = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
      lsa::common::Stopwatch sw;
      for (int r = 0; r < reps; ++r) body();
      best = std::min(best, sw.elapsed_sec() / reps);
    }
    return best;
  };

  const double t_mul = best_of([&] {
    for (std::size_t k = 0; k < u; ++k) {
      for (std::size_t l = 0; l < n; ++l) {
        acc[l] = Field::add(acc[l], Field::mul(coeffs[k], rp[k][l]));
      }
    }
  });

  const auto shoup =
      lsa::field::shoup_precompute_vec<Field>(std::span<const frep>(coeffs));
  const double t_shoup = best_of([&] {
    lsa::field::axpy_accumulate_blocked_pre<Field>(
        std::span<frep>(acc), std::span<const frep>(coeffs),
        std::span<const frep>(shoup), std::span<const frep* const>(rp));
  });

  const double t_shipped = best_of([&] {
    lsa::field::axpy_accumulate_blocked<Field>(
        std::span<frep>(acc), std::span<const frep>(coeffs),
        std::span<const frep* const>(rp));
  });
  volatile frep sink = acc[0];
  (void)sink;

  std::printf("%-12s | %10.4f %10.4f %10.4f | %9.2fx %9.2fx\n", field_name,
              t_mul, t_shoup, t_shipped, t_mul / t_shoup, t_mul / t_shipped);
  json.add(std::string("axpy_") + field_name,
           {{"u", double(u)},
            {"n", double(n)},
            {"per_term_reduction_s", t_mul},
            {"shoup_s", t_shoup},
            {"shipped_s", t_shipped},
            {"shoup_speedup", t_mul / t_shoup},
            {"shipped_speedup", t_mul / t_shipped}});
}

// ---- Part 0b: the SIMD substrate — the same hot kernels under forced-
// scalar vs runtime-dispatched vector kernels (field/simd/dispatch.h).
// Speedups land in the "simd" JSON record and the CI gate floors the best
// one (check_decode_regression.py; skipped when the host has no vector
// ISA). ----

/// Best-of-5 timing of `body` (reps iterations each) under the policy.
template <class Body>
double time_under_policy(lsa::field::simd::SimdPolicy pol, int reps,
                         Body&& body) {
  lsa::field::simd::ScopedSimdPolicy guard(pol);
  double best = 1e300;
  for (int trial = 0; trial < 5; ++trial) {
    lsa::common::Stopwatch sw;
    for (int r = 0; r < reps; ++r) body();
    best = std::min(best, sw.elapsed_sec() / reps);
  }
  return best;
}

/// Scalar-vs-vector speedup of the fused axpy GEMM panel (the barycentric
/// decode's inner kernel: lazy192 on 64-bit fields, split-word on 32-bit).
template <class Field>
double simd_axpy_speedup(const char* field_name, std::size_t u,
                         std::size_t n, int reps,
                         lsa::bench::JsonReport& json) {
  namespace simd = lsa::field::simd;
  using frep = typename Field::rep;
  lsa::common::Xoshiro256ss rng(137);
  std::vector<frep> coeffs(u);
  std::vector<std::vector<frep>> rows(u);
  std::vector<const frep*> rp(u);
  for (auto& c : coeffs) c = lsa::field::uniform<Field>(rng);
  for (std::size_t k = 0; k < u; ++k) {
    rows[k] = lsa::field::uniform_vector<Field>(n, rng);
    rp[k] = rows[k].data();
  }
  std::vector<frep> acc(n, Field::zero);
  const auto run = [&] {
    lsa::field::axpy_accumulate_blocked<Field>(
        std::span<frep>(acc), std::span<const frep>(coeffs),
        std::span<const frep* const>(rp));
  };
  const double t_scalar =
      time_under_policy(simd::SimdPolicy::kForceScalar, reps, run);
  const double t_vec = time_under_policy(simd::SimdPolicy::kAuto, reps, run);
  volatile frep sink = acc[0];
  (void)sink;
  const double speedup = t_scalar / t_vec;
  std::printf("axpy %-11s | %10.4f %10.4f | %8.2fx\n", field_name, t_scalar,
              t_vec, speedup);
  json.add(std::string("simd_axpy_") + field_name,
           {{"u", double(u)},
            {"n", double(n)},
            {"scalar_s", t_scalar},
            {"simd_s", t_vec},
            {"speedup", speedup}});
  return speedup;
}

/// Scalar-vs-vector speedup of the plan-cached NTT butterfly stream.
double simd_ntt_speedup(unsigned log_n, int reps,
                        lsa::bench::JsonReport& json) {
  namespace simd = lsa::field::simd;
  lsa::coding::NttPlan<F> plan(log_n);
  lsa::common::Xoshiro256ss rng(139);
  const auto data = lsa::field::uniform_vector<F>(std::size_t{1} << log_n,
                                                  rng);
  auto buf = data;
  const auto run = [&] {
    std::copy(data.begin(), data.end(), buf.begin());
    plan.forward(std::span<rep>(buf));
  };
  const double t_scalar =
      time_under_policy(simd::SimdPolicy::kForceScalar, reps, run);
  const double t_vec = time_under_policy(simd::SimdPolicy::kAuto, reps, run);
  volatile rep sink = buf[0];
  (void)sink;
  const double speedup = t_scalar / t_vec;
  std::printf("ntt fwd 2^%-4u | %10.4f %10.4f | %8.2fx\n", log_n, t_scalar,
              t_vec, speedup);
  json.add("simd_ntt_forward",
           {{"log_n", double(log_n)},
            {"scalar_s", t_scalar},
            {"simd_s", t_vec},
            {"speedup", speedup}});
  return speedup;
}

/// Scalar-vs-vector speedup of the lazy192 dot GEMM panel — the base-node
/// matvec at the heart of the SoA decode stream (decode_plan.h's
/// matvec_soa): each row dots `terms` coefficients against a block of
/// kLaneBlock coordinate lanes, accumulating exactly in 192-bit limbs.
double simd_dot_speedup(std::size_t terms, std::size_t lanes,
                        std::size_t nrows, int reps,
                        lsa::bench::JsonReport& json) {
  namespace simd = lsa::field::simd;
  lsa::common::Xoshiro256ss rng(141);
  const auto mat = lsa::field::uniform_vector<F>(nrows * terms, rng);
  const auto x = lsa::field::uniform_vector<F>(terms * lanes, rng);
  std::vector<std::uint64_t> lo(nrows * lanes), mi(nrows * lanes),
      hi(nrows * lanes);
  const auto run = [&] {
    if (const auto* vk = simd::u64_active()) {
      for (std::size_t r = 0; r < nrows; ++r) {
        vk->lazy192_dot(lo.data() + r * lanes, mi.data() + r * lanes,
                        hi.data() + r * lanes, mat.data() + r * terms, 1,
                        x.data(), terms, lanes);
      }
    } else {
      // The same scalar fallback the decode plan uses when no vector
      // kernel table is active.
      for (std::size_t r = 0; r < nrows; ++r) {
        std::uint64_t* l = lo.data() + r * lanes;
        std::uint64_t* m = mi.data() + r * lanes;
        std::uint64_t* h = hi.data() + r * lanes;
        std::fill_n(l, lanes, 0);
        std::fill_n(m, lanes, 0);
        std::fill_n(h, lanes, 0);
        for (std::size_t c = 0; c < terms; ++c) {
          const auto b = mat[r * terms + c];
          for (std::size_t ln = 0; ln < lanes; ++ln) {
            lsa::field::lazy192_accumulate<F>(l[ln], m[ln], h[ln],
                                              x[c * lanes + ln], b);
          }
        }
      }
    }
  };
  const double t_scalar =
      time_under_policy(simd::SimdPolicy::kForceScalar, reps, run);
  const double t_vec = time_under_policy(simd::SimdPolicy::kAuto, reps, run);
  volatile std::uint64_t sink = lo[0];
  (void)sink;
  const double speedup = t_scalar / t_vec;
  std::printf("dot panel %3zux%zu | %10.4f %10.4f | %8.2fx\n", terms, lanes,
              t_scalar, t_vec, speedup);
  json.add("simd_dot_goldilocks",
           {{"terms", double(terms)},
            {"lanes", double(lanes)},
            {"rows", double(nrows)},
            {"scalar_s", t_scalar},
            {"simd_s", t_vec},
            {"speedup", speedup}});
  return speedup;
}

/// Scalar-vs-vector speedup of the SoA butterfly stream: forward_soa walks
/// kLaneBlock coordinate lanes through each butterfly together, exactly as
/// the batched decode plane streams them.
double simd_ntt_soa_speedup(unsigned log_n, std::size_t lanes, int reps,
                            lsa::bench::JsonReport& json) {
  namespace simd = lsa::field::simd;
  lsa::coding::NttPlan<F> plan(log_n);
  lsa::common::Xoshiro256ss rng(143);
  const auto data = lsa::field::uniform_vector<F>(
      (std::size_t{1} << log_n) * lanes, rng);
  auto buf = data;
  const auto run = [&] {
    std::copy(data.begin(), data.end(), buf.begin());
    plan.forward_soa(std::span<rep>(buf), lanes);
  };
  const double t_scalar =
      time_under_policy(simd::SimdPolicy::kForceScalar, reps, run);
  const double t_vec = time_under_policy(simd::SimdPolicy::kAuto, reps, run);
  volatile rep sink = buf[0];
  (void)sink;
  const double speedup = t_scalar / t_vec;
  std::printf("ntt soa 2^%-2ux%zu | %10.4f %10.4f | %8.2fx\n", log_n, lanes,
              t_scalar, t_vec, speedup);
  json.add("simd_ntt_soa",
           {{"log_n", double(log_n)},
            {"lanes", double(lanes)},
            {"scalar_s", t_scalar},
            {"simd_s", t_vec},
            {"speedup", speedup}});
  return speedup;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lsa::bench;
  bool smoke = false;
  std::string json_path = "BENCH_decode.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    }
  }
  JsonReport json("decode");

  print_header(
      "Ablation — aggregate-decode kernels (Goldilocks field, real kernels)\n"
      "barycentric = lazy GEMM (practical default); ntt = per-coordinate\n"
      "fast-decode baseline; batched = plan-cached decode plane (the\n"
      "paper's O(U log U) class with setup amortized)");

  std::printf(
      "\nPart 0 — 64-bit axpy substrate, U=128 rows x 32k reps:\n"
      "per-term reduction (Barrett/Mersenne/Goldilocks) vs Shoup\n"
      "precomputed-operand vs the SHIPPED kernel (3-limb lazy\n"
      "accumulation, or Shoup where it measures fastest — Mersenne)\n");
  std::printf("%-12s | %10s %10s %10s | %9s %9s\n", "field", "per-term(s)",
              "shoup(s)", "shipped(s)", "shoup", "shipped");
  {
    const std::size_t an = smoke ? (1u << 13) : (1u << 15);
    const int areps = smoke ? 3 : 10;
    bench_axpy<lsa::field::Goldilocks>("goldilocks", 128, an, areps, json);
    bench_axpy<lsa::field::Fp61>("fp61", 128, an, areps, json);
  }

  {
    namespace simd = lsa::field::simd;
    std::printf(
        "\nPart 0b — SIMD substrate (dispatch: %s, %zu-byte vectors):\n"
        "forced-scalar vs runtime-dispatched vector kernels on the decode\n"
        "plane's hot loops.\n",
        simd::level_name(simd::detected_level()),
        simd::vector_bytes(simd::detected_level()));
    std::printf("%-14s | %10s %10s | %9s\n", "kernel", "scalar(s)",
                "simd(s)", "speedup");
    // Cache-resident shapes: the fused axpy panel streams 128 rows of 4k
    // reps (~4 MB for 64-bit fields, L2/L3-resident across trials) so the
    // measurement is compute-bound like the decode plane's per-segment
    // panels, not DRAM-bandwidth-bound like a one-shot sweep.
    const std::size_t an = 1u << 12;
    const int areps = smoke ? 30 : 100;
    double best = 0.0;
    best = std::max(best, simd_axpy_speedup<lsa::field::Goldilocks>(
                              "goldilocks", 128, an, areps, json));
    best = std::max(best, simd_axpy_speedup<lsa::field::Fp61>(
                              "fp61", 128, an, areps, json));
    best = std::max(best, simd_axpy_speedup<lsa::field::Fp32>(
                              "fp32", 128, an, areps, json));
    best = std::max(best, simd_ntt_speedup(12, smoke ? 30 : 100, json));
    best = std::max(best,
                    simd_dot_speedup(32, 8, 512, smoke ? 100 : 400, json));
    best = std::max(best, simd_ntt_soa_speedup(10, 8, smoke ? 40 : 150,
                                               json));
    std::printf("best kernel speedup: %.2fx\n", best);
    json.add("simd",
             {{"vector_bytes",
               double(simd::vector_bytes(simd::detected_level()))},
              {"best_kernel_speedup", best}},
             {{"isa", std::string(simd::level_name(simd::detected_level()))}});
  }

  std::printf(
      "\nPart 1 — U sweep at T = U/2 (paper's privacy point), d = %s\n",
      smoke ? "2^17 (smoke)" : "2^17");
  std::printf("%-6s %-6s %-6s | %10s %10s %10s %10s | %9s %9s\n", "U",
              "U-T", "seg", "bary(s)", "ntt(s)", "batch(s)", "setup(s)",
              "ntt/batch", "bary/batch");
  const std::size_t d = 1u << 17;
  double min_batched_speedup = 1e300;
  const std::vector<std::size_t> us =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{64, 128, 256, 512, 1024};
  for (const std::size_t u : us) {
    const std::size_t t = u / 2;
    const auto in = make_inputs(u, t, d, 17 + u);
    const int reps = smoke ? 1 : (u <= 256 ? 3 : 1);
    double tb = 0.0, tn = 0.0;
    if (!time_baseline_pair(in, reps, tb, tn)) return 1;
    const auto pb = time_plan(DecodeStrategy::kBatchedNtt, in, reps);
    const double speedup = tn / pb.stream_s;
    if (in.seg_len >= 4096) {
      min_batched_speedup = std::min(min_batched_speedup, speedup);
    }
    std::printf(
        "%-6zu %-6zu %-6zu | %10.4f %10.4f %10.4f %10.4f | %8.2fx %8.2fx\n",
        u, u - t, in.seg_len, tb, tn, pb.stream_s, pb.setup_s, speedup,
        tb / pb.stream_s);
    json.add("sweep_u" + std::to_string(u),
             {{"u", double(u)},
              {"num_betas", double(u - t)},
              {"seg_len", double(in.seg_len)},
              {"barycentric_s", tb},
              {"ntt_percoord_s", tn},
              {"batched_stream_s", pb.stream_s},
              {"batched_setup_s", pb.setup_s},
              {"batched_vs_ntt_speedup", speedup}});
  }
  json.add("summary", {{"min_batched_vs_ntt_speedup_seg4096plus",
                        min_batched_speedup}});

  if (!smoke) {
    std::printf(
        "\nPart 2 — U-T sweep at U = 512, d = 2^13: the batched kernel's\n"
        "cost is ~flat in U-T while the GEMM's grows linearly — the kAuto\n"
        "crossover (decode_plan.h::resolve) comes from this table.\n");
    std::printf("%-6s %-6s %-6s | %10s %10s %10s | %9s | %s\n", "U", "U-T",
                "seg", "bary(s)", "ntt(s)", "batch(s)", "bary/batch",
                "kAuto picks");
    for (const std::size_t num_seg : {64u, 128u, 256u, 384u}) {
      const std::size_t u = 512;
      const std::size_t t = u - num_seg;
      const auto in = make_inputs(u, t, 1u << 13, 31 + num_seg);
      double tb = 0.0, tn = 0.0;
      if (!time_baseline_pair(in, 1, tb, tn)) return 1;
      const auto pb = time_plan(DecodeStrategy::kBatchedNtt, in, 1);
      lsa::coding::BatchedDecodePlan<F> probe{
          std::span<const rep>(in.xs), std::span<const rep>(in.betas)};
      const auto picked = probe.resolve(DecodeStrategy::kAuto);
      std::printf("%-6zu %-6zu %-6zu | %10.4f %10.4f %10.4f | %8.2fx | %s\n",
                  u, num_seg, in.seg_len, tb, tn, pb.stream_s,
                  tb / pb.stream_s, lsa::coding::to_string(picked));
      json.add("seg_sweep_nb" + std::to_string(num_seg),
               {{"u", double(u)},
                {"num_betas", double(num_seg)},
                {"seg_len", double(in.seg_len)},
                {"barycentric_s", tb},
                {"ntt_percoord_s", tn},
                {"batched_stream_s", pb.stream_s},
                {"auto_picks_batched",
                 picked == DecodeStrategy::kBatchedNtt ? 1.0 : 0.0}});
    }
  }

  // ---- Part 3: plan maintenance — full rebuild vs incremental patch,
  // swept over churn. A steady cohort's survivor set churns by a few
  // points between rounds; the per-session plan cache
  // (coding/mask_codec.h) patches the cached plan
  // (BatchedDecodePlan::patched_from — one-point barycentric weight
  // identities plus the dirtied root-to-leaf subproduct-tree paths)
  // instead of rebuilding it whenever the churn is at most
  // MaskCodec::kMaxPatchChurn. Patch cost is ~linear in churn, rebuild is
  // flat — this sweep records the crossover that sets the bound (speedup
  // ~20/churn, break-even near churn ~20; churn 8 keeps >= 2.7x at every
  // U, hence kMaxPatchChurn = 8). The patched plan is pinned
  // bit-identical to a from-scratch build at churn 2 and at the churn-8
  // bound (hard FAIL on mismatch). U = 512 stays in the smoke sweep: the
  // CI gate floors the churn-2 and churn-8 speedups at U >= 512
  // (decode_tolerance.json).
  std::printf(
      "\nPart 3 — plan maintenance at T = U/2: full setup rebuild vs\n"
      "patched_from across churn (both components, best of 3)\n");
  std::printf("%-6s | %10s | %-40s\n", "U", "build(s)",
              "rebuild/patch speedup by churn");
  double min_patch_speedup = 1e300;
  double min_patch8_speedup = 1e300;
  {
    using Plan = lsa::coding::BatchedDecodePlan<F>;
    using Repl = Plan::PointReplacement;
    const std::vector<std::size_t> pus =
        smoke ? std::vector<std::size_t>{512}
              : std::vector<std::size_t>{64, 256, 512, 1024};
    // Churns past the codec bound (12, 16) document the tail of the
    // crossover curve in the full run; the smoke sweep stops at the
    // bound itself.
    const std::vector<std::size_t> churns =
        smoke ? std::vector<std::size_t>{1, 2, 4, 8}
              : std::vector<std::size_t>{1, 2, 4, 8, 12, 16};
    for (const std::size_t u : pus) {
      const std::size_t t = u / 2;
      const auto in = make_inputs(u, t, 1u << 12, 47 + u);
      const int trials = 3;
      double build_s = 1e300;
      std::shared_ptr<Plan> base;
      for (int tr = 0; tr < trials; ++tr) {
        auto fresh = std::make_shared<Plan>(std::span<const rep>(in.xs),
                                            std::span<const rep>(in.betas));
        build_s = std::min(build_s, force_setup(*fresh, in));
        base = std::move(fresh);
      }
      // Replacement points spread across the leaf range; values clear of
      // the xs range [u+2, 2u+2) and the betas [1, u-t].
      auto replacements = [&](std::size_t churn) {
        std::vector<Repl> out;
        out.reserve(churn);
        for (std::size_t k = 0; k < churn; ++k) {
          out.push_back(
              {(k * u) / churn, F::from_u64(4 * u + 11 + k)});
        }
        return out;
      };
      std::vector<std::pair<std::string, double>> rec{
          {"u", double(u)},
          {"num_betas", double(u - t)},
          {"full_build_s", build_s}};
      std::string row;
      for (const std::size_t churn : churns) {
        if (churn > u / 2) continue;
        const auto repl = replacements(churn);
        double patch_s = 1e300;
        std::shared_ptr<Plan> patched;
        for (int tr = 0; tr < trials; ++tr) {
          lsa::common::Stopwatch sw;
          patched = Plan::patched_from(*base, std::span<const Repl>(repl));
          patch_s = std::min(patch_s, sw.elapsed_sec());
        }
        // Bit-identity at churn 2 and at the kMaxPatchChurn bound: the
        // patched plan must stream exactly the bits a from-scratch plan
        // over the patched points does.
        if (churn == 2 ||
            churn == lsa::coding::MaskCodec<F>::kMaxPatchChurn) {
          auto xs2 = in.xs;
          for (const auto& r : repl) xs2[r.pos] = r.value;
          Plan fresh2{std::span<const rep>(xs2),
                      std::span<const rep>(in.betas)};
          std::span<const rep* const> rows(in.rows);
          for (const auto s :
               {DecodeStrategy::kBarycentric, DecodeStrategy::kBatchedNtt}) {
            if (patched->run(s, rows, in.seg_len, {}) !=
                fresh2.run(s, rows, in.seg_len, {})) {
              std::printf("FAIL: U=%zu churn-%zu patched plan is not "
                          "bit-identical to a fresh build (%s)\n",
                          u, churn, lsa::coding::to_string(s));
              return 1;
            }
          }
        }
        const double speedup = build_s / patch_s;
        const std::string c = std::to_string(churn);
        rec.emplace_back("patch" + c + "_s", patch_s);
        rec.emplace_back("patch" + c + "_vs_rebuild_speedup", speedup);
        rec.emplace_back("patched_nodes_c" + c,
                         double(patched->patched_nodes()));
        if (churn == 2) {
          // Legacy field name the regression gate reads.
          rec.emplace_back("patched_nodes", double(patched->patched_nodes()));
          if (u >= 512) {
            min_patch_speedup = std::min(min_patch_speedup, speedup);
          }
        }
        if (churn == 8 && u >= 512) {
          min_patch8_speedup = std::min(min_patch8_speedup, speedup);
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, " c%zu=%.1fx", churn, speedup);
        row += buf;
      }
      std::printf("%-6zu | %10.5f |%s\n", u, build_s, row.c_str());
      json.add("plan_patch_u" + std::to_string(u), rec);
    }
  }
  // Steady-state proxy through the codec's plan cache: ten decodes of the
  // SAME survivor set must pay exactly one full plan build — the
  // zero-setup invariant persistent cohorts rely on (plan builds track
  // cohort epochs, not rounds).
  std::uint64_t steady_builds = 0, steady_patches = 0;
  {
    const std::size_t cu = 64, ct = cu / 2, cd = 1u << 10;
    lsa::coding::MaskCodec<F> codec(cu + 4, cu, ct, cd);
    const std::size_t seg = (cd + (cu - ct) - 1) / (cu - ct);
    lsa::common::Xoshiro256ss rng(53);
    std::vector<std::vector<rep>> shares(cu);
    std::vector<const rep*> rows(cu);
    std::vector<std::size_t> owners(cu);
    for (std::size_t j = 0; j < cu; ++j) {
      shares[j] = lsa::field::uniform_vector<F>(seg, rng);
      rows[j] = shares[j].data();
      owners[j] = j;
    }
    for (int r = 0; r < 10; ++r) {
      const auto out = codec.decode_aggregate_rows(
          std::span<const std::size_t>(owners),
          std::span<const rep* const>(rows), {},
          DecodeStrategy::kBatchedNtt);
      volatile auto sink = out[0];
      (void)sink;
    }
    const auto st = codec.last_decode_stats();
    steady_builds = st.full_builds;
    steady_patches = st.incremental_patches;
    std::printf("steady state: 10 same-set decodes -> %llu full builds, "
                "%llu patches (plan builds track epochs, not rounds)\n",
                static_cast<unsigned long long>(steady_builds),
                static_cast<unsigned long long>(steady_patches));
    if (steady_builds != 1 || steady_patches != 0 || !st.plan_reused) {
      std::printf("FAIL: steady-state decode re-ran plan setup\n");
      return 1;
    }
  }
  json.add("plan_maintenance",
           {{"min_patch_vs_rebuild_speedup", min_patch_speedup},
            {"min_patch8_vs_rebuild_speedup", min_patch8_speedup},
            {"max_patch_churn", double(lsa::coding::MaskCodec<F>::kMaxPatchChurn)},
            {"steady_state_decodes", 10.0},
            {"steady_state_full_builds", double(steady_builds)},
            {"steady_state_incremental_patches", double(steady_patches)}});

  std::printf(
      "\nReading: the batched plane holds a constant-factor win over the\n"
      "per-coordinate fast path everywhere (precomputed Newton inverses,\n"
      "cached operand transforms, no per-coordinate allocation). Against\n"
      "the lazy GEMM its asymptotic edge needs U-T > ~4.5 log2(U)^2 —\n"
      "thousands-of-users cohorts at the paper's T = U/2 point — which is\n"
      "exactly what DecodeStrategy::kAuto encodes.\n");
  json.write(json_path);
  return 0;
}

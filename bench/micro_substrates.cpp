// Micro-benchmarks of the substrate kernels (google-benchmark).
//
// These are the per-element costs that CostModel::calibrate() feeds into
// the timing simulation — run this binary to see what the simulator sees.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <string>

#include "coding/mask_codec.h"
#include "coding/ntt.h"
#include "coding/poly.h"
#include "common/rng.h"
#include "crypto/chacha20.h"
#include "crypto/key_agreement.h"
#include "crypto/prg.h"
#include "crypto/shamir.h"
#include "field/field_vec.h"
#include "field/flat_matrix.h"
#include "field/fp.h"
#include "field/goldilocks.h"
#include "field/random_field.h"
#include "field/simd/dispatch.h"
#include "field/simd/simd_policy.h"
#include "quant/quantizer.h"
#include "runtime/wire.h"
#include "sys/exec_policy.h"
#include "sys/thread_pool.h"

namespace {

using lsa::field::Fp32;
using lsa::field::Fp61;
using lsa::field::Goldilocks;
using rep32 = Fp32::rep;
using repg = Goldilocks::rep;

template <class F>
void BM_FieldMul(benchmark::State& state) {
  lsa::common::Xoshiro256ss rng(1);
  auto a = lsa::field::uniform<F>(rng);
  auto b = lsa::field::uniform<F>(rng);
  for (auto _ : state) {
    a = F::mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul<Fp32>);
BENCHMARK(BM_FieldMul<Fp61>);
BENCHMARK(BM_FieldMul<Goldilocks>);  // branch-light reduction vs % above

void BM_NttForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lsa::common::Xoshiro256ss rng(9);
  auto a = lsa::field::uniform_vector<Goldilocks>(n, rng);
  for (auto _ : state) {
    lsa::coding::ntt_inplace<Goldilocks>(std::span<repg>(a));
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NttForward)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_PolymulNttVsSchoolbook(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool use_ntt = state.range(1) != 0;
  lsa::common::Xoshiro256ss rng(10);
  const auto a = lsa::field::uniform_vector<Goldilocks>(n, rng);
  const auto b = lsa::field::uniform_vector<Goldilocks>(n, rng);
  for (auto _ : state) {
    auto p = use_ntt
                 ? lsa::coding::polymul_ntt<Goldilocks>(
                       std::span<const repg>(a), std::span<const repg>(b))
                 : lsa::coding::polymul_schoolbook<Goldilocks>(
                       std::span<const repg>(a), std::span<const repg>(b));
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_PolymulNttVsSchoolbook)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({4096, 1});

void BM_FastInterpolation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lsa::common::Xoshiro256ss rng(11);
  std::vector<repg> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = Goldilocks::from_u64(i + 1);
  const auto ys = lsa::field::uniform_vector<Goldilocks>(n, rng);
  lsa::coding::SubproductTree<Goldilocks> tree{std::span<const repg>(xs)};
  for (auto _ : state) {
    auto f = tree.interpolate(std::span<const repg>(ys));
    benchmark::DoNotOptimize(f.data());
  }
}
BENCHMARK(BM_FastInterpolation)->Arg(64)->Arg(256)->Arg(1024);

void BM_FieldAddVec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lsa::common::Xoshiro256ss rng(2);
  auto a = lsa::field::uniform_vector<Fp32>(n, rng);
  auto b = lsa::field::uniform_vector<Fp32>(n, rng);
  for (auto _ : state) {
    lsa::field::add_inplace<Fp32>(std::span<rep32>(a),
                                  std::span<const rep32>(b));
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FieldAddVec)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_FieldAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lsa::common::Xoshiro256ss rng(3);
  auto a = lsa::field::uniform_vector<Fp32>(n, rng);
  auto b = lsa::field::uniform_vector<Fp32>(n, rng);
  for (auto _ : state) {
    lsa::field::axpy_inplace<Fp32>(std::span<rep32>(a), 12345u,
                                   std::span<const rep32>(b));
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FieldAxpy)->Arg(1 << 16)->Arg(1 << 20);

void BM_ChaCha20Block(benchmark::State& state) {
  lsa::crypto::ChaChaKey key{};
  lsa::crypto::ChaChaNonce nonce{};
  std::array<std::uint8_t, 64> out;
  std::uint32_t ctr = 0;
  for (auto _ : state) {
    lsa::crypto::chacha20_block(key, ctr++, nonce, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ChaCha20Block);

// The mask PRG at the workloads' d (MNIST 7,850, FEMNIST 1,206,590): the
// multi-block keystream and the vector sampler vs the scalar block loop
// and sampler (selected ISA in the simd_isa context key).
template <bool ForceScalar>
void BM_PrgExpandFieldElems(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<rep32> v(n);
  const lsa::field::simd::ScopedSimdPolicy guard(
      ForceScalar ? lsa::field::simd::SimdPolicy::kForceScalar
                  : lsa::field::simd::SimdPolicy::kAuto);
  for (auto _ : state) {
    lsa::crypto::Prg prg(lsa::crypto::seed_from_u64(7));
    lsa::field::fill_uniform<Fp32>(std::span<rep32>(v), prg);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
void BM_PrgExpandFieldElems_Scalar(benchmark::State& state) {
  BM_PrgExpandFieldElems<true>(state);
}
void BM_PrgExpandFieldElems_Dispatched(benchmark::State& state) {
  BM_PrgExpandFieldElems<false>(state);
}
BENCHMARK(BM_PrgExpandFieldElems_Scalar)->Arg(7850)->Arg(1206590);
BENCHMARK(BM_PrgExpandFieldElems_Dispatched)->Arg(7850)->Arg(1206590);

// The wire CRC at the workloads' payload sizes (mnist-n200-p10 share,
// tcp-mnist-n4 share, femnist-n50-p30-persistent share, FEMNIST upload):
// the carry-less-multiply fold vs slice-by-8. The payload starts at byte 28
// of its buffer, as it does in a frame.
template <bool ForceScalar>
void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> frame(lsa::runtime::kHeaderBytes + n);
  lsa::common::Xoshiro256ss rng(28);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::span<const std::uint8_t> payload(
      frame.data() + lsa::runtime::kHeaderBytes, n);
  const lsa::field::simd::ScopedSimdPolicy guard(
      ForceScalar ? lsa::field::simd::SimdPolicy::kForceScalar
                  : lsa::field::simd::SimdPolicy::kAuto);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsa::runtime::crc32(payload));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
void BM_Crc32_Scalar(benchmark::State& state) { BM_Crc32<true>(state); }
void BM_Crc32_Dispatched(benchmark::State& state) { BM_Crc32<false>(state); }
BENCHMARK(BM_Crc32_Scalar)->Arg(788)->Arg(15700)->Arg(482636)->Arg(4826360);
BENCHMARK(BM_Crc32_Dispatched)
    ->Arg(788)
    ->Arg(15700)
    ->Arg(482636)
    ->Arg(4826360);

void BM_DhKeyAgreement(benchmark::State& state) {
  const auto kp = lsa::crypto::generate_keypair(lsa::crypto::seed_from_u64(1));
  const auto other =
      lsa::crypto::generate_keypair(lsa::crypto::seed_from_u64(2));
  for (auto _ : state) {
    auto s = lsa::crypto::shared_secret(kp.secret, other.public_key);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_DhKeyAgreement);

void BM_ShamirShare(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 2 * t + 1;
  lsa::common::Xoshiro256ss rng(4);
  lsa::crypto::ShamirScheme<Fp32> scheme(t, n);
  auto secret = lsa::field::uniform_vector<Fp32>(11, rng);
  for (auto _ : state) {
    auto shares = scheme.share(std::span<const rep32>(secret), rng);
    benchmark::DoNotOptimize(shares.data());
  }
}
BENCHMARK(BM_ShamirShare)->Arg(8)->Arg(32)->Arg(100);

void BM_ShamirReconstruct(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 2 * t + 1;
  lsa::common::Xoshiro256ss rng(5);
  lsa::crypto::ShamirScheme<Fp32> scheme(t, n);
  auto secret = lsa::field::uniform_vector<Fp32>(11, rng);
  auto shares = scheme.share(std::span<const rep32>(secret), rng);
  shares.resize(t + 1);
  for (auto _ : state) {
    auto rec = scheme.reconstruct(shares);
    benchmark::DoNotOptimize(rec.data());
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(8)->Arg(32)->Arg(100);

void BM_MaskEncode(benchmark::State& state) {
  // Paper-scale ratios: U = 0.7N, T = 0.5N.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t u = 7 * n / 10, t = n / 2;
  const std::size_t d = 1 << 14;
  lsa::common::Xoshiro256ss rng(6);
  lsa::coding::MaskCodec<Fp32> codec(n, u, t, d);
  auto mask = lsa::field::uniform_vector<Fp32>(d, rng);
  lsa::field::FlatMatrix<Fp32> shares(n, codec.segment_len());
  for (auto _ : state) {
    codec.encode_into(std::span<const rep32>(mask), rng, shares);
    benchmark::DoNotOptimize(shares.flat().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d));
}
BENCHMARK(BM_MaskEncode)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_MaskDecodeAggregate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t u = 7 * n / 10, t = n / 2;
  const std::size_t d = 1 << 14;
  lsa::common::Xoshiro256ss rng(7);
  lsa::coding::MaskCodec<Fp32> codec(n, u, t, d);
  auto mask = lsa::field::uniform_vector<Fp32>(d, rng);
  lsa::field::FlatMatrix<Fp32> shares(n, codec.segment_len());
  codec.encode_into(std::span<const rep32>(mask), rng, shares);
  // Owners 0..U-1 respond; their rows are read in place.
  std::vector<std::size_t> owners(u);
  std::vector<const rep32*> rows(u);
  for (std::size_t j = 0; j < u; ++j) {
    owners[j] = j;
    rows[j] = shares.row_ptr(j);
  }
  for (auto _ : state) {
    auto out = codec.decode_aggregate_rows(owners, rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d));
}
BENCHMARK(BM_MaskDecodeAggregate)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

// ---------------------------------------------------------------------------
// Flat-arena engine vs the seed's nested-vector serial path.
//
// The "Seed*" benchmarks reproduce the seed implementation faithfully:
//   * field multiplication via the generic `%` reduction
//     (PrimeField::mul_reference — exactly the seed's mul),
//   * per-user nested vector<vector> share storage,
//   * one modular reduction per term in the encode/decode inner loops.
// The "Flat*" benchmarks run the current engine: Barrett reduction, one
// FlatMatrix arena, fused split-word accumulation kernels, optionally a
// 4-thread pool. Run with --benchmark_format=json to feed the perf
// trajectory; the headline ratio is
//   BM_EncodeDecode_SeedNestedSerial/100/102400 over
//   BM_EncodeDecode_FlatPool4/100/102400.

/// The seed's field: identical layout/constants to PrimeField<Q>, but with
/// the `%`-based product reduction the seed shipped.
template <std::uint64_t Q>
struct SeedRefField {
  using Fast = lsa::field::PrimeField<Q>;
  using rep = typename Fast::rep;
  static constexpr std::uint64_t modulus = Q;
  static constexpr rep zero = 0;
  static constexpr rep one = 1;
  static constexpr std::size_t element_bytes = sizeof(rep);
  static constexpr rep add(rep a, rep b) { return Fast::add(a, b); }
  static constexpr rep sub(rep a, rep b) { return Fast::sub(a, b); }
  static constexpr rep neg(rep a) { return Fast::neg(a); }
  static constexpr rep mul(rep a, rep b) { return Fast::mul_reference(a, b); }
  static constexpr rep pow(rep a, std::uint64_t e) { return Fast::pow(a, e); }
  static rep inv(rep a) { return Fast::inv(a); }
  static constexpr rep from_u64(std::uint64_t v) { return Fast::from_u64(v); }
};
using Fp32Seed = SeedRefField<4294967291ull>;

/// Seed-shape encode: nested segment vectors, one share vector per user,
/// per-term mul/add axpy (the seed's encode_segments loop).
template <class F>
std::vector<std::vector<typename F::rep>> seed_encode(
    std::size_t n, std::size_t u, std::size_t t, std::size_t d,
    std::size_t seg, const std::vector<std::vector<typename F::rep>>& w_cols,
    std::span<const typename F::rep> mask, lsa::common::Xoshiro256ss& rng) {
  using rep = typename F::rep;
  std::vector<std::vector<rep>> segments;
  segments.reserve(u);
  for (std::size_t k = 0; k < u - t; ++k) {
    std::vector<rep> s(seg, F::zero);
    const std::size_t off = k * seg;
    const std::size_t m = std::min(seg, d - std::min(d, off));
    for (std::size_t l = 0; l < m; ++l) s[l] = mask[off + l];
    segments.push_back(std::move(s));
  }
  for (std::size_t k = 0; k < t; ++k) {
    segments.push_back(lsa::field::uniform_vector<F>(seg, rng));
  }
  std::vector<std::vector<rep>> shares(n);
  for (std::size_t j = 0; j < n; ++j) {
    shares[j].assign(seg, F::zero);
    for (std::size_t k = 0; k < u; ++k) {
      const rep c = w_cols[j][k];
      const rep* src = segments[k].data();
      rep* dst = shares[j].data();
      for (std::size_t l = 0; l < seg; ++l) {
        dst[l] = F::add(dst[l], F::mul(c, src[l]));
      }
    }
  }
  return shares;
}

/// Seed-shape one-shot decode: barycentric weights + the seed's blocked
/// per-term GEMM (kBlock = 2048, one reduction per term).
template <class F>
std::vector<typename F::rep> seed_decode(
    std::size_t u, std::size_t t, std::size_t d, std::size_t seg,
    std::span<const typename F::rep> xs,
    std::span<const typename F::rep> betas,
    const std::vector<std::vector<typename F::rep>>& shares) {
  using rep = typename F::rep;
  const auto w = lsa::coding::barycentric_weights<F>(xs, betas.first(u - t));
  constexpr std::size_t kBlock = 2048;
  std::vector<rep> out((u - t) * seg, F::zero);
  for (std::size_t l0 = 0; l0 < seg; l0 += kBlock) {
    const std::size_t l1 = std::min(l0 + kBlock, seg);
    for (std::size_t k = 0; k < u - t; ++k) {
      rep* dst = out.data() + k * seg;
      for (std::size_t j = 0; j < u; ++j) {
        const rep wkj = w(k, j);
        if (wkj == F::zero) continue;
        const rep* src = shares[j].data();
        for (std::size_t l = l0; l < l1; ++l) {
          dst[l] = F::add(dst[l], F::mul(wkj, src[l]));
        }
      }
    }
  }
  out.resize(d);
  return out;
}

/// Shared shapes for the per-user encode + server decode pipeline at the
/// paper's ratios U = 0.7N, T = 0.5N.
struct PipelineShape {
  std::size_t n, u, t, d, seg;
  explicit PipelineShape(const benchmark::State& state)
      : n(static_cast<std::size_t>(state.range(0))),
        u(7 * n / 10),
        t(n / 2),
        d(static_cast<std::size_t>(state.range(1))),
        seg((d + (u - t) - 1) / (u - t)) {}
};

void BM_EncodeDecode_SeedNestedSerial(benchmark::State& state) {
  using F = Fp32Seed;
  const PipelineShape s(state);
  lsa::common::Xoshiro256ss rng(12);
  // The encoding matrix is identical math; reuse the codec's columns.
  lsa::coding::MaskCodec<Fp32> codec(s.n, s.u, s.t, s.d);
  std::vector<std::vector<F::rep>> w_cols(s.n);
  std::vector<F::rep> xs(s.u), betas(s.u);
  for (std::size_t j = 0; j < s.n; ++j) {
    const auto col = codec.encoding_column(j);
    w_cols[j].assign(col.begin(), col.end());
  }
  for (std::size_t k = 0; k < s.u; ++k) {
    betas[k] = static_cast<F::rep>(k + 1);
    xs[k] = static_cast<F::rep>(s.u + 1 + k);  // owners 0..U-1
  }
  const auto mask = lsa::field::uniform_vector<F>(s.d, rng);
  for (auto _ : state) {
    auto shares = seed_encode<F>(s.n, s.u, s.t, s.d, s.seg, w_cols,
                                 std::span<const F::rep>(mask), rng);
    shares.resize(s.u);
    auto out = seed_decode<F>(s.u, s.t, s.d, s.seg,
                              std::span<const F::rep>(xs),
                              std::span<const F::rep>(betas), shares);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.d));
}
BENCHMARK(BM_EncodeDecode_SeedNestedSerial)
    ->Args({100, 100 * 1024})
    ->Args({100, 1 << 14})
    ->Unit(benchmark::kMillisecond);

template <int NumThreads>
void BM_EncodeDecode_Flat(benchmark::State& state) {
  using F = Fp32;
  const PipelineShape s(state);
  lsa::common::Xoshiro256ss rng(12);
  lsa::coding::MaskCodec<F> codec(s.n, s.u, s.t, s.d);
  std::optional<lsa::sys::ThreadPool> pool;
  lsa::sys::ExecPolicy pol{};
  if (NumThreads > 1) {
    pool.emplace(NumThreads);
    pol.pool = &*pool;
  }
  const auto mask = lsa::field::uniform_vector<F>(s.d, rng);
  std::vector<std::size_t> owners(s.u);
  for (std::size_t j = 0; j < s.u; ++j) owners[j] = j;
  lsa::field::FlatMatrix<F> arena(s.n, s.seg);
  std::vector<const rep32*> rows(s.u);
  for (auto _ : state) {
    codec.encode_into(std::span<const rep32>(mask), rng, arena, 0, 1,
                      pol.chunk_reps);
    for (std::size_t j = 0; j < s.u; ++j) rows[j] = arena.row_ptr(j);
    auto out = codec.decode_aggregate_rows(
        owners, std::span<const rep32* const>(rows), pol);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.d));
}
void BM_EncodeDecode_FlatSerial(benchmark::State& state) {
  BM_EncodeDecode_Flat<1>(state);
}
void BM_EncodeDecode_FlatPool4(benchmark::State& state) {
  BM_EncodeDecode_Flat<4>(state);
}
BENCHMARK(BM_EncodeDecode_FlatSerial)
    ->Args({100, 100 * 1024})
    ->Args({100, 1 << 14})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EncodeDecode_FlatPool4)
    ->Args({100, 100 * 1024})
    ->Args({100, 1 << 14})
    ->Unit(benchmark::kMillisecond);

// Full protocol round (phase 1 encode for all N users + phase 3 responder
// aggregation + one-shot decode) at a reduced shape — the end-to-end
// version of the pipeline benchmarks above.
void BM_RoundSeedNestedSerial(benchmark::State& state) {
  using F = Fp32Seed;
  const PipelineShape s(state);
  lsa::common::Xoshiro256ss rng(13);
  lsa::coding::MaskCodec<Fp32> codec(s.n, s.u, s.t, s.d);
  std::vector<std::vector<F::rep>> w_cols(s.n);
  for (std::size_t j = 0; j < s.n; ++j) {
    const auto col = codec.encoding_column(j);
    w_cols[j].assign(col.begin(), col.end());
  }
  std::vector<F::rep> xs(s.u), betas(s.u);
  for (std::size_t k = 0; k < s.u; ++k) {
    betas[k] = static_cast<F::rep>(k + 1);
    xs[k] = static_cast<F::rep>(s.u + 1 + k);
  }
  std::vector<std::vector<F::rep>> masks(s.n);
  for (auto& m : masks) m = lsa::field::uniform_vector<F>(s.d, rng);
  for (auto _ : state) {
    // held[j][i] = [~z_i]_j — the seed's nested N x N share matrix.
    std::vector<std::vector<std::vector<F::rep>>> held(
        s.n, std::vector<std::vector<F::rep>>(s.n));
    for (std::size_t i = 0; i < s.n; ++i) {
      auto shares = seed_encode<F>(s.n, s.u, s.t, s.d, s.seg, w_cols,
                                   std::span<const F::rep>(masks[i]), rng);
      for (std::size_t j = 0; j < s.n; ++j) held[j][i] = std::move(shares[j]);
    }
    std::vector<std::vector<F::rep>> agg(s.u);
    for (std::size_t j = 0; j < s.u; ++j) {
      agg[j].assign(s.seg, F::zero);
      for (std::size_t i = 0; i < s.n; ++i) {
        for (std::size_t l = 0; l < s.seg; ++l) {
          agg[j][l] = F::add(agg[j][l], held[j][i][l]);
        }
      }
    }
    auto out = seed_decode<F>(s.u, s.t, s.d, s.seg,
                              std::span<const F::rep>(xs),
                              std::span<const F::rep>(betas), agg);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RoundSeedNestedSerial)
    ->Args({50, 1 << 14})
    ->Unit(benchmark::kMillisecond);

template <int NumThreads>
void BM_RoundFlat(benchmark::State& state) {
  using F = Fp32;
  const PipelineShape s(state);
  lsa::common::Xoshiro256ss rng(13);
  lsa::coding::MaskCodec<F> codec(s.n, s.u, s.t, s.d);
  std::optional<lsa::sys::ThreadPool> pool;
  lsa::sys::ExecPolicy pol{};
  if (NumThreads > 1) {
    pool.emplace(NumThreads);
    pol.pool = &*pool;
  }
  lsa::field::FlatMatrix<F> masks(s.n, s.d);
  for (std::size_t i = 0; i < s.n; ++i) {
    lsa::field::fill_uniform<F>(masks.row(i), rng);
  }
  std::vector<std::size_t> owners(s.u);
  for (std::size_t j = 0; j < s.u; ++j) owners[j] = j;
  std::vector<std::uint64_t> noise_seeds(s.n);
  for (auto& v : noise_seeds) v = rng.next_u64();
  lsa::field::FlatMatrix<F> agg(s.u, s.seg);
  for (auto _ : state) {
    auto arena = codec.encode_all(
        masks,
        [&](std::size_t i) {
          return lsa::common::Xoshiro256ss(noise_seeds[i]);
        },
        pol);
    agg.reset(s.u, s.seg);
    pol.run(s.u, [&](std::size_t r) {
      std::vector<const rep32*> rows(s.n);
      for (std::size_t i = 0; i < s.n; ++i) {
        rows[i] = arena.row_ptr(r * s.n + i);
      }
      lsa::field::add_accumulate_blocked<F>(
          agg.row(r), std::span<const rep32* const>(rows), pol.chunk_reps);
    });
    auto out = codec.decode_aggregate(owners, agg, pol);
    benchmark::DoNotOptimize(out.data());
  }
}
void BM_RoundFlatSerial(benchmark::State& state) { BM_RoundFlat<1>(state); }
void BM_RoundFlatPool4(benchmark::State& state) { BM_RoundFlat<4>(state); }
BENCHMARK(BM_RoundFlatSerial)
    ->Args({50, 1 << 14})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RoundFlatPool4)
    ->Args({50, 1 << 14})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// SIMD substrate: the decode plane's two hottest kernels, as forced-scalar
// vs runtime-dispatched pairs. The pair ratio is the per-host vectorization
// win; the selected ISA and lane width are in the benchmark context
// (simd_isa / simd_vector_bytes keys in the JSON output).
// ---------------------------------------------------------------------------

template <bool ForceScalar>
void BM_SimdAxpyGemmPanel(benchmark::State& state) {
  using F = Goldilocks;
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t u = 128;
  lsa::common::Xoshiro256ss rng(14);
  std::vector<repg> coeffs(u);
  std::vector<std::vector<repg>> rows(u);
  std::vector<const repg*> rp(u);
  for (auto& c : coeffs) c = lsa::field::uniform<F>(rng);
  for (std::size_t k = 0; k < u; ++k) {
    rows[k] = lsa::field::uniform_vector<F>(n, rng);
    rp[k] = rows[k].data();
  }
  std::vector<repg> acc(n, F::zero);
  const lsa::field::simd::ScopedSimdPolicy guard(
      ForceScalar ? lsa::field::simd::SimdPolicy::kForceScalar
                  : lsa::field::simd::SimdPolicy::kAuto);
  for (auto _ : state) {
    lsa::field::axpy_accumulate_blocked<F>(std::span<repg>(acc),
                                           std::span<const repg>(coeffs),
                                           std::span<const repg* const>(rp));
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(u * n));
}
void BM_SimdAxpyGemmPanel_Scalar(benchmark::State& state) {
  BM_SimdAxpyGemmPanel<true>(state);
}
void BM_SimdAxpyGemmPanel_Dispatched(benchmark::State& state) {
  BM_SimdAxpyGemmPanel<false>(state);
}
BENCHMARK(BM_SimdAxpyGemmPanel_Scalar)->Arg(1 << 12);
BENCHMARK(BM_SimdAxpyGemmPanel_Dispatched)->Arg(1 << 12);

template <bool ForceScalar>
void BM_SimdNttButterflySoA(benchmark::State& state) {
  const auto log_n = static_cast<unsigned>(state.range(0));
  constexpr std::size_t kLanes = 8;  // decode plane's kLaneBlock
  lsa::coding::NttPlan<Goldilocks> plan(log_n);
  lsa::common::Xoshiro256ss rng(15);
  const auto data = lsa::field::uniform_vector<Goldilocks>(
      (std::size_t{1} << log_n) * kLanes, rng);
  auto buf = data;
  const lsa::field::simd::ScopedSimdPolicy guard(
      ForceScalar ? lsa::field::simd::SimdPolicy::kForceScalar
                  : lsa::field::simd::SimdPolicy::kAuto);
  for (auto _ : state) {
    std::copy(data.begin(), data.end(), buf.begin());
    plan.forward_soa(std::span<repg>(buf), kLanes);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>((std::size_t{1} << log_n) * kLanes));
}
void BM_SimdNttButterflySoA_Scalar(benchmark::State& state) {
  BM_SimdNttButterflySoA<true>(state);
}
void BM_SimdNttButterflySoA_Dispatched(benchmark::State& state) {
  BM_SimdNttButterflySoA<false>(state);
}
BENCHMARK(BM_SimdNttButterflySoA_Scalar)->Arg(10);
BENCHMARK(BM_SimdNttButterflySoA_Dispatched)->Arg(10);

void BM_QuantizeVector(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lsa::common::Xoshiro256ss rng(8);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.next_gaussian();
  lsa::quant::Quantizer<Fp32> q(1u << 16);
  for (auto _ : state) {
    auto out = q.quantize_vector(std::span<const double>(xs), rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuantizeVector)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

int main(int argc, char** argv) {
  namespace simd = lsa::field::simd;
  // Selected dispatch, reported once in the context block (and as
  // "simd_isa"/"simd_vector_bytes" keys under "context" in JSON output).
  benchmark::AddCustomContext("simd_isa",
                              simd::level_name(simd::detected_level()));
  benchmark::AddCustomContext(
      "simd_vector_bytes",
      std::to_string(simd::vector_bytes(simd::detected_level())));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

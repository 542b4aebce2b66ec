// Server-side one-shot aggregate-mask decode (paper §5.2, Table 5).
//
// The aggregated shares of the U responders are evaluations of the
// aggregate polynomial g (degree < U) at their share points xs; the server
// recovers the aggregate mask by evaluating g at the U-T data slots betas,
// for every one of the seg_len mask coordinates. A BatchedDecodePlan holds
// the precomputation for one (xs, betas) pair and streams any number of
// coordinates through one of two kernels:
//
//   kBarycentric — barycentric weights (shared denominators M'(x_j)),
//                  O(U^2 + U(U-T)) scalar setup, then a cache-blocked
//                  (U-T) x U x seg_len field GEMM (field::gemm_rows in
//                  field/field_vec.h).
//   kBatchedNtt  — fast interpolation + multipoint evaluation over
//                  subproduct trees, the paper's Table 5 complexity class.
//                  Everything that does not depend on the coordinate is
//                  built ONCE per plan:
//     * both subproduct trees, every tree node annotated with the Newton
//       inverse of its reversed polynomial (the poly_divrem
//       precomputation) at the node's fixed operating size;
//     * every fixed product operand (node polynomials, Newton inverses)
//       forward-transformed into cached NTT evaluations, with Shoup
//       precomputed operands for the pointwise passes;
//     * precomputed-twiddle NttPlan tables (coding/ntt.h) shared across
//       the whole segment block.
//   kAuto        — picks one of the two from the plan shape via the
//                  measured crossover (BatchedDecodePlan::resolve).
//
// The batched kernel streams the seg_len coordinates through the trees in
// structure-of-arrays lane blocks: kLaneBlock coordinates interleave as
// buf[coeff * kLaneBlock + lane] and walk the subproduct trees TOGETHER,
// so every tree operation is a contiguous pass over lane blocks that maps
// 1:1 onto the runtime-dispatched SIMD substrate (field/simd/dispatch.h)
// — lazy 192-bit dot/axpy kernels for the matvecs and schoolbook
// products, lane-blocked SoA NTTs for the cached transforms, Shoup row
// scaling for the pointwise passes. Every value produced is the exact
// field result, so both kernels are bit-identical to the textbook Lagrange
// evaluation (tests/decode_oracle.h) under every policy and dispatch level
// (tests/decode_strategy_test.cpp).
//
// Plans are meant to be cached per session keyed on the survivor set
// (coding/mask_codec.h): repeated rounds with the same (xs, betas) pay the
// setup once and stream at marginal cost.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "coding/ntt.h"
#include "coding/poly.h"
#include "common/error.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "field/field_vec.h"
#include "field/flat_matrix.h"
#include "field/simd/dispatch.h"
#include "sys/exec_policy.h"

namespace lsa::coding {

/// Server-side aggregate-decode kernel selection (see the header comment).
enum class DecodeStrategy {
  kBarycentric,  ///< shared-denominator weights + blocked GEMM
  kBatchedNtt,   ///< plan-cached batched fast interpolate/evaluate
  kAuto,         ///< pick kBarycentric / kBatchedNtt from (U, U-T)
};

[[nodiscard]] constexpr const char* to_string(DecodeStrategy s) {
  switch (s) {
    case DecodeStrategy::kBarycentric: return "barycentric";
    case DecodeStrategy::kBatchedNtt: return "batched-ntt";
    case DecodeStrategy::kAuto: return "auto";
  }
  return "?";
}

/// Evaluation-weight matrix W (|betas| x |xs|) such that g(betas[k]) =
/// sum_j W(k, j) * g(xs[j]) for any polynomial g of degree < |xs|, computed
/// barycentrically:
///   W(k, j) = M(beta_k) / (M'(x_j) * (beta_k - x_j)),
/// with one shared O(|xs|^2) pass for the M'(x_j) and O(|xs|) per beta.
/// Preconditions: xs pairwise distinct; no beta coincides with an x.
template <class F>
[[nodiscard]] lsa::field::FlatMatrix<F> barycentric_weights(
    std::span<const typename F::rep> xs,
    std::span<const typename F::rep> betas) {
  using rep = typename F::rep;
  const std::size_t u = xs.size();
  lsa::require<lsa::CodingError>(u > 0, "barycentric: no share points");

  // M'(x_j) = prod_{m != j} (x_j - x_m), inverted in one batch.
  std::vector<rep> mprime_inv(u, F::one);
  for (std::size_t j = 0; j < u; ++j) {
    for (std::size_t m = 0; m < u; ++m) {
      if (m == j) continue;
      const rep diff = F::sub(xs[j], xs[m]);
      lsa::require<lsa::CodingError>(diff != F::zero,
                                     "barycentric: duplicate share points");
      mprime_inv[j] = F::mul(mprime_inv[j], diff);
    }
  }
  lsa::field::batch_inv_inplace<F>(std::span<rep>(mprime_inv));

  lsa::field::FlatMatrix<F> w(betas.size(), u);
  std::vector<rep> diff_inv(u);
  for (std::size_t k = 0; k < betas.size(); ++k) {
    rep m_at_beta = F::one;
    for (std::size_t j = 0; j < u; ++j) {
      const rep diff = F::sub(betas[k], xs[j]);
      lsa::require<lsa::CodingError>(
          diff != F::zero, "barycentric: beta coincides with share point");
      m_at_beta = F::mul(m_at_beta, diff);
      diff_inv[j] = diff;
    }
    lsa::field::batch_inv_inplace<F>(std::span<rep>(diff_inv));
    auto row = w.row(k);
    for (std::size_t j = 0; j < u; ++j) {
      row[j] = F::mul(m_at_beta, F::mul(mprime_inv[j], diff_inv[j]));
    }
  }
  return w;
}

/// Builds the subproduct tree / twiddle / weight tables for one (xs, betas)
/// pair once and streams any number of coordinates through them. See the
/// header comment for the full design.
template <class F>
class BatchedDecodePlan {
 public:
  using rep = typename F::rep;

  /// Coordinate lanes streamed per structure-of-arrays block: every
  /// polynomial buffer in the streaming core interleaves kLaneBlock
  /// coordinates (buf[coeff * kLaneBlock + lane]) so each tree operation
  /// walks contiguous lane blocks — the shape the SIMD substrate's vector
  /// kernels consume directly (one AVX-512 vector, two AVX2 vectors or
  /// four NEON vectors of 64-bit reps per block). The width is fixed
  /// host-independently: the lane layout, and therefore every intermediate
  /// and result, is identical on every ISA and under forced-scalar
  /// dispatch. Tail blocks zero-pad the unused lanes (every streaming
  /// operation is total, so padded lanes just compute throwaway values the
  /// scatter skips).
  static constexpr std::size_t kLaneBlock = 8;

  BatchedDecodePlan(std::span<const rep> xs, std::span<const rep> betas)
      : xs_(xs.begin(), xs.end()), betas_(betas.begin(), betas.end()) {
    lsa::require<lsa::CodingError>(!xs_.empty(), "decode plan: no points");
    lsa::require<lsa::CodingError>(!betas_.empty(), "decode plan: no betas");
  }

  [[nodiscard]] std::span<const rep> xs() const { return xs_; }
  [[nodiscard]] std::span<const rep> betas() const { return betas_; }

  // ---------------------------------------------- incremental maintenance

  /// One survivor-point replacement for patched_from: xs[pos] becomes
  /// `value`. The betas are fixed per codec; only share points churn.
  struct PointReplacement {
    std::size_t pos = 0;
    rep value{};
  };

  /// True when this plan came out of patched_from rather than a fresh
  /// build, and how many subproduct-tree nodes the patch re-multiplied.
  [[nodiscard]] bool patched() const { return patched_; }
  [[nodiscard]] std::size_t patched_nodes() const { return patched_nodes_; }

  /// Small-churn plan maintenance: builds the plan for base.xs() with the
  /// replacements applied, PATCHING whichever components the base already
  /// built instead of rebuilding them from scratch:
  ///
  ///   * barycentric weights update via the one-point multiply/divide
  ///     identity — replacing x_p = o with v scales W[k][j] (j != p) by
  ///     (beta_k - v)/(beta_k - o) * (x_j - o)/(x_j - v) and column p by
  ///     M'_old(o)/M'_new(v) (the beta factors cancel against the
  ///     refreshed numerator M(beta_k)): O(U * nb) multiplies plus one
  ///     batched inversion, no O(U^2) M' pass;
  ///   * the batched fast path refreshes the barycentric denominators by
  ///     the same identity and re-multiplies ONLY the root-to-leaf
  ///     subproduct-tree path through leaf p — one collapsed base matrix
  ///     plus O(log U) ancestor operands, re-deriving their cached NTT
  ///     transforms; the beta-side evaluation tree depends only on the
  ///     betas and is copied verbatim, as is every untouched share node.
  ///
  /// Every patched value is the exact canonical field element a
  /// from-scratch build over the same points produces (products of the
  /// same monic linear factors in any association order, and
  /// algebraically equal weight updates, land on identical bits), so a
  /// patched plan decodes bit-identically to a fresh BatchedDecodePlan —
  /// tests/decode_plan_patch_test.cpp sweeps this exhaustively.
  ///
  /// Replacements apply sequentially; each new value must stay distinct
  /// from every other current point and every beta. The patched plan
  /// keeps the base's point ORDER (only the replaced slots change) so the
  /// dirtied tree paths stay narrow; callers permute share rows to
  /// plan-xs order (coding/mask_codec.h does). Components the base never
  /// built stay unbuilt and would be built lazily from the new points.
  /// Each patched component's setup_s is the patch time, so setup
  /// accounting reflects what was actually paid.
  [[nodiscard]] static std::shared_ptr<BatchedDecodePlan> patched_from(
      const BatchedDecodePlan& base, std::span<const PointReplacement> reps) {
    lsa::sync::MutexLock lk(base.mu_);
    std::vector<rep> new_xs = base.xs_;
    for (const auto& r : reps) {
      lsa::require<lsa::CodingError>(r.pos < new_xs.size(),
                                     "plan patch: position out of range");
      for (std::size_t m = 0; m < new_xs.size(); ++m) {
        lsa::require<lsa::CodingError>(m == r.pos || r.value != new_xs[m],
                                       "plan patch: duplicate points");
      }
      for (const rep b : base.betas_) {
        lsa::require<lsa::CodingError>(
            r.value != b, "plan patch: point collides with beta");
      }
      new_xs[r.pos] = r.value;
    }
    auto plan = std::make_shared<BatchedDecodePlan>(
        std::span<const rep>(new_xs), std::span<const rep>(base.betas_));
    // The fresh plan is unshared until returned, but its lazy components
    // are guarded members: hold its lock for the writes below. Lock order
    // base.mu_ -> plan->mu_ is acyclic (no other holder of a plan that
    // does not exist outside this frame yet).
    lsa::sync::MutexLock plan_lk(plan->mu_);
    plan->patched_ = true;
    if (base.bary_) {
      lsa::common::Stopwatch sw;
      auto b = std::make_unique<Bary>(*base.bary_);
      std::vector<rep> cur = base.xs_;
      for (const auto& r : reps) {
        patch_bary_one(*b, cur, base.betas_, r.pos, r.value);
        cur[r.pos] = r.value;
      }
      b->setup_s = sw.elapsed_sec();
      plan->bary_ = std::move(b);
    }
    if (base.fast_) {
      lsa::common::Stopwatch sw;
      auto f = std::make_unique<Fast>(*base.fast_);
      std::vector<rep> cur = base.xs_;
      for (const auto& r : reps) {
        plan->patched_nodes_ += patch_fast_one(*f, cur, r.pos, r.value);
        cur[r.pos] = r.value;
      }
      f->setup_s = sw.elapsed_sec();
      plan->fast_ = std::move(f);
    }
    return plan;
  }

  /// Resolves kAuto to a concrete strategy from the plan shape; concrete
  /// strategies pass through unchanged.
  [[nodiscard]] DecodeStrategy resolve(DecodeStrategy s) const {
    if (s != DecodeStrategy::kAuto) return s;
    if constexpr (!NttCapable<F>) {
      return DecodeStrategy::kBarycentric;
    } else {
      // Measured crossover, re-calibrated for the SoA lane-streamed plane
      // (AVX-512 dev box, Goldilocks, best-of-3, seg in {32, 256, 2048},
      // U in {128..1024}, U-T in {U/2, 7U/8}): the batched pipeline
      // streams a lane block in ~c*U*log2(U)^2 lazy-product ops against
      // the lazy GEMM's U*(U-T). The GEMM panels gain more from vector
      // dispatch than the butterfly stream (~2.4x vs ~2.1x on the dev
      // box), so the crossover sits higher when vector kernels are active:
      // with 2*(U-T) against c*log2(U)^2, c ~ 10 vectorized (U = 1024,
      // U-T = 512 ties; U-T = 896 batched wins 1.5-1.7x) and c ~ 12
      // forced-scalar (U = 512, U-T = 448 barycentric still wins 1.3x;
      // U = 1024, U-T = 512 ties). The segment length does not enter: SoA
      // streaming amortizes the subproduct-tree walk across kLaneBlock
      // coordinates, so seg_len does not shift the winner (measured ratios
      // at seg 32 match seg 2048 within ~15%). Below U = 512 the GEMM wins
      // everywhere measured, in both dispatch modes.
      const std::size_t u = xs_.size();
      const std::size_t nb = betas_.size();
      if (u < 512) return DecodeStrategy::kBarycentric;
      const std::size_t log2u = std::bit_width(u) - 1;
      const bool vectorized = lsa::field::simd::active_level() !=
                              lsa::field::simd::Level::kScalar;
      const std::size_t c = vectorized ? 10 : 12;
      if (2 * nb >= c * log2u * log2u) return DecodeStrategy::kBatchedNtt;
      return DecodeStrategy::kBarycentric;
    }
  }

  /// Streams all seg_len coordinates of the given strategy into a fresh
  /// output vector of |betas| * seg_len reps (row k = values at betas[k]).
  [[nodiscard]] std::vector<rep> run(DecodeStrategy s,
                                     std::span<const rep* const> shares,
                                     std::size_t seg_len,
                                     const lsa::sys::ExecPolicy& pol) const {
    lsa::require<lsa::CodingError>(shares.size() == xs_.size(),
                                   "decode plan: wrong share count");
    return resolve(s) == DecodeStrategy::kBatchedNtt
               ? run_batched(shares, seg_len, pol)
               : run_barycentric(shares, seg_len, pol);
  }

  /// One-time-setup cost already paid by this plan, per component (0 until
  /// the corresponding strategy first runs). Exposed so callers can report
  /// the setup-vs-streaming amortization (examples/protocol_comparison).
  [[nodiscard]] double barycentric_setup_seconds() const {
    lsa::sync::MutexLock lk(mu_);
    return bary_ ? bary_->setup_s : 0.0;
  }
  [[nodiscard]] double batched_setup_seconds() const {
    lsa::sync::MutexLock lk(mu_);
    return fast_ ? fast_->setup_s : 0.0;
  }

  // ------------------------------------------------------------- GEMM path

  /// out[k*seg + l] = sum_j W(k, j) * shares[j][l] — a (U-T) x U x seg
  /// field GEMM. Column blocks fan out over the policy; each block is one
  /// field::gemm_rows product (the register-tiled split-word kernel on
  /// 32-bit fields where the SIMD level has one, else one fused
  /// axpy_accumulate row per beta: split-word lazy accumulation on 32-bit
  /// fields, 3-limb lazy accumulation on 64-bit fields).
  [[nodiscard]] std::vector<rep> run_barycentric(
      std::span<const rep* const> shares, std::size_t seg_len,
      const lsa::sys::ExecPolicy& pol) const {
    const Bary& b = bary();
    const std::size_t nb = betas_.size();
    std::vector<rep> out(nb * seg_len, F::zero);
    const std::size_t chunk =
        pol.chunk_reps == 0 ? lsa::field::kDefaultChunkReps : pol.chunk_reps;
    pol.run_blocked(
        seg_len,
        [&](std::size_t begin, std::size_t end) {
          std::vector<const rep*> shifted(shares.size());
          for (std::size_t j = 0; j < shares.size(); ++j) {
            shifted[j] = shares[j] + begin;
          }
          std::vector<rep*> dst(nb);
          for (std::size_t k = 0; k < nb; ++k) {
            dst[k] = out.data() + k * seg_len + begin;
          }
          lsa::field::gemm_rows<F>(std::span<rep* const>(dst),
                                   b.w.row_ptr(0), shares.size(),
                                   std::span<const rep* const>(shifted),
                                   end - begin, chunk);
        },
        chunk);
    return out;
  }

  // ---------------------------------------------------- batched fast path

  [[nodiscard]] std::vector<rep> run_batched(
      std::span<const rep* const> shares, std::size_t seg_len,
      const lsa::sys::ExecPolicy& pol) const {
    const Fast& f = fast();
    const std::size_t u = xs_.size();
    const std::size_t nb = betas_.size();
    constexpr std::size_t W = kLaneBlock;
    std::vector<rep> out(nb * seg_len, F::zero);
    pol.run_blocked(seg_len, [&](std::size_t begin, std::size_t end) {
      Workspace ws(f, u, nb);
      for (std::size_t l0 = begin; l0 < end; l0 += W) {
        const std::size_t b = std::min(W, end - l0);
        // SoA gather: lane l of share coefficient j lands at
        // colmat[j*W + l]; row j's [l0, l0+b) run is contiguous. Tail
        // lanes are zero-filled (see kLaneBlock).
        for (std::size_t j = 0; j < u; ++j) {
          const rep* src = shares[j] + l0;
          rep* dst = ws.colmat.data() + j * W;
          for (std::size_t l = 0; l < b; ++l) dst[l] = src[l];
          for (std::size_t l = b; l < W; ++l) dst[l] = F::zero;
        }
        decode_lanes(f, ws);
        for (std::size_t k = 0; k < nb; ++k) {
          const rep* vals = ws.eval_out.data() + k * W;
          for (std::size_t l = 0; l < b; ++l) {
            out[k * seg_len + l0 + l] = vals[l];
          }
        }
      }
    });
    return out;
  }

 private:
  // --------------------------------------------------------- shared setup

  struct Bary {
    lsa::field::FlatMatrix<F> w;  ///< (U-T) x U weight matrix
    double setup_s = 0.0;
  };

  /// One fixed product operand (a node polynomial or a Newton inverse),
  /// optionally cached as NTT evaluations at a fixed size (with Shoup
  /// tables for the pointwise passes; the schoolbook path accumulates raw
  /// 128-bit products lazily and needs no precomputation).
  struct Operand {
    std::vector<rep> coeffs;       ///< truncated operand, schoolbook form
    unsigned log_n = 0;            ///< transform size when cached
    std::vector<rep> evals;        ///< forward NTT at 2^log_n (empty = none)
    std::vector<rep> evals_shoup;  ///< Shoup table of evals
  };

  // The streamed matvec / schoolbook kernels never reduce per term: full
  // products accumulate into 3-limb (192-bit) lazy values — one widening
  // multiply plus carry adds per term, branch-free and free of
  // data-dependent mispredictions — and ONE fold per output element
  // reduces back into the field (field/field_vec.h: lazy192_accumulate /
  // lazy192_fold). The fold reduces the exact sum, so results stay
  // bit-identical to the mul-per-term kernels.
  static void lazy_accumulate(std::uint64_t& lo, std::uint64_t& mi,
                              std::uint64_t& hi, rep a, rep b) {
    lsa::field::lazy192_accumulate<F>(lo, mi, hi, a, b);
  }

  [[nodiscard]] static rep lazy_fold(std::uint64_t lo, std::uint64_t mi,
                                     std::uint64_t hi) {
    return lsa::field::lazy192_fold<F>(lo, mi, hi);
  }

  struct Node {
    std::size_t leaves = 0;  ///< points under this node
    std::size_t lo = 0;      ///< first leaf index under this node
    bool carry = false;      ///< unpaired node carried up one level
    // Interpolation (share tree): cached sibling polynomials for
    //   res = res_left * poly_right + res_right * poly_left.
    std::size_t left_leaves = 0;
    Operand poly_left, poly_right;  ///< cached at size bit_ceil(leaves)
    // Evaluation (beta tree): fixed incoming size fs and, when fs >
    // leaves, the divrem precomputation r = f mod poly:
    std::size_t fs = 0;
    std::size_t qlen = 0;        ///< fs - leaves (0 = pass-through)
    Operand rb_inv;              ///< Newton inverse of rev(poly) mod x^qlen
    Operand poly_low;            ///< poly mod x^leaves
  };

  /// Collapsed bottom-of-tree node: the last kBaseWidth-sized levels of
  /// both trees are one precomputed matrix each — an m x m Lagrange-basis
  /// matvec for interpolation (coeff i of M_node/(x - x_j) at [i][j]) and
  /// an m x fs Vandermonde matvec for evaluation (betas[lo+k]^i at
  /// [k][i]) — replacing dozens of tiny per-node products with one lazy
  /// dot per (row, lane block).
  struct BaseNode {
    std::size_t lo = 0;  ///< first leaf index
    std::size_t m = 0;   ///< leaves (matrix rows)
    std::size_t fs = 0;  ///< input length (matrix cols; m for interp)
    std::vector<rep> mat;  ///< row-major m x fs: each row is one dot's
                           ///< coefficient stream (see matvec_soa)
  };

  struct Fast {
    std::vector<BaseNode> interp_base;             ///< share-tree bottom
    std::vector<std::vector<Node>> interp_levels;  ///< levels above base
    std::vector<std::vector<Node>> eval_levels;    ///< top first, above base
    std::vector<BaseNode> eval_base;               ///< beta-tree bottom
    std::vector<rep> mprime_inv, mprime_inv_shoup;
    std::map<unsigned, NttPlan<F>> ntts;  ///< per-size twiddle tables
    std::size_t scratch_len = 0;          ///< max transform / poly size
    double setup_s = 0.0;
  };

  // All streaming buffers are SoA over one lane block: a buffer holding n
  // polynomial coefficients stores n * kLaneBlock reps, coefficient i's
  // lanes contiguous at [i*kLaneBlock, (i+1)*kLaneBlock).
  struct Workspace {
    std::vector<rep> colmat;              ///< gathered lanes, U blocks
    std::vector<rep> interp_a, interp_b;  ///< ping-pong, U blocks
    std::vector<rep> eval_a, eval_b;      ///< remainder ping-pong
    std::vector<rep> eval_out;            ///< final values, nb blocks
    std::vector<rep> t1, t2, t3;          ///< transform / product scratch
    std::vector<std::uint64_t> lzlo, lzmi, lzhi;  ///< lazy product limbs
    explicit Workspace(const Fast& f, std::size_t u, std::size_t nb)
        : colmat(u * kLaneBlock),
          interp_a(u * kLaneBlock),
          interp_b(u * kLaneBlock),
          eval_a(std::max(u, nb) * kLaneBlock),
          eval_b(std::max(u, nb) * kLaneBlock),
          eval_out(nb * kLaneBlock),
          t1(f.scratch_len * kLaneBlock),
          t2(f.scratch_len * kLaneBlock),
          t3(f.scratch_len * kLaneBlock),
          lzlo(f.scratch_len * kLaneBlock),
          lzmi(f.scratch_len * kLaneBlock),
          lzhi(f.scratch_len * kLaneBlock) {}
  };

  const Bary& bary() const {
    lsa::sync::MutexLock lk(mu_);
    if (!bary_) {
      lsa::common::Stopwatch sw;
      auto b = std::make_unique<Bary>();
      b->w = barycentric_weights<F>(std::span<const rep>(xs_),
                                    std::span<const rep>(betas_));
      b->setup_s = sw.elapsed_sec();
      bary_ = std::move(b);
    }
    return *bary_;
  }

  // Product sizes at or above this use the cached-NTT path; below it the
  // truncated schoolbook loop is cheaper (same crossover class as
  // kNttThreshold, on the output length of the fixed-size products).
  static constexpr std::size_t kPlanNttMinOut = 64;

  /// Prepares `op` (already holding coeffs) for products of output length
  /// out_len: caches the forward transform when profitable and records the
  /// needed scratch in `f`.
  static void finalize_operand(Fast& f, Operand& op, std::size_t out_len) {
    f.scratch_len = std::max(f.scratch_len, out_len);
    f.scratch_len = std::max(f.scratch_len, op.coeffs.size());
    if constexpr (NttCapable<F>) {
      if (out_len >= kPlanNttMinOut) {
        const std::size_t n = std::bit_ceil(out_len);
        const unsigned log_n =
            static_cast<unsigned>(std::countr_zero(n));
        if (log_n <= F::two_adicity) {
          auto it = f.ntts.find(log_n);
          if (it == f.ntts.end()) {
            it = f.ntts.emplace(log_n, NttPlan<F>(log_n)).first;
          }
          op.log_n = log_n;
          op.evals.assign(n, F::zero);
          std::copy(op.coeffs.begin(), op.coeffs.end(), op.evals.begin());
          it->second.forward(std::span<rep>(op.evals));
          if constexpr (lsa::field::ShoupCapable<F>) {
            op.evals_shoup = lsa::field::shoup_precompute_vec<F>(
                std::span<const rep>(op.evals));
          }
          f.scratch_len = std::max(f.scratch_len, n);
        }
      }
    }
  }

  const Fast& fast() const {
    lsa::sync::MutexLock lk(mu_);
    if (!fast_) {
      lsa::common::Stopwatch sw;
      auto f = std::make_unique<Fast>();
      const std::size_t u = xs_.size();
      const std::size_t nb = betas_.size();

      // The existing SubproductTree supplies node polynomials and the
      // barycentric denominators 1/M'(x_j); the plan annotates its shape.
      SubproductTree<F> share_tree{std::span<const rep>(xs_)};
      SubproductTree<F> beta_tree{std::span<const rep>(betas_)};
      f->mprime_inv.assign(share_tree.barycentric_inverses().begin(),
                           share_tree.barycentric_inverses().end());
      if constexpr (lsa::field::ShoupCapable<F>) {
        f->mprime_inv_shoup = lsa::field::shoup_precompute_vec<F>(
            std::span<const rep>(f->mprime_inv));
      }

      // ---- Interpolation tree (combine bottom-up over xs). ----
      // Tree levels up to kBaseLog collapse into per-node Lagrange-basis
      // matrices; only the levels above are walked per coordinate.
      const std::size_t ibase = std::min<std::size_t>(
          kBaseLog, share_tree.num_levels() - 1);
      {
        std::size_t lo = 0;
        f->interp_base.resize(share_tree.level_size(ibase));
        for (std::size_t i = 0; i < f->interp_base.size(); ++i) {
          BaseNode& bn = f->interp_base[i];
          const auto& poly = share_tree.node_poly(ibase, i);
          bn.m = poly.size() - 1;
          bn.fs = bn.m;
          bn.lo = lo;
          lo += bn.m;
          // Entry [c][j] = coefficient c of M_node / (x - xs[lo + j]):
          // res = sum_j c_j * (basis poly j).
          std::vector<std::vector<rep>> basis(bn.m);
          for (std::size_t j = 0; j < bn.m; ++j) {
            const std::vector<rep> leaf{F::neg(xs_[bn.lo + j]), F::one};
            basis[j] = poly_divrem<F>(std::span<const rep>(poly),
                                      std::span<const rep>(leaf))
                           .quotient;
            basis[j].resize(bn.m, F::zero);
          }
          bn.mat.assign(bn.m * bn.fs, F::zero);
          for (std::size_t r = 0; r < bn.m; ++r) {
            for (std::size_t c = 0; c < bn.fs; ++c) {
              bn.mat[r * bn.fs + c] = basis[c][r];
            }
          }
        }
      }
      f->interp_levels.resize(share_tree.num_levels());
      for (std::size_t lv = ibase + 1; lv < share_tree.num_levels(); ++lv) {
        auto& level = f->interp_levels[lv];
        level.resize(share_tree.level_size(lv));
        std::size_t lo = 0;
        for (std::size_t i = 0; i < level.size(); ++i) {
          Node& nd = level[i];
          nd.leaves = share_tree.node_poly(lv, i).size() - 1;
          nd.lo = lo;
          lo += nd.leaves;
          const std::size_t prev = share_tree.level_size(lv - 1);
          if (2 * i + 1 >= prev) {
            nd.carry = true;
            continue;
          }
          const auto& pl = share_tree.node_poly(lv - 1, 2 * i);
          const auto& pr = share_tree.node_poly(lv - 1, 2 * i + 1);
          nd.left_leaves = pl.size() - 1;
          nd.poly_left.coeffs = pl;
          nd.poly_right.coeffs = pr;
          finalize_operand(*f, nd.poly_left, nd.leaves);
          finalize_operand(*f, nd.poly_right, nd.leaves);
        }
      }

      // ---- Evaluation tree (divrem top-down over betas), stored with the
      // TOP level first so streaming walks it in order; levels at or
      // below kBaseLog collapse into per-node Vandermonde matrices that
      // evaluate the incoming remainder directly. ----
      const std::size_t depth = beta_tree.num_levels();
      const std::size_t ebase =
          std::min<std::size_t>(kBaseLog, depth - 1);
      f->eval_levels.resize(depth - 1 - ebase);
      for (std::size_t lv = 0; lv < f->eval_levels.size(); ++lv) {
        // eval_levels[e] holds tree level (depth - 1 - e).
        const std::size_t tl = depth - 1 - lv;
        auto& level = f->eval_levels[lv];
        level.resize(beta_tree.level_size(tl));
        std::size_t lo = 0;
        for (std::size_t i = 0; i < level.size(); ++i) {
          Node& nd = level[i];
          nd.leaves = beta_tree.node_poly(tl, i).size() - 1;
          nd.lo = lo;
          lo += nd.leaves;
          // Incoming size: U at the root, the parent's remainder size
          // (its leaf count) below. A carry parent shares this node's
          // polynomial, so its remainder already fits and the qlen == 0
          // pass-through below handles it uniformly.
          nd.fs = lv == 0 ? u : f->eval_levels[lv - 1][i / 2].leaves;
          if (nd.fs <= nd.leaves) {
            nd.qlen = 0;  // r = f unchanged
            continue;
          }
          nd.qlen = nd.fs - nd.leaves;
          const auto& poly = beta_tree.node_poly(tl, i);
          // Newton inverse of the reversed (monic => unit constant term)
          // node polynomial, to the quotient precision.
          std::vector<rep> rev(poly.rbegin(), poly.rend());
          nd.rb_inv.coeffs = poly_inverse_mod_xk<F>(
              std::span<const rep>(rev), nd.qlen);
          nd.rb_inv.coeffs.resize(nd.qlen, F::zero);
          const std::size_t t = std::min(nd.fs, nd.qlen);
          finalize_operand(*f, nd.rb_inv, t + nd.qlen - 1);
          nd.poly_low.coeffs.assign(poly.begin(),
                                    poly.begin() + nd.leaves);
          finalize_operand(*f, nd.poly_low,
                           std::min(nd.qlen, nd.leaves) + nd.leaves - 1);
        }
      }
      {
        std::size_t lo = 0;
        f->eval_base.resize(beta_tree.level_size(ebase));
        for (std::size_t i = 0; i < f->eval_base.size(); ++i) {
          BaseNode& bn = f->eval_base[i];
          bn.m = beta_tree.node_poly(ebase, i).size() - 1;
          bn.lo = lo;
          lo += bn.m;
          bn.fs = f->eval_levels.empty()
                      ? u
                      : f->eval_levels.back()[i / 2].leaves;
          // Entry [k][c] = betas[lo + k]^c: vals = V * f, already in the
          // row-major dot layout.
          bn.mat.assign(bn.m * bn.fs, F::zero);
          for (std::size_t k = 0; k < bn.m; ++k) {
            rep pw = F::one;
            for (std::size_t c = 0; c < bn.fs; ++c) {
              bn.mat[k * bn.fs + c] = pw;
              pw = F::mul(pw, betas_[bn.lo + k]);
            }
          }
        }
      }
      f->scratch_len = std::max(f->scratch_len, std::max(u, nb));
      f->setup_s = sw.elapsed_sec();
      fast_ = std::move(f);
    }
    return *fast_;
  }

  /// log2 of the collapsed bottom-of-tree width: tree levels 0..kBaseLog
  /// (nodes of up to 2^kBaseLog leaves) run as one flat matvec each.
  static constexpr std::size_t kBaseLog = 5;

  /// Lazy192 vector kernel table when this field's rep is a 64-bit word
  /// (the 3-limb limb arithmetic is modulus-free, so any 64-bit field
  /// qualifies — including Goldilocks); null for 32-bit fields and under
  /// scalar dispatch.
  static const lsa::field::simd::U64Kernels* lazy_vk() {
    if constexpr (sizeof(rep) == 8) {
      return lsa::field::simd::u64_active();
    } else {
      return nullptr;
    }
  }

  /// Collapsed base-node kernel over one SoA lane block: accumulates the
  /// lazy 192-bit row sums
  ///   out[r][lane] = sum_c mat[r][c] * in[c*W + lane]
  /// into the workspace limb arrays at block offset (bn.lo + r). Each
  /// row-major matrix row is one strided-coefficient dot against the
  /// contiguous lane stream (simd: lazy192_dot overwrites the limbs, no
  /// pre-zero needed on the vector path). The base nodes of a tree tile
  /// their level exactly, so the caller folds the whole tiled span once
  /// after every node ran (lazy_fold_out).
  static void matvec_soa(const BaseNode& bn, const rep* in, Workspace& ws) {
    constexpr std::size_t W = kLaneBlock;
    const auto* vk = lazy_vk();
    for (std::size_t r = 0; r < bn.m; ++r) {
      const rep* row = bn.mat.data() + r * bn.fs;
      std::uint64_t* lo = ws.lzlo.data() + (bn.lo + r) * W;
      std::uint64_t* mi = ws.lzmi.data() + (bn.lo + r) * W;
      std::uint64_t* hi = ws.lzhi.data() + (bn.lo + r) * W;
      if constexpr (sizeof(rep) == 8) {
        if (vk) {
          vk->lazy192_dot(lo, mi, hi, row, 1, in, bn.fs, W);
          continue;
        }
      }
      std::fill_n(lo, W, 0);
      std::fill_n(mi, W, 0);
      std::fill_n(hi, W, 0);
      for (std::size_t c = 0; c < bn.fs; ++c) {
        const rep b = row[c];
        const rep* x = in + c * W;
        for (std::size_t l = 0; l < W; ++l) {
          lazy_accumulate(lo[l], mi[l], hi[l], x[l], b);
        }
      }
    }
  }

  // ------------------------------------------------------- streaming core

  /// Truncated schoolbook product over one SoA lane block, accumulated
  /// into the workspace's lazy limb arrays (call lazy_zero first, fold
  /// with lazy_fold_out after; several products may share one zero/fold
  /// pair — the fused interpolation combine does). `a` holds la lane
  /// blocks; operand coefficient j contributes ONE contiguous
  /// length-(imax*W) axpy into limb block j (simd: lazy192_axpy) instead
  /// of the per-coordinate strided walk.
  static void schoolbook_into(std::span<const rep> a, const Operand& op,
                              std::size_t out_len, Workspace& ws) {
    constexpr std::size_t W = kLaneBlock;
    const std::size_t la = a.size() / W;
    const std::size_t jlim = std::min(op.coeffs.size(), out_len);
    const auto* vk = lazy_vk();
    for (std::size_t j = 0; j < jlim; ++j) {
      const rep b = op.coeffs[j];
      if (b == F::zero) continue;
      const std::size_t imax = std::min(la, out_len - j);
      std::uint64_t* lo = ws.lzlo.data() + j * W;
      std::uint64_t* mi = ws.lzmi.data() + j * W;
      std::uint64_t* hi = ws.lzhi.data() + j * W;
      if constexpr (sizeof(rep) == 8) {
        if (vk) {
          vk->lazy192_axpy(lo, mi, hi, b, a.data(), imax * W);
          continue;
        }
      }
      for (std::size_t i = 0; i < imax * W; ++i) {
        lazy_accumulate(lo[i], mi[i], hi[i], a[i], b);
      }
    }
  }

  /// Zero / fold `count` coefficient blocks (count * W limb triples) of
  /// the lazy arrays. The fold reduces each exact 192-bit sum to its
  /// canonical field value (simd: fold192 on Goldilocks), so vector and
  /// scalar folds are bit-identical by uniqueness of the canonical form.
  static void lazy_zero(Workspace& ws, std::size_t count) {
    std::fill_n(ws.lzlo.begin(), count * kLaneBlock, 0);
    std::fill_n(ws.lzmi.begin(), count * kLaneBlock, 0);
    std::fill_n(ws.lzhi.begin(), count * kLaneBlock, 0);
  }

  static void lazy_fold_out(const Workspace& ws, rep* out,
                            std::size_t count) {
    const std::size_t n = count * kLaneBlock;
    if constexpr (lsa::field::simd::kIsGoldilocksField<F>) {
      if (const auto* gk = lsa::field::simd::goldilocks_active()) {
        gk->fold192(out, ws.lzlo.data(), ws.lzmi.data(), ws.lzhi.data(), n);
        return;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = lazy_fold(ws.lzlo[i], ws.lzmi[i], ws.lzhi[i]);
    }
  }

  /// t[i*W + l] = t[i*W + l] * op.evals[i] — the pointwise pass of the
  /// cached-transform product: one scalar evaluation scales all lanes of
  /// its transform slot (simd: mul_shoup_rows).
  static void pointwise_rows(rep* t, const Operand& op, std::size_t n) {
    constexpr std::size_t W = kLaneBlock;
    if constexpr (lsa::field::ShoupCapable<F>) {
      if constexpr (lsa::field::simd::kIsGoldilocksField<F>) {
        if (const auto* gk = lsa::field::simd::goldilocks_active()) {
          gk->mul_shoup_rows(t, op.evals.data(), op.evals_shoup.data(), n,
                             W);
          return;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        const rep e = op.evals[i];
        const rep es = op.evals_shoup[i];
        rep* row = t + i * W;
        for (std::size_t l = 0; l < W; ++l) {
          row[l] = F::mul_shoup(row[l], e, es);
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const rep e = op.evals[i];
        rep* row = t + i * W;
        for (std::size_t l = 0; l < W; ++l) row[l] = F::mul(row[l], e);
      }
    }
  }

  /// out[0..out_len blocks) = low out_len coefficients (per lane) of
  /// a * op, where a holds la live coefficient blocks in SoA order.
  /// Dispatches to the cached transform (scratch: ws.t1, lane-blocked SoA
  /// NTT) or the lazy truncated schoolbook loop as decided at setup.
  static void mul_trunc(const Fast& f, std::span<const rep> a,
                        const Operand& op, rep* out, std::size_t out_len,
                        Workspace& ws) {
    constexpr std::size_t W = kLaneBlock;
    if (!op.evals.empty()) {
      std::vector<rep>& scratch = ws.t1;
      const NttPlan<F>& plan = f.ntts.at(op.log_n);
      const std::size_t n = plan.size();
      std::fill(scratch.begin(), scratch.begin() + n * W, F::zero);
      std::copy(a.begin(), a.end(), scratch.begin());
      std::span<rep> buf(scratch.data(), n * W);
      plan.forward_soa(buf, W);
      pointwise_rows(scratch.data(), op, n);
      plan.inverse_soa(buf, W);
      std::copy(scratch.begin(), scratch.begin() + out_len * W, out);
      return;
    }
    lazy_zero(ws, out_len);
    schoolbook_into(a, op, out_len, ws);
    lazy_fold_out(ws, out, out_len);
  }

  /// Interpolation combine for one node: res[0..leaves blocks) =
  /// left * poly_right + right * poly_left, fused through one inverse
  /// transform when cached.
  static void combine_node(const Fast& f, const Node& nd,
                           std::span<const rep> left,
                           std::span<const rep> right, rep* res,
                           Workspace& ws) {
    constexpr std::size_t W = kLaneBlock;
    const std::size_t out_len = nd.leaves;
    if (!nd.poly_right.evals.empty() && !nd.poly_left.evals.empty() &&
        nd.poly_right.log_n == nd.poly_left.log_n) {
      const NttPlan<F>& plan = f.ntts.at(nd.poly_right.log_n);
      const std::size_t n = plan.size();
      std::fill(ws.t1.begin(), ws.t1.begin() + n * W, F::zero);
      std::copy(left.begin(), left.end(), ws.t1.begin());
      std::fill(ws.t2.begin(), ws.t2.begin() + n * W, F::zero);
      std::copy(right.begin(), right.end(), ws.t2.begin());
      std::span<rep> b1(ws.t1.data(), n * W), b2(ws.t2.data(), n * W);
      plan.forward_soa(b1, W);
      plan.forward_soa(b2, W);
      pointwise_rows(ws.t1.data(), nd.poly_right, n);
      pointwise_rows(ws.t2.data(), nd.poly_left, n);
      lsa::field::add_inplace<F>(b1, std::span<const rep>(b2));
      plan.inverse_soa(b1, W);
      std::copy(ws.t1.begin(), ws.t1.begin() + out_len * W, res);
      return;
    }
    if (nd.poly_right.evals.empty() && nd.poly_left.evals.empty()) {
      // Fused schoolbook combine: both products share one lazy
      // accumulation and a single fold into the result slot.
      lazy_zero(ws, out_len);
      schoolbook_into(left, nd.poly_right, out_len, ws);
      schoolbook_into(right, nd.poly_left, out_len, ws);
      lazy_fold_out(ws, res, out_len);
      return;
    }
    mul_trunc(f, left, nd.poly_right, res, out_len, ws);
    mul_trunc(f, right, nd.poly_left, ws.t3.data(), out_len, ws);
    lsa::field::add_inplace<F>(
        std::span<rep>(res, out_len * W),
        std::span<const rep>(ws.t3.data(), out_len * W));
  }

  /// One SoA lane block: W gathered columns -> interpolate over xs ->
  /// evaluate at betas, all lanes walking the trees together. Leaves the
  /// |betas| x W values in ws.eval_out.
  void decode_lanes(const Fast& f, Workspace& ws) const {
    constexpr std::size_t W = kLaneBlock;
    const std::size_t u = xs_.size();

    // Leaf coefficients c_j = y_j / M'(x_j): one scalar weight scales all
    // lanes of its block (simd: mul_shoup_rows).
    std::copy(ws.colmat.begin(), ws.colmat.end(), ws.interp_a.begin());
    if constexpr (lsa::field::ShoupCapable<F>) {
      bool done = false;
      if constexpr (lsa::field::simd::kIsGoldilocksField<F>) {
        if (const auto* gk = lsa::field::simd::goldilocks_active()) {
          gk->mul_shoup_rows(ws.interp_a.data(), f.mprime_inv.data(),
                             f.mprime_inv_shoup.data(), u, W);
          done = true;
        }
      }
      if (!done) {
        for (std::size_t j = 0; j < u; ++j) {
          rep* row = ws.interp_a.data() + j * W;
          for (std::size_t l = 0; l < W; ++l) {
            row[l] = F::mul_shoup(row[l], f.mprime_inv[j],
                                  f.mprime_inv_shoup[j]);
          }
        }
      }
    } else {
      for (std::size_t j = 0; j < u; ++j) {
        rep* row = ws.interp_a.data() + j * W;
        for (std::size_t l = 0; l < W; ++l) {
          row[l] = F::mul(row[l], f.mprime_inv[j]);
        }
      }
    }
    // Collapsed bottom levels (the base nodes tile [0, u), so one fold
    // covers them all), then combine up the remaining share-tree levels
    // (positional ping-pong buffers).
    rep* prev = ws.interp_b.data();
    rep* cur = ws.interp_a.data();
    for (const BaseNode& bn : f.interp_base) {
      matvec_soa(bn, ws.interp_a.data() + bn.lo * W, ws);
    }
    lazy_fold_out(ws, prev, u);
    for (std::size_t lv = 0; lv < f.interp_levels.size(); ++lv) {
      if (f.interp_levels[lv].empty()) continue;  // at or below the base
      for (const Node& nd : f.interp_levels[lv]) {
        if (nd.carry) {
          std::copy(prev + nd.lo * W, prev + (nd.lo + nd.leaves) * W,
                    cur + nd.lo * W);
          continue;
        }
        combine_node(
            f, nd,
            std::span<const rep>(prev + nd.lo * W, nd.left_leaves * W),
            std::span<const rep>(prev + (nd.lo + nd.left_leaves) * W,
                                 (nd.leaves - nd.left_leaves) * W),
            cur + nd.lo * W, ws);
      }
      std::swap(prev, cur);
    }
    // prev now holds the interpolation result (nominal size U per lane);
    // walk the beta tree top-down into ws.eval_out.
    eval_walk(f, prev, ws);
  }

  /// Top-down divrem walk over the beta tree's upper levels, then the
  /// collapsed Vandermonde base evaluates each final remainder straight
  /// into ws.eval_out (the eval base nodes tile [0, nb), folded once).
  void eval_walk(const Fast& f, const rep* interp, Workspace& ws) const {
    constexpr std::size_t W = kLaneBlock;
    rep* bufs[2] = {ws.eval_a.data(), ws.eval_b.data()};
    for (std::size_t lv = 0; lv < f.eval_levels.size(); ++lv) {
      rep* cur = bufs[lv % 2];
      const rep* prevbuf = bufs[(lv + 1) % 2];
      const auto& level = f.eval_levels[lv];
      for (std::size_t i = 0; i < level.size(); ++i) {
        const Node& nd = level[i];
        const rep* in =
            lv == 0 ? interp
                    : prevbuf + f.eval_levels[lv - 1][i / 2].lo * W;
        reduce_node(f, nd, in, cur + nd.lo * W, ws);
      }
    }
    const std::size_t nlv = f.eval_levels.size();
    const rep* lastbuf = nlv == 0 ? interp : bufs[(nlv - 1) % 2];
    for (std::size_t i = 0; i < f.eval_base.size(); ++i) {
      const BaseNode& bn = f.eval_base[i];
      const rep* in = nlv == 0
                          ? interp
                          : lastbuf + f.eval_levels[nlv - 1][i / 2].lo * W;
      matvec_soa(bn, in, ws);
    }
    lazy_fold_out(ws, ws.eval_out.data(), betas_.size());
  }

  /// r = f mod node.poly with the node's fixed sizes: f has nd.fs nominal
  /// coefficient blocks, r gets nd.leaves (zero-padded). Pass-through
  /// when the incoming size already fits. Coefficient reversals swap
  /// whole lane blocks; lanes inside a block never move.
  void reduce_node(const Fast& f, const Node& nd, const rep* in, rep* out,
                   Workspace& ws) const {
    constexpr std::size_t W = kLaneBlock;
    if (nd.qlen == 0) {
      std::copy(in, in + nd.fs * W, out);
      std::fill(out + nd.fs * W, out + nd.leaves * W, F::zero);
      return;
    }
    const std::size_t qlen = nd.qlen;
    const std::size_t t = std::min(nd.fs, qlen);
    // rev(f) truncated to the quotient precision: top t coefficients.
    for (std::size_t i = 0; i < t; ++i) {
      std::copy_n(in + (nd.fs - 1 - i) * W, W, ws.t2.data() + i * W);
    }
    // rq = rev(f) * rb_inv mod x^qlen.
    mul_trunc(f, std::span<const rep>(ws.t2.data(), t * W), nd.rb_inv,
              ws.t3.data(), qlen, ws);
    // q = reverse(rq).
    for (std::size_t i = 0; i < qlen; ++i) {
      std::copy_n(ws.t3.data() + (qlen - 1 - i) * W, W,
                  ws.t2.data() + i * W);
    }
    // bq mod x^leaves, using q mod x^leaves and poly mod x^leaves.
    const std::size_t qt = std::min(qlen, nd.leaves);
    mul_trunc(f, std::span<const rep>(ws.t2.data(), qt * W), nd.poly_low,
              ws.t3.data(), nd.leaves, ws);
    std::copy(in, in + nd.leaves * W, out);
    lsa::field::sub_inplace<F>(
        std::span<rep>(out, nd.leaves * W),
        std::span<const rep>(ws.t3.data(), nd.leaves * W));
  }

  // ------------------------------------------------- incremental patching

  /// Applies one replacement xs[p]: o -> v to a copied barycentric
  /// component; cur_xs still holds o at p. See patched_from for the
  /// identity. One batched inversion covers every divisor: slots [0, u)
  /// hold x_j - v (and, at p, M'_new(v)); slots [u, u + nb) hold
  /// beta_k - o.
  static void patch_bary_one(Bary& b, std::span<const rep> cur_xs,
                             std::span<const rep> betas, std::size_t p,
                             rep v) {
    const std::size_t u = cur_xs.size();
    const std::size_t nb = betas.size();
    const rep o = cur_xs[p];
    std::vector<rep> inv(u + nb);
    rep mprime_old_p = F::one;  ///< M'_old(o) = prod_{m != p} (o - x_m)
    rep mprime_new_p = F::one;  ///< M'_new(v) = prod_{m != p} (v - x_m)
    for (std::size_t m = 0; m < u; ++m) {
      if (m == p) continue;
      mprime_old_p = F::mul(mprime_old_p, F::sub(o, cur_xs[m]));
      mprime_new_p = F::mul(mprime_new_p, F::sub(v, cur_xs[m]));
    }
    for (std::size_t j = 0; j < u; ++j) {
      inv[j] = j == p ? mprime_new_p : F::sub(cur_xs[j], v);
    }
    for (std::size_t k = 0; k < nb; ++k) inv[u + k] = F::sub(betas[k], o);
    lsa::field::batch_inv_inplace<F>(std::span<rep>(inv));
    // colfac[j] = (x_j - o)/(x_j - v); colfac[p] = M'_old(o)/M'_new(v) and
    // takes NO row factor (the beta factors cancel for the moved point).
    std::vector<rep> colfac(u);
    for (std::size_t j = 0; j < u; ++j) {
      colfac[j] = j == p ? F::mul(mprime_old_p, inv[p])
                         : F::mul(F::sub(cur_xs[j], o), inv[j]);
    }
    for (std::size_t k = 0; k < nb; ++k) {
      const rep rowfac = F::mul(F::sub(betas[k], v), inv[u + k]);
      auto row = b.w.row(k);
      for (std::size_t j = 0; j < u; ++j) {
        row[j] = F::mul(row[j],
                        j == p ? colfac[p] : F::mul(rowfac, colfac[j]));
      }
    }
  }

  /// Applies one replacement xs[p]: o -> v to a copied fast component:
  /// barycentric denominators by the multiply/divide identity, then the
  /// root-to-leaf interpolation-tree path through leaf p (the beta-side
  /// eval tree never references the xs). Returns the number of
  /// re-multiplied tree nodes.
  static std::size_t patch_fast_one(Fast& f, std::span<const rep> cur_xs,
                                    std::size_t p, rep v) {
    const std::size_t u = cur_xs.size();
    const rep o = cur_xs[p];
    std::vector<rep> inv(u);
    rep mprime_new_p = F::one;
    for (std::size_t m = 0; m < u; ++m) {
      if (m == p) continue;
      mprime_new_p = F::mul(mprime_new_p, F::sub(v, cur_xs[m]));
    }
    for (std::size_t j = 0; j < u; ++j) {
      inv[j] = j == p ? mprime_new_p : F::sub(cur_xs[j], v);
    }
    lsa::field::batch_inv_inplace<F>(std::span<rep>(inv));
    for (std::size_t j = 0; j < u; ++j) {
      f.mprime_inv[j] =
          j == p ? inv[p]
                 : F::mul(f.mprime_inv[j],
                          F::mul(F::sub(cur_xs[j], o), inv[j]));
    }
    if constexpr (lsa::field::ShoupCapable<F>) {
      f.mprime_inv_shoup = lsa::field::shoup_precompute_vec<F>(
          std::span<const rep>(f.mprime_inv));
    }

    // Rebuild the collapsed base node containing leaf p: its polynomial
    // is the product of its leaf linears (exact ring products are
    // association-independent, so this matches the tree build bit for
    // bit), and its Lagrange-basis matrix the same quotients the builder
    // derives.
    std::size_t bi = 0;
    while (!(f.interp_base[bi].lo <= p &&
             p < f.interp_base[bi].lo + f.interp_base[bi].m)) {
      ++bi;
    }
    BaseNode& bn = f.interp_base[bi];
    const auto leaf_x = [&](std::size_t j) {
      return bn.lo + j == p ? v : cur_xs[bn.lo + j];
    };
    std::vector<rep> node_poly{F::one};
    for (std::size_t j = 0; j < bn.m; ++j) {
      const std::vector<rep> leaf{F::neg(leaf_x(j)), F::one};
      node_poly = polymul<F>(std::span<const rep>(node_poly),
                             std::span<const rep>(leaf));
    }
    for (std::size_t j = 0; j < bn.m; ++j) {
      const std::vector<rep> leaf{F::neg(leaf_x(j)), F::one};
      auto basis = poly_divrem<F>(std::span<const rep>(node_poly),
                                  std::span<const rep>(leaf))
                       .quotient;
      basis.resize(bn.m, F::zero);
      for (std::size_t r = 0; r < bn.m; ++r) {
        bn.mat[r * bn.fs + j] = basis[r];
      }
    }
    std::size_t patched = 1;

    // Walk the ancestors: overwrite the dirty child operand at each
    // stored node, refresh its cached transform, and re-multiply the
    // node's polynomial for the next level. Carried nodes store nothing —
    // the child polynomial passes through.
    std::vector<rep> cur_poly = std::move(node_poly);
    std::size_t child = bi;
    for (std::size_t lv = 0; lv < f.interp_levels.size(); ++lv) {
      auto& level = f.interp_levels[lv];
      if (level.empty()) continue;  // at or below the collapsed base
      const std::size_t pi = child / 2;
      Node& nd = level[pi];
      if (nd.carry) {
        child = pi;
        continue;
      }
      Operand& op = child % 2 == 0 ? nd.poly_left : nd.poly_right;
      op.coeffs = cur_poly;
      op.log_n = 0;
      op.evals.clear();
      op.evals_shoup.clear();
      finalize_operand(f, op, nd.leaves);
      cur_poly = polymul<F>(std::span<const rep>(nd.poly_left.coeffs),
                            std::span<const rep>(nd.poly_right.coeffs));
      ++patched;
      child = pi;
    }
    return patched;
  }

  std::vector<rep> xs_, betas_;
  /// Guards the lazily built components below — only the POINTERS: a
  /// built Bary/Fast is immutable, so the references bary()/fast() hand
  /// out are safe to use unlocked.
  mutable lsa::sync::Mutex mu_;
  mutable std::unique_ptr<Bary> bary_ LSA_GUARDED_BY(mu_);
  mutable std::unique_ptr<Fast> fast_ LSA_GUARDED_BY(mu_);
  bool patched_ = false;
  std::size_t patched_nodes_ = 0;
};

}  // namespace lsa::coding

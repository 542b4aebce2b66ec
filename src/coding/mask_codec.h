// T-private MDS mask encoding / one-shot aggregate decoding — the core
// primitive of LightSecAgg (paper §4.1, eq. (5), Appendix B).
//
// Construction. We realize the T-private MDS matrix W of eq. (5) in the
// Lagrange-coded-computing form the paper cites (Yu et al. 2019):
//
//   * Fix U distinct nonzero "slot" points beta_1..beta_U. The first U-T
//     slots carry the mask segments [z_i]_k, the last T slots carry the
//     uniformly random padding segments [n_i]_k.
//   * Fix N distinct "share" points alpha_1..alpha_N, disjoint from the betas.
//   * User i forms the unique polynomial f_i of degree < U with
//     f_i(beta_k) = segment k, and sends [~z_i]_j = f_i(alpha_j) to user j.
//
// The induced U×N matrix W[k][j] = l_k(alpha_j) (Lagrange basis over the
// betas) is MDS: any U columns correspond to U evaluations of a degree-<U
// polynomial, an invertible relation. It is T-private: the bottom T rows
// evaluated at any T share points factor as diag · Cauchy · diag with all
// factors invertible (tests/coding_test.cpp checks both properties
// exhaustively for small parameters, and the encode oracle test checks W
// and every share against textbook Lagrange interpolation).
//
// Construction cost. W comes from barycentric_weights
// (coding/decode_plan.h): one O(U^2) pass for the shared denominators
// M'(beta_k), then O(U) per share point, so O(U^2 + N*U) in all. A
// session builds one codec per device plus the server's, so this is most
// of a session's set-up at N = 200.
//
// One-shot decoding. Because all users share W, aggregated shares
// sum_{i in U1} f_i(alpha_j) are evaluations of the aggregate polynomial
// g = sum_{i in U1} f_i. From any U of them the server interpolates g and
// reads the aggregate mask segments off g(beta_1..beta_{U-T}) — one shot,
// independent of how many users dropped.
//
// Execution model. All hot paths run on flat arenas (field/flat_matrix.h)
// and the fused blocked kernels of field/field_vec.h:
//
//   * encode_into writes one user's N shares into caller-chosen rows —
//     row pointers (a device's share frames) or rows of a shared arena
//     (disjoint rows -> safe to run one user per pool lane) — reading the
//     mask's data segments in place, with scratch only for a zero-padded
//     tail segment and the T noise segments.
//     The N x U x seg_len product runs through field::gemm_rows: on 32-bit
//     fields with an AVX-512 or AVX2 table, a register-tiled split-word
//     kernel holds a tile of share rows x one lane block in registers
//     across all U segments, so each segment row is read once per tile
//     rather than once per share; other levels and 64-bit fields run one
//     fused axpy_accumulate row per share;
//   * encode_all batches a whole round: arena row j*N + i holds [~z_i]_j,
//     so holder j's shares form one contiguous row block for the
//     aggregation pass;
//   * decode_aggregate_rows is the one decode entry point: it takes share
//     *row views* (flat arena rows, share-bank rows, wire buffers) without
//     copying and fans the coordinate range out over a sys::ExecPolicy.
//     The flat-arena, verified and error-correcting decodes all route
//     through it.
//
// Decoding is plan-based: the codec keeps a per-instance LRU cache of
// coding::BatchedDecodePlan keyed on the SORTED survivor point set (hash
// precomputed once per lookup), so repeated rounds with the same survivors
// pay the subproduct-tree / twiddle / weight-table setup once and stream
// at marginal cost (the codec lives for a session, making this a
// per-session cache). Under small survivor churn the cache patches instead
// of rebuilding: a requested set differing from a cached plan's by at most
// kMaxPatchChurn points goes through BatchedDecodePlan::patched_from —
// only the dirtied root-to-leaf tree paths and the barycentric weight
// updates are recomputed, bit-identical to a fresh build. kAuto picks the
// GEMM or the batched fast path from (U, U-T) via the measured crossover
// (coding/decode_plan.h); last_decode_stats() reports what ran, the
// setup-vs-stream split, and the cumulative full-build / patch / eviction
// counters. Every path is bit-identical under every policy and strategy
// (tests/parallel_codec_test.cpp, tests/decode_strategy_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "coding/decode_plan.h"
#include "coding/error_correction.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "field/field_vec.h"
#include "field/flat_matrix.h"
#include "field/random_field.h"
#include "sys/exec_policy.h"

namespace lsa::coding {

template <class F>
class MaskCodec {
 public:
  using rep = typename F::rep;
  using Matrix = lsa::field::FlatMatrix<F>;

  /// N users, target U surviving users, privacy T, mask length d.
  /// Requires U > T >= 0, U <= N, and N + U < q.
  MaskCodec(std::size_t num_users, std::size_t target_survivors,
            std::size_t privacy, std::size_t mask_len)
      : n_(num_users), u_(target_survivors), t_(privacy), d_(mask_len) {
    lsa::require<lsa::CodingError>(u_ > t_, "mask codec: need U > T");
    lsa::require<lsa::CodingError>(u_ <= n_, "mask codec: need U <= N");
    lsa::require<lsa::CodingError>(d_ >= 1, "mask codec: empty mask");
    lsa::require<lsa::CodingError>(
        static_cast<std::uint64_t>(n_) + u_ + 1 < F::modulus,
        "mask codec: field too small for N + U points");
    seg_len_ = (d_ + (u_ - t_) - 1) / (u_ - t_);

    beta_.resize(u_);
    for (std::size_t k = 0; k < u_; ++k) beta_[k] = static_cast<rep>(k + 1);
    alpha_.resize(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      alpha_[j] = static_cast<rep>(u_ + 1 + j);
    }

    // Encoding matrix W[k][j] = l_k(alpha_j), stored with one row per
    // share index j (i.e. column-major in W) so encoding share j streams
    // one contiguous coefficient row. The barycentric form shares the
    // M'(beta_k) denominators across all N shares: O(U^2 + N*U).
    w_cols_ = barycentric_weights<F>(std::span<const rep>(beta_),
                                     std::span<const rep>(alpha_));
  }

  [[nodiscard]] std::size_t num_users() const { return n_; }
  [[nodiscard]] std::size_t target_survivors() const { return u_; }
  [[nodiscard]] std::size_t privacy() const { return t_; }
  [[nodiscard]] std::size_t mask_len() const { return d_; }
  /// Segment length L = ceil(d / (U - T)); every share has this length.
  [[nodiscard]] std::size_t segment_len() const { return seg_len_; }
  [[nodiscard]] std::size_t num_data_segments() const { return u_ - t_; }

  /// Column j of the encoding matrix (exposed for tests / analysis).
  [[nodiscard]] std::span<const rep> encoding_column(std::size_t j) const {
    return w_cols_.row(j);
  }

  // ---------------------------------------------------------------- encode

  /// Encodes one user's mask straight into N caller-owned rows:
  /// dst_rows[j] <- [~z]_j, segment_len() reps each (a device passes its
  /// share frames' payloads and its own share-bank row). The U-T data
  /// segments are read in place from `mask`; only a zero-padded tail
  /// segment and the T noise segments, drawn from noise_rng in slot order,
  /// take scratch. Concurrent callers with disjoint rows need no
  /// synchronization.
  template <lsa::field::BitSource G>
  void encode_into(std::span<const rep> mask, G& noise_rng,
                   std::span<rep* const> dst_rows,
                   std::size_t chunk = 0) const {
    std::vector<const rep*> seg_rows(u_);
    Matrix scratch = data_segments(mask, seg_rows);
    for (std::size_t k = 0; k < t_; ++k) {
      const auto row = scratch.row(scratch.rows() - t_ + k);
      lsa::field::fill_uniform<F>(row, noise_rng);
      seg_rows[u_ - t_ + k] = row.data();
    }
    encode_segments_into(seg_rows, dst_rows, chunk);
  }

  /// Arena variant: out.row(base + j*stride) = [~z]_j. Rows written are
  /// disjoint per (base, stride) choice, so concurrent callers encoding
  /// different users into one arena need no synchronization.
  template <lsa::field::BitSource G>
  void encode_into(std::span<const rep> mask, G& noise_rng, Matrix& out,
                   std::size_t base = 0, std::size_t stride = 1,
                   std::size_t chunk = 0) const {
    const auto dst = arena_rows(out, base, stride);
    encode_into(mask, noise_rng, std::span<rep* const>(dst), chunk);
  }

  /// Deterministic variant: caller supplies the T noise segments as the
  /// rows of `noise`.
  void encode_with_noise_into(std::span<const rep> mask, const Matrix& noise,
                              Matrix& out, std::size_t base = 0,
                              std::size_t stride = 1,
                              std::size_t chunk = 0) const {
    lsa::require<lsa::CodingError>(
        noise.rows() == t_ && (t_ == 0 || noise.cols() == seg_len_),
        "encode: need exactly T noise segments of segment_len");
    std::vector<const rep*> seg_rows(u_);
    const Matrix scratch = data_segments(mask, seg_rows);
    for (std::size_t k = 0; k < t_; ++k) {
      seg_rows[u_ - t_ + k] = noise.row_ptr(k);
    }
    const auto dst = arena_rows(out, base, stride);
    encode_segments_into(seg_rows, std::span<rep* const>(dst), chunk);
  }

  /// Batch-encodes a whole round: masks.row(i) = z_i for all N users.
  /// Returns the share arena with row j*N + i = [~z_i]_j — holder j's
  /// shares are the contiguous row block [j*N, (j+1)*N). make_noise_rng(i)
  /// must return the (value-typed) noise bit source for user i; users fan
  /// out across pol.pool.
  template <class RngFactory>
  [[nodiscard]] Matrix encode_all(const Matrix& masks,
                                  RngFactory&& make_noise_rng,
                                  const lsa::sys::ExecPolicy& pol = {}) const {
    lsa::require<lsa::CodingError>(masks.rows() == n_ && masks.cols() == d_,
                                   "encode_all: masks must be N x d");
    Matrix arena(n_ * n_, seg_len_);
    pol.run(n_, [&](std::size_t i) {
      auto rng = make_noise_rng(i);
      encode_into(masks.row(i), rng, arena, /*base=*/i, /*stride=*/n_,
                  pol.chunk_reps);
    });
    return arena;
  }

  // ---------------------------------------------------------------- decode

  /// What the last decode on this codec actually did: the resolved
  /// strategy, whether the per-session plan cache already held the
  /// survivor set's plan (or patched a small-churn neighbor), and the
  /// setup-vs-streaming time split (the amortization the cache buys). The
  /// trailing counters are cumulative over the codec's lifetime — the
  /// plan-maintenance telemetry sessions fold into their stats.
  struct DecodeStats {
    DecodeStrategy used = DecodeStrategy::kAuto;
    bool plan_reused = false;
    bool plan_patched = false;      ///< this decode patched a cached plan
    std::size_t patched_nodes = 0;  ///< tree nodes the patch re-multiplied
    double setup_s = 0.0;   ///< plan setup/patch paid by this decode
    double stream_s = 0.0;  ///< coordinate streaming time
    std::uint64_t full_builds = 0;          ///< cumulative from-scratch plans
    std::uint64_t incremental_patches = 0;  ///< cumulative patched plans
    std::uint64_t evictions = 0;            ///< cumulative LRU evictions
  };

  [[nodiscard]] DecodeStats last_decode_stats() const {
    lsa::sync::MutexLock lk(plans_->mu);
    return plans_->last_stats;
  }

  /// Plan-cache bound: cached plans never outnumber the distinct survivor
  /// sets a session realistically sees; the cap only bounds adversarial
  /// churn (least-recently-used plans evict first).
  static constexpr std::size_t kMaxCachedPlans = 32;

  /// Patch-vs-rebuild crossover: a requested survivor set differing from a
  /// cached plan's by at most this many points is patched
  /// (BatchedDecodePlan::patched_from) instead of rebuilt. Patch cost is
  /// ~linear in churn while a rebuild is flat, so the measured
  /// patch-vs-rebuild speedup (bench/ablation_decode_complexity,
  /// plan-maintenance part) tracks ~20/churn uniformly across
  /// U in [64, 1024]: ~20x at churn 1, ~10x at 2, ~5.5x at 4, ~2.7-3x at
  /// 8, ~1.9x at 12, ~1.45x at 16, break-even near churn ~20. The bound
  /// sits at 8 — the largest churn that keeps a comfortable >= 2.7x
  /// margin at every U (floored in bench/decode_tolerance.json); beyond
  /// it the shrinking win stops covering cache-pollution risk from
  /// heavily-diverged bases.
  static constexpr std::size_t kMaxPatchChurn = 8;

  /// One-shot aggregate decode over share *row views*: share_owners[j] is
  /// the 0-based user id whose aggregated share rows[j] (seg_len reps) is
  /// given. Needs at least U distinct owners; uses the first U. Returns
  /// the aggregate mask sum_{i in U1} z_i (length d). kAuto (the default)
  /// picks the GEMM or the batched fast path from the measured crossover;
  /// both are bit-exact, and both hit this codec's plan cache keyed on the
  /// survivor set.
  [[nodiscard]] std::vector<rep> decode_aggregate_rows(
      std::span<const std::size_t> share_owners,
      std::span<const rep* const> rows,
      const lsa::sys::ExecPolicy& pol = {},
      DecodeStrategy strategy = DecodeStrategy::kAuto) const {
    lsa::require<lsa::ProtocolError>(
        share_owners.size() == rows.size(),
        "decode: owners/shares size mismatch");
    lsa::require<lsa::ProtocolError>(
        share_owners.size() >= u_,
        "decode: fewer than U aggregated shares — unrecoverable round");

    // Canonical cache key: the sorted survivor points (the decode result
    // is order-independent — the interpolant is unique and every kernel
    // returns canonical field elements). order[a] = incoming row index of
    // the a-th smallest point; sorted, duplicates are adjacent.
    std::vector<std::uint32_t> order(u_);
    for (std::size_t j = 0; j < u_; ++j) {
      lsa::require<lsa::ProtocolError>(share_owners[j] < n_,
                                       "decode: share owner out of range");
      order[j] = static_cast<std::uint32_t>(j);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return alpha_[share_owners[a]] < alpha_[share_owners[b]];
              });
    std::vector<rep> sorted_xs(u_);
    for (std::size_t a = 0; a < u_; ++a) {
      sorted_xs[a] = alpha_[share_owners[order[a]]];
      lsa::require<lsa::ProtocolError>(
          a == 0 || sorted_xs[a] != sorted_xs[a - 1],
          "decode: duplicate share owners");
    }

    // Evaluate the aggregate polynomial g at the U-T data slots.
    DecodeStats stats;
    lsa::common::Stopwatch sw;
    auto found = plan_for(std::move(sorted_xs));
    stats.plan_reused = found.reused;
    stats.plan_patched = found.patched;
    stats.patched_nodes = found.patched_nodes;
    // Rows in the plan's own point order: patched plans keep their base's
    // order, fresh plans the sorted key (empty perm = identity).
    std::vector<const rep*> plan_rows(u_);
    for (std::size_t j = 0; j < u_; ++j) {
      const std::size_t s = found.perm.empty() ? j : found.perm[j];
      plan_rows[j] = rows[order[s]];
    }
    stats.used = found.plan->resolve(strategy);
    const double setup_before = plan_setup_seconds(*found.plan);
    auto out = found.plan->run(stats.used,
                               std::span<const rep* const>(plan_rows),
                               seg_len_, pol);
    stats.setup_s =
        found.patch_s + plan_setup_seconds(*found.plan) - setup_before;
    stats.stream_s = sw.elapsed_sec() - stats.setup_s;
    {
      lsa::sync::MutexLock lk(plans_->mu);
      stats.full_builds = plans_->full_builds;
      stats.incremental_patches = plans_->incremental_patches;
      stats.evictions = plans_->evictions;
      plans_->last_stats = stats;
    }
    out.resize(d_);  // drop zero padding
    return out;
  }

  /// Flat-arena decode: agg_shares.row(j) is owner share_owners[j]'s
  /// aggregated share.
  [[nodiscard]] std::vector<rep> decode_aggregate(
      std::span<const std::size_t> share_owners, const Matrix& agg_shares,
      const lsa::sys::ExecPolicy& pol = {},
      DecodeStrategy strategy = DecodeStrategy::kAuto) const {
    lsa::require<lsa::ProtocolError>(
        agg_shares.rows() == 0 || agg_shares.cols() == seg_len_,
        "decode: bad share length");
    const auto rows = agg_shares.row_ptrs();
    return decode_aggregate_rows(share_owners,
                                 std::span<const rep* const>(rows), pol,
                                 strategy);
  }

  /// Decodes twice from disjoint-as-possible share subsets and cross-checks
  /// — an error-*detecting* decode. With r = (#shares - U) redundant
  /// responses, any set of tampered shares that is not carefully coordinated
  /// across both subsets yields disagreeing decodes (MDS distance). This is
  /// the first step toward the Byzantine-robust extension the paper lists
  /// as future work (§8): detect, don't yet correct.
  /// Requires at least U + 1 shares; throws CodingError on mismatch.
  [[nodiscard]] std::vector<rep> decode_aggregate_verified_rows(
      std::span<const std::size_t> share_owners,
      std::span<const rep* const> rows,
      const lsa::sys::ExecPolicy& pol = {}) const {
    lsa::require<lsa::ProtocolError>(
        share_owners.size() == rows.size(),
        "decode: owners/shares size mismatch");
    lsa::require<lsa::ProtocolError>(
        share_owners.size() >= u_ + 1,
        "verified decode: need at least U+1 shares for redundancy");
    // Subset A: first U shares. Subset B: last U shares (maximally shifted).
    const std::size_t shift = share_owners.size() - u_;
    auto a = decode_aggregate_rows(share_owners.first(u_), rows.first(u_),
                                   pol);
    auto b = decode_aggregate_rows(share_owners.subspan(shift),
                                   rows.subspan(shift), pol);
    lsa::require<lsa::CodingError>(
        a == b,
        "verified decode: redundant decodes disagree — share tampering or "
        "corruption detected");
    return a;
  }

  [[nodiscard]] std::vector<rep> decode_aggregate_verified(
      std::span<const std::size_t> share_owners, const Matrix& agg_shares,
      const lsa::sys::ExecPolicy& pol = {}) const {
    lsa::require<lsa::ProtocolError>(
        agg_shares.rows() == 0 || agg_shares.cols() == seg_len_,
        "decode: bad share length");
    const auto rows = agg_shares.row_ptrs();
    return decode_aggregate_verified_rows(
        share_owners, std::span<const rep* const>(rows), pol);
  }

  struct CorrectedAggregate {
    std::vector<rep> aggregate;
    /// User ids whose aggregated shares were corrupted and discarded.
    std::vector<std::size_t> corrupted_owners;
  };

  /// Error-*correcting* decode (the full upgrade of the §8 first step):
  /// with r = #responses - U redundant shares, locates and discards up to
  /// floor(r/2) corrupted responses and still recovers the exact aggregate.
  ///
  /// Location runs Berlekamp-Welch once on a random linear combination of
  /// the seg_len coordinates (corruption is per-responder, so one locator
  /// pass suffices; a corrupted share escaping the random probe has
  /// probability <= #responses/q, about 2^-28 at Fp32 — vanishing, and the
  /// paper's honest-but-curious baseline assumes zero corruption anyway).
  /// Throws CodingError when more shares are corrupted than the redundancy
  /// can fix (detected via the BW consistency check, never mis-decoded).
  /// rows[j] views owner share_owners[j]'s aggregated share (seg_len reps,
  /// read in place); the final decode of the clean rows runs under pol.
  [[nodiscard]] CorrectedAggregate decode_aggregate_corrected(
      std::span<const std::size_t> share_owners,
      std::span<const rep* const> rows,
      const lsa::sys::ExecPolicy& pol = {},
      std::uint64_t probe_seed = 0x5eedu) const {
    lsa::require<lsa::ProtocolError>(
        share_owners.size() == rows.size(),
        "corrected decode: owners/shares size mismatch");
    lsa::require<lsa::ProtocolError>(
        share_owners.size() >= u_,
        "corrected decode: fewer than U responses");
    const std::size_t n_resp = share_owners.size();
    const std::size_t budget = (n_resp - u_) / 2;

    std::vector<rep> xs(n_resp), ys(n_resp);
    lsa::common::Xoshiro256ss rng(probe_seed);
    const auto probe = lsa::field::uniform_vector<F>(seg_len_, rng);
    for (std::size_t j = 0; j < n_resp; ++j) {
      lsa::require<lsa::ProtocolError>(share_owners[j] < n_,
                                       "corrected decode: owner range");
      xs[j] = alpha_[share_owners[j]];
      ys[j] = lsa::field::dot<F>(std::span<const rep>(probe),
                                 std::span<const rep>(rows[j], seg_len_));
    }

    const auto bw = berlekamp_welch<F>(std::span<const rep>(xs),
                                       std::span<const rep>(ys), u_, budget);
    lsa::require<lsa::CodingError>(
        bw.has_value(),
        "corrected decode: more corrupted shares than the redundancy can "
        "fix — aborting rather than mis-decoding");

    CorrectedAggregate out;
    std::vector<std::size_t> clean_owners;
    std::vector<const rep*> clean_rows;
    std::size_t next_err = 0;
    for (std::size_t j = 0; j < n_resp; ++j) {
      if (next_err < bw->error_positions.size() &&
          bw->error_positions[next_err] == j) {
        out.corrupted_owners.push_back(share_owners[j]);
        ++next_err;
        continue;
      }
      clean_owners.push_back(share_owners[j]);
      clean_rows.push_back(rows[j]);
    }
    out.aggregate = decode_aggregate_rows(
        clean_owners, std::span<const rep* const>(clean_rows), pol);
    return out;
  }

 private:
  /// Points seg_rows[0, U-T) at the mask's seg_len pieces: whole pieces
  /// in place, the zero-padded rest in the returned scratch, whose last T
  /// rows are left for the noise segments.
  [[nodiscard]] Matrix data_segments(std::span<const rep> mask,
                                     std::vector<const rep*>& seg_rows) const {
    lsa::require<lsa::CodingError>(mask.size() == d_,
                                   "encode: mask length != d");
    const std::size_t whole = d_ / seg_len_;  // <= U-T by seg_len's choice
    Matrix scratch(u_ - whole, seg_len_);     // zero-initialized
    for (std::size_t k = 0; k < u_ - t_; ++k) {
      const std::size_t off = k * seg_len_;
      if (k < whole) {
        seg_rows[k] = mask.data() + off;
        continue;
      }
      auto seg = scratch.row(k - whole);
      const std::size_t n = std::min(seg_len_, d_ - std::min(d_, off));
      std::copy(mask.begin() + off, mask.begin() + off + n, seg.begin());
      seg_rows[k] = seg.data();
    }
    return scratch;
  }

  /// Row pointers {base + j*stride} of an arena, checked against its shape.
  [[nodiscard]] std::vector<rep*> arena_rows(Matrix& out, std::size_t base,
                                             std::size_t stride) const {
    lsa::require<lsa::CodingError>(out.cols() == seg_len_,
                                   "encode: arena column width != seg_len");
    lsa::require<lsa::CodingError>(
        base + (n_ - 1) * stride < out.rows(),
        "encode: arena too small for N share rows");
    std::vector<rep*> dst(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      dst[j] = out.row_ptr(base + j * stride);
    }
    return dst;
  }

  /// Share j <- sum_k W[k][j] * segment k: one N x U x seg_len product
  /// through the multi-row GEMM kernel.
  void encode_segments_into(const std::vector<const rep*>& seg_rows,
                            std::span<rep* const> dst_rows,
                            std::size_t chunk) const {
    lsa::require<lsa::CodingError>(dst_rows.size() == n_,
                                   "encode: need N share rows");
    lsa::field::gemm_rows<F>(dst_rows, w_cols_.row_ptr(0), u_,
                             std::span<const rep* const>(seg_rows), seg_len_,
                             chunk);
  }

  /// One cached plan. key_xs is the SORTED survivor point set with its
  /// hash precomputed at insert time — a lookup hashes the incoming key
  /// once and compares hashes before any vector comparison. perm maps
  /// plan-xs order to key order (plan->xs()[j] == key_xs[perm[j]]); empty
  /// means identity (fresh plans are built from the sorted key; patched
  /// plans inherit their base's order with replaced slots).
  struct CacheEntry {
    std::size_t hash = 0;
    std::vector<rep> key_xs;
    std::vector<std::uint32_t> perm;
    std::shared_ptr<BatchedDecodePlan<F>> plan;
  };

  /// Per-session decode-plan cache (front = most recently used; a small
  /// LRU bounded by kMaxCachedPlans). Held behind a shared_ptr so the
  /// codec stays copyable; copies share the cache, which is correct —
  /// they share the parameters that determine every plan.
  struct PlanCache {
    lsa::sync::Mutex mu;
    std::list<CacheEntry> entries LSA_GUARDED_BY(mu);
    std::uint64_t full_builds LSA_GUARDED_BY(mu) = 0;
    std::uint64_t incremental_patches LSA_GUARDED_BY(mu) = 0;
    std::uint64_t evictions LSA_GUARDED_BY(mu) = 0;
    DecodeStats last_stats LSA_GUARDED_BY(mu);
  };

  struct PlanLookup {
    std::shared_ptr<BatchedDecodePlan<F>> plan;
    std::vector<std::uint32_t> perm;  ///< plan order -> sorted-key order
    bool reused = false;
    bool patched = false;
    std::size_t patched_nodes = 0;
    double patch_s = 0.0;  ///< time spent patching (0 on hit / full build)
  };

  [[nodiscard]] static std::size_t hash_points(std::span<const rep> xs) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const rep x : xs) {
      h ^= static_cast<std::uint64_t>(x) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }

  /// Elements of sorted `a` not present in sorted `b` (== vice versa for
  /// equal sizes); returns limit + 1 as soon as the count exceeds limit.
  [[nodiscard]] static std::size_t churn_between(std::span<const rep> a,
                                                 std::span<const rep> b,
                                                 std::size_t limit) {
    std::size_t ia = 0, ib = 0, c = 0;
    while (ia < a.size() && ib < b.size()) {
      if (a[ia] == b[ib]) {
        ++ia;
        ++ib;
      } else if (a[ia] < b[ib]) {
        if (++c > limit) return limit + 1;
        ++ia;
      } else {
        ++ib;
      }
    }
    c += a.size() - ia;
    return c > limit ? limit + 1 : c;
  }

  /// Returns the plan for this SORTED survivor point set: an exact cache
  /// hit (moved to the LRU front), else a patch of the closest cached
  /// plan within kMaxPatchChurn replacements, else a fresh build. The
  /// incoming key is hashed exactly once.
  [[nodiscard]] PlanLookup plan_for(std::vector<rep> sorted_xs) const {
    const std::size_t h = hash_points(std::span<const rep>(sorted_xs));
    lsa::sync::MutexLock lk(plans_->mu);
    auto& entries = plans_->entries;
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->hash != h || it->key_xs != sorted_xs) continue;
      entries.splice(entries.begin(), entries, it);
      return {it->plan, it->perm, true, false, 0, 0.0};
    }
    // Miss: scan (in LRU order) for the closest patchable base.
    const CacheEntry* base = nullptr;
    std::size_t best_churn = kMaxPatchChurn + 1;
    for (const auto& e : entries) {
      const std::size_t c = churn_between(
          std::span<const rep>(e.key_xs), std::span<const rep>(sorted_xs),
          kMaxPatchChurn);
      if (c > 0 && c < best_churn) {
        best_churn = c;
        base = &e;
        if (c == 1) break;
      }
    }
    PlanLookup out;
    if (base != nullptr) {
      lsa::common::Stopwatch sw;
      // Pair the points leaving the base's set with the points entering,
      // in sorted order, and locate each leaver in the base plan's own
      // (not necessarily sorted) point order.
      std::vector<rep> removed, added;
      removed.reserve(best_churn);
      added.reserve(best_churn);
      std::size_t ia = 0, ib = 0;
      const auto& k = base->key_xs;
      while (ia < k.size() || ib < sorted_xs.size()) {
        if (ia < k.size() && ib < sorted_xs.size() &&
            k[ia] == sorted_xs[ib]) {
          ++ia;
          ++ib;
        } else if (ib >= sorted_xs.size() ||
                   (ia < k.size() && k[ia] < sorted_xs[ib])) {
          removed.push_back(k[ia++]);
        } else {
          added.push_back(sorted_xs[ib++]);
        }
      }
      const auto base_xs = base->plan->xs();
      std::vector<typename BatchedDecodePlan<F>::PointReplacement> reps(
          removed.size());
      for (std::size_t r = 0; r < removed.size(); ++r) {
        std::size_t pos = 0;
        while (base_xs[pos] != removed[r]) ++pos;
        reps[r] = {pos, added[r]};
      }
      out.plan = BatchedDecodePlan<F>::patched_from(
          *base->plan,
          std::span<const typename BatchedDecodePlan<F>::PointReplacement>(
              reps));
      out.patched = true;
      out.patched_nodes = out.plan->patched_nodes();
      out.patch_s = sw.elapsed_sec();
      const auto pxs = out.plan->xs();
      out.perm.resize(pxs.size());
      for (std::size_t j = 0; j < pxs.size(); ++j) {
        out.perm[j] = static_cast<std::uint32_t>(
            std::lower_bound(sorted_xs.begin(), sorted_xs.end(), pxs[j]) -
            sorted_xs.begin());
      }
      ++plans_->incremental_patches;
    } else {
      out.plan = std::make_shared<BatchedDecodePlan<F>>(
          std::span<const rep>(sorted_xs),
          std::span<const rep>(beta_.data(), u_ - t_));
      ++plans_->full_builds;
    }
    entries.push_front(CacheEntry{h, std::move(sorted_xs), out.perm,
                                  out.plan});
    if (entries.size() > kMaxCachedPlans) {
      // Evict the least-recently-used entry rather than clearing: a
      // churny session keeps its other hot plans instead of re-paying
      // every setup at once.
      entries.pop_back();
      ++plans_->evictions;
    }
    return out;
  }

  [[nodiscard]] static double plan_setup_seconds(
      const BatchedDecodePlan<F>& plan) {
    return plan.barycentric_setup_seconds() + plan.batched_setup_seconds();
  }

  std::size_t n_;
  std::size_t u_;
  std::size_t t_;
  std::size_t d_;
  std::size_t seg_len_ = 0;
  std::vector<rep> beta_;
  std::vector<rep> alpha_;
  Matrix w_cols_;  ///< row j = column j of W (the U coefficients of share j)
  std::shared_ptr<PlanCache> plans_ = std::make_shared<PlanCache>();
};

}  // namespace lsa::coding

// LightSecAgg as communicating state machines.
//
// Complements src/protocol/lightsecagg.h (the orchestrated implementation
// used for tests/cost accounting) with the *system* shape of the paper's
// Fig. 4: every user and the server is an isolated object that only reacts
// to serialized messages delivered by a Transport. This layer exercises
// realistic failure semantics:
//
//   * "delayed, not dropped" (paper footnote 3 / proof of Thm. 1): a user
//     whose masked model arrived but who then crashes IS included in the
//     aggregate — its mask is recovered from the shares held by others;
//   * the server decides U1 from what actually arrived, not from a script;
//   * recovery succeeds from ANY U responding users.
//
// One UserDevice and one AggregationServer serve both protocol modes: sync
// rounds (start_round, answered by the server's survivor set) and the
// async buffer cycles of runtime/async_machines.h (submit_update, answered
// by a buffer manifest). The server folds every upload on arrival into a
// running sum keyed by its wire round; a recovery request seals the sums
// it lists, and every finish retires them. This header also holds
// NetworkBase (what the two in-process drivers share: router, devices,
// server, pump) and Network, the sync driver; AsyncNetwork lives in
// runtime/async_machines.h.
//
// Frame ownership. Devices write every payload in place: the masked
// upload is drawn and masked inside its frame, the N-1 shares are encoded
// straight into their frames (and the device's own share into its bank
// row), and a recovery response is summed inside its frame; Transport::
// send seals each frame once. The N-1 share frames are one batch
// (Transport::acquire_batch): ranges of one pooled block, allocated once
// per fan-out and freed by whichever lane releases the last of them.
// Handlers consume *payload views* (handle_view -> on_payload): a span
// aliasing the pooled frame. A share is copied once, into the receiver's
// ShareBank row, and its frame is released on delivery; an upload is
// added into the server's running sum for its wire round and never
// stored.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "coding/mask_codec.h"
#include "common/error.h"
#include "crypto/prg.h"
#include "field/field_vec.h"
#include "field/flat_matrix.h"
#include "field/random_field.h"
#include "protocol/params.h"
#include "quant/staleness.h"
#include "runtime/transport.h"
#include "runtime/wire.h"
#include "sys/exec_policy.h"
#include "transport/concurrent_router.h"
#include "transport/frame.h"

namespace lsa::runtime {

class Party {
 public:
  virtual ~Party() = default;
  /// Delivery entry: `f.payload` aliases the frame buffer and is valid
  /// only for the duration of the call.
  virtual void handle_view(const lsa::transport::FrameView& f) = 0;
};

/// Per-round flat store of length-`cols` payload rows keyed by sender: one
/// arena allocation instead of one heap vector per (sender, round). The
/// presence bitmap distinguishes "row never arrived" from "row of zeros".
/// Dimensioned by reset().
template <class F>
struct ShareBank {
  lsa::field::FlatMatrix<F> rows;
  std::vector<std::uint8_t> present;

  void put(std::size_t r, std::span<const typename F::rep> payload) {
    auto dst = rows.row(r);
    std::copy(payload.begin(), payload.end(), dst.begin());
    present[r] = 1;
  }
  /// Row r for the caller to write in place (a device encoding its own
  /// share); marks it present.
  [[nodiscard]] typename F::rep* claim(std::size_t r) {
    present[r] = 1;
    return rows.row_ptr(r);
  }
  [[nodiscard]] bool has(std::size_t r) const { return present[r] != 0; }
  [[nodiscard]] std::size_t count() const {
    std::size_t c = 0;
    for (const auto p : present) c += p;
    return c;
  }

  /// Re-dimensions the bank for reuse: the row arena is resized without
  /// zeroing (put() overwrites whole rows) and the presence bitmap clears.
  void reset(std::size_t n_rows, std::size_t cols) {
    rows.reset_for_overwrite(n_rows, cols);
    present.assign(n_rows, 0);
  }
};

/// Reps per block of the server's upload fold (UploadSum::fold): 64 Ki
/// reps = 256 KiB of sum plus 256 KiB of payload per block. An MNIST-size
/// upload (d = 7,850) folds inline as one block; a FEMNIST-size one
/// (d = 1,206,590) splits into 19 blocks that idle pool lanes claim.
inline constexpr std::size_t kUploadFoldGrain = std::size_t{1} << 16;

/// The masked uploads of one wire round (a sync round, or an async born
/// round) as the server needs them: their running sum and who contributed.
/// Uploads are added on arrival and never stored, so the server holds d
/// reps per round, not N × d.
template <class F>
struct UploadSum {
  std::vector<typename F::rep> sum;
  std::vector<std::uint8_t> present;
  /// Set by the recovery request that lists these uploads (a survivor set
  /// or a manifest); from then on the contributor set is fixed.
  bool sealed = false;
  std::uint64_t weight = 0;  ///< the sealing manifest's staleness weight

  /// Re-dimensions for a new round: zero sum, empty bitmap, unsealed.
  void reset(std::size_t n_users, std::size_t d) {
    sum.assign(d, F::zero);
    present.assign(n_users, 0);
    sealed = false;
  }
  /// Adds one user's upload, in kUploadFoldGrain blocks spread over
  /// `exec`'s pool (the caller's lane joins in). Each element still adds
  /// the uploads in arrival order, so the sum is bit-identical on any
  /// pool. An upload after the seal, or a second one from the same user,
  /// would enter the sum with no recovered mask, so it is rejected before
  /// it touches the sum.
  void fold(std::size_t user, std::span<const typename F::rep> payload,
            const lsa::sys::ExecPolicy& exec) {
    lsa::require<lsa::ProtocolError>(!sealed,
                                     "server: upload for a sealed round");
    lsa::require<lsa::ProtocolError>(present[user] == 0,
                                     "server: duplicate masked model");
    const std::span<typename F::rep> acc(sum);
    exec.run_blocked(
        acc.size(),
        [&](std::size_t begin, std::size_t end) {
          lsa::field::add_inplace<F>(acc.subspan(begin, end - begin),
                                     payload.subspan(begin, end - begin));
        },
        kUploadFoldGrain);
    present[user] = 1;
  }
  [[nodiscard]] bool has(std::size_t user) const {
    return present[user] != 0;
  }
  [[nodiscard]] std::size_t count() const {
    std::size_t c = 0;
    for (const auto p : present) c += p;
    return c;
  }
};

/// Per-round stores (share banks, upload sums) in one map keyed by wire
/// round, plus the arena of the last retired store: the next key opened
/// takes it, so a steady cohort re-banks every round in one allocation per
/// store. The user device keeps its share banks here, the server its
/// upload sums and recovery responses.
template <class Bank>
struct RoundStore {
  std::map<std::uint64_t, Bank> banks;  ///< by wire round, oldest first
  Bank spare;  ///< the last retired store's arena

  /// The store for `key`, opened on first touch on the spare arena and
  /// dimensioned by Bank::reset(rows, cols).
  Bank& open(std::uint64_t key, std::size_t rows, std::size_t cols) {
    auto [it, fresh] = banks.try_emplace(key);
    if (fresh) {
      it->second = std::move(spare);
      it->second.reset(rows, cols);
    }
    return it->second;
  }

  /// The store for `key`, or nullptr when none is open.
  [[nodiscard]] Bank* find(std::uint64_t key) {
    const auto it = banks.find(key);
    return it == banks.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Bank* find(std::uint64_t key) const {
    const auto it = banks.find(key);
    return it == banks.end() ? nullptr : &it->second;
  }

  /// Drops `key`'s store, if open, and keeps its arena for the next key.
  void retire(std::uint64_t key) {
    retire_if([key](std::uint64_t k, const Bank&) { return k == key; });
  }
  /// Retires every store for which pred(key, store) holds.
  template <class Pred>
  void retire_if(Pred&& pred) {
    for (auto it = banks.begin(); it != banks.end();) {
      if (pred(it->first, std::as_const(it->second))) {
        spare = std::move(it->second);
        it = banks.erase(it);
      } else {
        ++it;
      }
    }
  }
};

/// One edge device running LightSecAgg, in sync rounds or async buffer
/// cycles. The paper's async protocol (§4.2, App. F) is the sync one with
/// a different recovery request, so one device serves both: start_round
/// and submit_update share one upload path (they differ in the mask's
/// domain tags only), and the server's request type selects the answer —
/// a survivor set (sync) sums the survivors' shares of one round, a buffer
/// manifest (async) sums staleness-weighted shares of many born rounds.
class UserDevice final : public Party {
 public:
  using Fp = lsa::field::Fp32;
  using rep = Fp::rep;

  UserDevice(std::uint32_t id, const lsa::protocol::Params& params,
             std::uint64_t master_seed, Transport& transport)
      : id_(id),
        params_(params),
        codec_(params.num_users, params.target_survivors, params.privacy,
               params.model_dim),
        master_seed_(master_seed),
        transport_(transport) {}

  [[nodiscard]] std::uint32_t id() const { return id_; }

  /// Sync rounds in flight at once: one in recovery, and the next, which a
  /// socket peer may bank ahead of it (server::RemoteSession). A device's
  /// start_round(r) retires every bank keyed below r - 1, so a user that
  /// crashed mid-recovery never hoards stale shares; RemoteSession drops an
  /// upload this many rounds ahead of its live round.
  static constexpr std::uint64_t kShareRetentionRounds = 2;

  /// Sync phase 1 + 2 of `round` in one pass: retires the banks past the
  /// retention window (per-round mode), checks the model length (nothing
  /// is sent for a wrong one), draws the round mask into the upload frame,
  /// encodes its shares into their frames and sends them, then adds the
  /// model into the upload frame and sends it. Sends only — never pumps.
  /// `model` must hold canonical Fp32 reps (< p): the masked sum of a
  /// non-canonical rep is garbage, and only a socket hub rejects it — an
  /// in-process server reads the frames its router sealed unchecked
  /// (transport/frame.h).
  void start_round(std::uint64_t round, std::span<const rep> model) {
    if (!params_.persistent_cohort) {
      store_.retire_if([round](std::uint64_t key, const ShareBank<Fp>&) {
        return key + kShareRetentionRounds <= round;
      });
    }
    upload(round, model, /*round_tag=*/0xde51ceull, /*epoch_tag=*/0xe90c4ull);
  }

  /// Async: finishes a local update born at global round t_i with
  /// timestamped mask sharing (offline) and the masked upload, both under
  /// wire round t_i. The mask is derived from (seed, id, born_round),
  /// mirroring App. F.3.1. `update` must hold canonical Fp32 reps, as in
  /// start_round.
  void submit_update(std::uint64_t born_round, std::span<const rep> update) {
    upload(born_round, update, /*round_tag=*/0xa511ull,
           /*epoch_tag=*/0xae90c4ull);
  }

  /// Cohort membership changed: forget the old epoch's banked shares and
  /// re-trigger the offline setup on the next upload. No-op protocol
  /// impact outside persistent-cohort mode.
  void advance_epoch() {
    ++epoch_;
    epoch_setup_done_ = false;
    store_.retire_if([](std::uint64_t, const ShareBank<Fp>&) { return true; });
  }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Offline encode + share fan-outs performed: one per upload normally,
  /// one per epoch in persistent-cohort mode (the steady-state invariant
  /// the session tests and bench gates enforce).
  [[nodiscard]] std::uint64_t offline_encodes() const {
    return offline_encodes_;
  }

  /// Marks this device Byzantine: it keeps the protocol's message framing
  /// but returns a corrupted aggregated share in the recovery phase — the
  /// malicious-responder model the error-correcting recovery defends
  /// against (paper §8 future work; coding/error_correction.h).
  void set_byzantine(bool on) { byzantine_ = on; }

  void handle_view(const lsa::transport::FrameView& f) override {
    on_payload(f.type, f.sender, f.round, f.payload);
  }

  [[nodiscard]] const std::optional<std::vector<rep>>& last_result() const {
    return last_result_;
  }
  /// Number of stored (owner, key) shares across all retained banks.
  [[nodiscard]] std::size_t stored_shares() const {
    std::size_t c = 0;
    for (const auto& [key, bank] : store_.banks) c += bank.count();
    return c;
  }

 private:
  /// Which bank a wire round keys: the round (sync) or born round (async)
  /// itself, or the current epoch in persistent-cohort mode, where every
  /// upload reuses the epoch mask.
  [[nodiscard]] std::uint64_t share_key(std::uint64_t round) const {
    return params_.persistent_cohort ? epoch_ : round;
  }

  /// The one upload path. Steady-state cohort (params.persistent_cohort):
  /// one epoch mask, encoded and distributed once per epoch under wire
  /// round = epoch; every later upload of the epoch is masked upload only.
  /// The epoch tag differs from the per-round tag so the two modes never
  /// share mask streams. Reusing the mask across rounds is what buys the
  /// zero-setup round — the decode cancels it exactly, so aggregates stay
  /// bit-identical to per-round mode (privacy trade documented in README).
  void upload(std::uint64_t round, std::span<const rep> model,
              std::uint64_t round_tag, std::uint64_t epoch_tag) {
    lsa::require<lsa::ProtocolError>(model.size() == params_.model_dim,
                                     "user: wrong model dimension");
    const bool persistent = params_.persistent_cohort;
    const std::uint64_t key = share_key(round);
    const std::uint64_t tag = persistent ? epoch_tag : round_tag;
    lsa::crypto::Prg prg(lsa::crypto::derive_subseed(
        lsa::crypto::seed_from_u64(master_seed_ ^
                                   (tag + id_ * 0x9e3779b97f4a7c15ull)),
        key));
    lsa::transport::BufferRef frame = transport_.acquire(params_.model_dim);
    const std::span<rep> masked = lsa::transport::frame_payload(frame);
    lsa::field::fill_uniform<Fp>(masked, prg);
    if (!persistent || !epoch_setup_done_) {
      send_shares(key, masked, prg);
      ++offline_encodes_;
      epoch_setup_done_ = true;  // read in persistent mode only
    }
    lsa::field::add_inplace<Fp>(masked, model);
    transport_.send(std::move(frame), MsgType::kMaskedModel, id_,
                    static_cast<std::uint32_t>(params_.num_users), round);
  }

  /// The offline step: encodes `mask`'s N shares straight into N-1 share
  /// frames, carved from one pooled block, and this device's own bank row,
  /// then sends the frames in holder order under wire round `key`
  /// (receivers bank by it). Nothing is staged in between: the encode GEMM
  /// writes each share where it travels.
  void send_shares(std::uint64_t key, std::span<const rep> mask,
                   lsa::crypto::Prg& prg) {
    const std::size_t n = params_.num_users;
    std::vector<lsa::transport::BufferRef> frames =
        transport_.acquire_batch(n - 1, codec_.segment_len());
    // frames[k] travels to holder k, or to k + 1 past this device.
    const auto holder = [&](std::size_t k) {
      return static_cast<std::uint32_t>(k < id_ ? k : k + 1);
    };
    std::vector<rep*> dst(
        n, store_.open(key, n, codec_.segment_len()).claim(id_));
    for (std::size_t k = 0; k < frames.size(); ++k) {
      dst[holder(k)] = lsa::transport::frame_payload(frames[k]).data();
    }
    codec_.encode_into(mask, prg, std::span<rep* const>(dst),
                       params_.exec.chunk_reps);
    for (std::size_t k = 0; k < frames.size(); ++k) {
      transport_.send(std::move(frames[k]), MsgType::kEncodedMaskShare, id_,
                      holder(k), key);
    }
  }

  void on_payload(MsgType type, std::uint32_t sender, std::uint64_t round,
                  std::span<const rep> payload) {
    switch (type) {
      case MsgType::kEncodedMaskShare:
        lsa::require<lsa::ProtocolError>(
            payload.size() == codec_.segment_len(),
            "user: bad encoded share length");
        store_.open(round, params_.num_users, codec_.segment_len())
            .put(sender, payload);
        break;
      case MsgType::kSurvivorSet:
        answer_survivor_set(round, payload);
        break;
      case MsgType::kBufferManifest:
        answer_manifest(round, payload);
        break;
      case MsgType::kAggregateResult:
        // Into the vector the device already holds: one d-rep allocation
        // per device, not one per round.
        if (!last_result_) last_result_.emplace();
        last_result_->assign(payload.begin(), payload.end());
        break;
      default:
        throw lsa::ProtocolError("user: unexpected message type");
    }
  }

  /// Sync recovery. Payload: N entries of 0/1. Aggregates the stored
  /// shares of the surviving set (one fused pass over the round bank's
  /// rows) inside the response frame and returns it to the server.
  void answer_survivor_set(std::uint64_t round, std::span<const rep> bitmap) {
    lsa::require<lsa::ProtocolError>(bitmap.size() == params_.num_users,
                                     "user: bad survivor bitmap");
    const ShareBank<Fp>* bank = store_.find(share_key(round));
    std::vector<const rep*> rows;
    rows.reserve(params_.num_users);
    for (std::uint32_t i = 0; i < params_.num_users; ++i) {
      if (bitmap[i] == 0) continue;
      lsa::require<lsa::ProtocolError>(bank != nullptr && bank->has(i),
                                       "user: missing share for survivor");
      rows.push_back(bank->rows.row_ptr(i));
    }
    lsa::transport::BufferRef response =
        transport_.acquire(codec_.segment_len());
    const std::span<rep> acc = lsa::transport::frame_payload(response);
    std::fill(acc.begin(), acc.end(), Fp::zero);
    lsa::field::add_accumulate_blocked<Fp>(
        acc, std::span<const rep* const>(rows), params_.exec.chunk_reps);
    if (byzantine_) {
      // Arbitrary falsification; any nonzero offset breaks the codeword,
      // which is what the server must locate and discard.
      for (std::size_t k = 0; k < acc.size(); ++k) {
        acc[k] = Fp::add(acc[k], Fp::from_u64(0x0bad + 7 * k + id_));
      }
    }
    transport_.send(std::move(response), MsgType::kAggregatedShares, id_,
                    static_cast<std::uint32_t>(params_.num_users), round);
    // The round's shares are consumed — except in persistent mode, where
    // the epoch bank serves every round until the membership changes.
    if (!params_.persistent_cohort) store_.retire(round);
  }

  /// Async recovery at aggregation round `now`. Payload: triples (user,
  /// born_round, weight), see AggregationServer::send_manifest. One fused
  /// weighted column sum across the manifested share rows, formed inside
  /// the response frame.
  void answer_manifest(std::uint64_t now, std::span<const rep> manifest) {
    lsa::require<lsa::ProtocolError>(manifest.size() % 3 == 0,
                                     "user: bad manifest shape");
    std::vector<rep> coeffs;
    std::vector<const rep*> rows;
    coeffs.reserve(manifest.size() / 3);
    rows.reserve(manifest.size() / 3);
    for (std::size_t e = 0; e < manifest.size(); e += 3) {
      const std::uint32_t user = manifest[e];
      lsa::require<lsa::ProtocolError>(
          user < params_.num_users, "user: manifest user id out of range");
      const ShareBank<Fp>* bank = store_.find(share_key(manifest[e + 1]));
      lsa::require<lsa::ProtocolError>(
          bank != nullptr && bank->has(user),
          "user: missing timestamped share for manifest entry");
      coeffs.push_back(manifest[e + 2]);
      rows.push_back(bank->rows.row_ptr(user));
    }
    lsa::transport::BufferRef response =
        transport_.acquire(codec_.segment_len());
    const std::span<rep> acc = lsa::transport::frame_payload(response);
    std::fill(acc.begin(), acc.end(), Fp::zero);
    lsa::field::axpy_accumulate_blocked<Fp>(
        acc, std::span<const rep>(coeffs), std::span<const rep* const>(rows),
        params_.exec.chunk_reps);
    transport_.send(std::move(response), MsgType::kWeightedShares, id_,
                    static_cast<std::uint32_t>(params_.num_users), now);
    // The manifested shares are consumed, and a bank left empty retires —
    // except in persistent mode, where epoch shares serve every cycle.
    if (params_.persistent_cohort) return;
    for (std::size_t e = 0; e < manifest.size(); e += 3) {
      ShareBank<Fp>* bank = store_.find(manifest[e + 1]);
      if (bank == nullptr) continue;
      bank->present[manifest[e]] = 0;
      if (bank->count() == 0) store_.retire(manifest[e + 1]);
    }
  }

  std::uint32_t id_;
  lsa::protocol::Params params_;
  lsa::coding::MaskCodec<Fp> codec_;
  std::uint64_t master_seed_;
  Transport& transport_;
  bool byzantine_ = false;
  /// store_.find(key)->rows.row(i) = [~z_i]_key held by this device,
  /// keyed by wire round: the round (sync), the born round (async) or the
  /// epoch (persistent cohort).
  RoundStore<ShareBank<Fp>> store_;
  std::optional<std::vector<rep>> last_result_;
  std::uint64_t epoch_ = 0;          ///< persistent-cohort epoch counter
  bool epoch_setup_done_ = false;    ///< offline setup done for epoch_
  std::uint64_t offline_encodes_ = 0;
};

/// The aggregation server state machine (one cohort), for sync rounds and
/// async buffer cycles alike. A masked upload folds on arrival into the
/// running sum of its wire round: the round (sync) or the update's born
/// round (async). A recovery request seals the sums it lists: a survivor
/// set seals one round (begin_recovery), a buffer manifest every unsealed
/// born round (send_manifest). Responses bank by the request's key. Both
/// finishes end in one decode-subtract-broadcast path, which retires every
/// sealed sum and the responses under its key whether it returns or
/// throws: one recovery is open at a time, and a failed round or cycle
/// leaves nothing behind. The multi-session sharded server in
/// src/server/aggregation_server.h runs one of these per session.
class AggregationServer final : public Party {
 public:
  using Fp = lsa::field::Fp32;
  using rep = Fp::rep;

  /// What an async buffer cycle returns.
  struct CycleOutput {
    std::vector<rep> weighted_sum;  ///< sum_b w_b * Delta_b, mask removed
    std::uint64_t weight_sum = 0;   ///< sum_b w_b (for normalization)
  };

  /// byzantine_tolerant: recovery uses ALL arrived responses and the
  /// error-correcting decode — up to floor((responses - U)/2) falsified
  /// shares are located, discarded and reported via last_corrupted().
  AggregationServer(const lsa::protocol::Params& params, Transport& transport,
                    bool byzantine_tolerant = false)
      : params_(params),
        codec_(params.num_users, params.target_survivors, params.privacy,
               params.model_dim),
        transport_(transport),
        byzantine_tolerant_(byzantine_tolerant) {}

  void handle_view(const lsa::transport::FrameView& f) override {
    on_payload(f.type, f.sender, f.round, f.payload);
  }

  /// Sync: ends the upload phase of `round`. Seals U1 = everyone whose
  /// masked model arrived and broadcasts it as the survivor set, so users
  /// return aggregated shares. With fewer than U uploads the round can
  /// never recover: it is retired and the call throws.
  void begin_recovery(std::uint64_t round) {
    UploadSum<Fp>* sums = uploads_.find(round);
    if (sums == nullptr || sums->count() < params_.target_survivors) {
      uploads_.retire(round);
      throw lsa::ProtocolError("server: fewer than U masked models arrived");
    }
    sums->sealed = true;
    lsa::transport::BufferRef frame = transport_.acquire(params_.num_users);
    const std::span<rep> bitmap = lsa::transport::frame_payload(frame);
    for (std::uint32_t i = 0; i < params_.num_users; ++i) {
      bitmap[i] = sums->has(i) ? Fp::one : Fp::zero;
    }
    transport_.broadcast(std::move(frame), MsgType::kSurvivorSet,
                         static_cast<std::uint32_t>(params_.num_users), round,
                         static_cast<std::uint32_t>(params_.num_users));
  }

  /// Sync: completes `round` from at least U aggregated shares (see
  /// finish). The round's sum becomes the result.
  [[nodiscard]] std::vector<rep> finish_round(std::uint64_t round) {
    UploadSum<Fp>* sums = uploads_.find(round);
    lsa::require<lsa::ProtocolError>(sums != nullptr && sums->sealed,
                                     "server: round is not in recovery");
    return finish(round, std::move(sums->sum));
  }

  /// Async: the recovery request of the buffer cycle at aggregation round
  /// `now`. Seals every unsealed born round t with its public integer
  /// weight w_t = s_cg(now - t) (eq. 34) and broadcasts the manifest, one
  /// (user, t, w_t) triple per upload, by born round then user id. When
  /// every weight rounds to zero it throws and seals nothing: the uploads
  /// stay buffered. A cycle whose recovery was abandoned (its pump threw)
  /// never finished, so its sealed sums and responses retire first.
  void send_manifest(std::uint64_t now,
                     const lsa::quant::StalenessPolicy& staleness,
                     std::uint64_t c_g) {
    retire_sealed(now);
    std::vector<rep> manifest;
    std::uint64_t weight_sum = 0;
    for (auto& [born, sums] : uploads_.banks) {
      // A born round past `now`, or past the rep range a manifest carries.
      lsa::require<lsa::ProtocolError>(born <= now && born < Fp::modulus,
                                       "server: born round out of range");
      sums.weight =
          lsa::quant::quantized_staleness_weight(staleness, now - born, c_g);
      for (std::uint32_t user = 0; user < params_.num_users; ++user) {
        if (!sums.has(user)) continue;
        manifest.insert(manifest.end(), {user, static_cast<rep>(born),
                                         static_cast<rep>(sums.weight)});
        weight_sum += sums.weight;
      }
    }
    lsa::require<lsa::ProtocolError>(
        weight_sum > 0, "server: all manifest weights rounded to zero");
    for (auto& [born, sums] : uploads_.banks) sums.sealed = true;
    transport_.broadcast_row(MsgType::kBufferManifest,
                             static_cast<std::uint32_t>(params_.num_users),
                             now, std::span<const rep>(manifest),
                             static_cast<std::uint32_t>(params_.num_users));
  }

  /// Async: completes the cycle at `now` from at least U weighted-share
  /// responses (see finish). The masked input is sum_t w_t * sum_t over
  /// the sealed born rounds, one fused weighted column sum.
  [[nodiscard]] CycleOutput finish_cycle(std::uint64_t now) {
    CycleOutput out;
    std::vector<rep> coeffs;
    std::vector<const rep*> rows;
    for (const auto& [born, sums] : uploads_.banks) {
      if (!sums.sealed) continue;
      coeffs.push_back(static_cast<rep>(sums.weight));
      rows.push_back(sums.sum.data());
      out.weight_sum += sums.weight * sums.count();
    }
    lsa::require<lsa::ProtocolError>(!rows.empty(),
                                     "server: no cycle in recovery");
    std::vector<rep> masked(params_.model_dim, Fp::zero);
    lsa::field::axpy_accumulate_blocked<Fp>(
        std::span<rep>(masked), std::span<const rep>(coeffs),
        std::span<const rep* const>(rows), params_.exec.chunk_reps);
    out.weighted_sum = finish(now, std::move(masked));
    return out;
  }

  /// Users whose masked model arrived for `round` (the de-facto U1).
  [[nodiscard]] std::vector<std::uint32_t> arrived(std::uint64_t round) const {
    std::vector<std::uint32_t> out;
    const auto* sums = uploads_.find(round);
    if (sums == nullptr) return out;
    for (std::uint32_t i = 0; i < params_.num_users; ++i) {
      if (sums->has(i)) out.push_back(i);
    }
    return out;
  }

  /// Uploads folded but not yet sealed by a recovery request: an async
  /// cycle's buffer.
  [[nodiscard]] std::size_t buffered() const {
    std::size_t c = 0;
    for (const auto& [key, sums] : uploads_.banks) {
      if (!sums.sealed) c += sums.count();
    }
    return c;
  }

  /// Responders whose shares were falsified in the last finish
  /// (Byzantine-tolerant mode only; empty otherwise).
  [[nodiscard]] const std::vector<std::size_t>& last_corrupted() const {
    return last_corrupted_;
  }

  /// The session codec: exposes last_decode_stats() (which kernel ran,
  /// plan-cache hit, setup-vs-stream split) for session telemetry.
  [[nodiscard]] const lsa::coding::MaskCodec<Fp>& codec() const {
    return codec_;
  }

 private:
  void on_payload(MsgType type, std::uint32_t sender, std::uint64_t round,
                  std::span<const rep> payload) {
    switch (type) {
      case MsgType::kMaskedModel:
        lsa::require<lsa::ProtocolError>(
            payload.size() == params_.model_dim,
            "server: bad masked model length");
        lsa::require<lsa::ProtocolError>(sender < params_.num_users,
                                         "server: upload from a non-user");
        uploads_.open(round, params_.num_users, params_.model_dim)
            .fold(sender, payload, params_.exec);
        break;
      case MsgType::kAggregatedShares:
      case MsgType::kWeightedShares:
        lsa::require<lsa::ProtocolError>(
            payload.size() == codec_.segment_len(),
            "server: bad recovery response length");
        responses_.open(round, params_.num_users, codec_.segment_len())
            .put(sender, payload);
        break;
      default:
        throw lsa::ProtocolError("server: unexpected message type");
    }
  }

  /// The one exit of both finishes: one-shot decodes the aggregate mask
  /// from the first U responses banked under `key` (from all of them when
  /// Byzantine-tolerant: the extras are the redundancy the error-correcting
  /// decode spends), subtracts it from `masked` in place and broadcasts and
  /// returns the result. Returning or throwing, it retires the sealed sums
  /// and the responses under `key`.
  std::vector<rep> finish(std::uint64_t key, std::vector<rep> masked) {
    try {
      const ShareBank<Fp>* shares = responses_.find(key);
      lsa::require<lsa::ProtocolError>(
          shares != nullptr && shares->count() >= params_.target_survivors,
          "server: fewer than U recovery responses — unrecoverable round");
      std::vector<std::size_t> owners;
      std::vector<const rep*> rows;
      for (std::uint32_t user = 0; user < params_.num_users; ++user) {
        if (!shares->has(user)) continue;
        if (!byzantine_tolerant_ &&
            owners.size() == params_.target_survivors) {
          break;
        }
        owners.push_back(user);
        rows.push_back(shares->rows.row_ptr(user));
      }
      const std::span<const rep* const> share_rows(rows);
      std::vector<rep> agg_mask;
      if (byzantine_tolerant_) {
        auto corrected =
            codec_.decode_aggregate_corrected(owners, share_rows, params_.exec);
        agg_mask = std::move(corrected.aggregate);
        last_corrupted_.assign(corrected.corrupted_owners.begin(),
                               corrected.corrupted_owners.end());
      } else {
        agg_mask =
            codec_.decode_aggregate_rows(owners, share_rows, params_.exec);
      }
      lsa::field::sub_inplace<Fp>(std::span<rep>(masked),
                                  std::span<const rep>(agg_mask));
      transport_.broadcast_row(MsgType::kAggregateResult,
                               static_cast<std::uint32_t>(params_.num_users),
                               key, std::span<const rep>(masked),
                               static_cast<std::uint32_t>(params_.num_users));
    } catch (...) {
      retire_sealed(key);
      throw;
    }
    retire_sealed(key);
    return masked;
  }

  /// Retires every sealed upload sum and the responses under `key`.
  void retire_sealed(std::uint64_t key) {
    uploads_.retire_if(
        [](std::uint64_t, const UploadSum<Fp>& sums) { return sums.sealed; });
    responses_.retire(key);
  }

  lsa::protocol::Params params_;
  lsa::coding::MaskCodec<Fp> codec_;
  Transport& transport_;
  bool byzantine_tolerant_ = false;
  std::vector<std::size_t> last_corrupted_;
  /// uploads_.find(k)->sum = the sum of the masked models under wire round
  /// k so far. A socket peer may bank round r + 1 while round r is still in
  /// recovery (server::RemoteSession), so two rounds can be open at once.
  RoundStore<UploadSum<Fp>> uploads_;
  /// responses_.find(k)->rows.row(j) = responder j's aggregated (sync) or
  /// weighted (async) share for the recovery request under key k.
  RoundStore<ShareBank<Fp>> responses_;
};

/// THE delivery loop of every in-process drive: drains each receiver's
/// mailbox on one lane of `pol` (a Party handles its own frames serially;
/// distinct parties are independent) and re-pumps until frames sent by
/// handlers (survivor-set / manifest replies) are delivered too. On the
/// default, inline policy it is the serial reference's loop.
template <class PartyFn>
void pump_router(lsa::transport::ConcurrentRouter& router,
                 const lsa::sys::ExecPolicy& pol, PartyFn&& party) {
  do {
    pol.run(router.num_parties(), [&](std::size_t r) {
      lsa::transport::Inbound in;
      while (router.try_recv(r, in)) {
        party(r).handle_view(in.view);
        in.buf.reset();  // recycle before the next pop
      }
    });
  } while (!router.idle());
}

/// What the in-process sync and async drivers share: the validated params,
/// a router sized from the mode's fan-in bound plus kCapacityHeadroom, N
/// user devices and the server, and the pump between them. Network runs
/// whole rounds on it, AsyncNetwork whole buffer cycles.
class NetworkBase {
 public:
  using Fp = lsa::field::Fp32;
  using rep = Fp::rep;

  [[nodiscard]] const lsa::protocol::Params& params() const {
    return params_;
  }
  [[nodiscard]] lsa::transport::ConcurrentRouter& router() { return router_; }
  [[nodiscard]] const lsa::transport::ConcurrentRouter& router() const {
    return router_;
  }
  [[nodiscard]] UserDevice& user(std::size_t i) { return *users_.at(i); }
  [[nodiscard]] AggregationServer& server() { return server_; }

  /// Offline encode + share-distribution passes summed over the devices.
  [[nodiscard]] std::uint64_t offline_encodes() const {
    std::uint64_t total = 0;
    for (const auto& u : users_) total += u->offline_encodes();
    return total;
  }

  /// Persistent-cohort membership change: every device advances its epoch
  /// and re-runs offline setup on its next upload. No-op per device when
  /// the cohort is not in persistent mode (the flag gates the fast path).
  void advance_epoch() {
    for (auto& u : users_) u->advance_epoch();
  }

  /// Delivers queued messages until the network is quiet.
  void pump() {
    pump_router(router_, params_.exec, [&](std::size_t r) -> Party& {
      return r == params_.num_users ? static_cast<Party&>(server_)
                                    : *users_[r];
    });
  }

 protected:
  NetworkBase(const lsa::protocol::Params& params, std::uint64_t seed,
              std::size_t fanin_bound, bool byzantine_tolerant = false)
      : params_(resolved(params)),
        router_(params_.num_users + 1, fanin_bound + kCapacityHeadroom),
        server_(params_, router_, byzantine_tolerant) {
    for (std::uint32_t i = 0; i < params_.num_users; ++i) {
      users_.push_back(
          std::make_unique<UserDevice>(i, params_, seed, router_));
    }
  }

  lsa::protocol::Params params_;
  lsa::transport::ConcurrentRouter router_;
  AggregationServer server_;
  std::vector<std::unique_ptr<UserDevice>> users_;

 private:
  [[nodiscard]] static lsa::protocol::Params resolved(
      lsa::protocol::Params p) {
    p.validate_and_resolve();
    return p;
  }
};

/// THE in-process sync round driver: runs whole rounds on its base. User
/// starts and the pump fan out on params.exec. On the default, inline
/// ExecPolicy it is the single-threaded reference every concurrent drive
/// is pinned against; server::Session is this driver plus a queue of
/// rounds, on the session's policy.
class Network : public NetworkBase {
 public:
  /// The router holds sync_fanin_bound(N) plus headroom per mailbox.
  Network(const lsa::protocol::Params& params, std::uint64_t seed,
          bool byzantine_tolerant = false)
      : NetworkBase(params, seed, sync_fanin_bound(params.num_users),
                    byzantine_tolerant) {}

  /// Runs one full round: all users start (offline + upload), `crash_after_
  /// upload` users then crash, the server recovers from the remaining
  /// responders. Returns the aggregate INCLUDING any user whose masked
  /// model arrived before it crashed (the "delayed user" semantics).
  [[nodiscard]] std::vector<rep> run_round(
      std::uint64_t round, const std::vector<std::vector<rep>>& models,
      const std::vector<std::size_t>& crash_after_upload) {
    const lsa::field::simd::ScopedSimdPolicy simd_guard(params_.simd);
    lsa::require<lsa::ProtocolError>(models.size() == params_.num_users,
                                     "network: wrong number of models");
    // One user per lane; their share fan-outs are concurrent zero-copy
    // sends into the per-receiver mailboxes.
    params_.exec.run(params_.num_users, [&](std::size_t i) {
      users_[i]->start_round(round, std::span<const rep>(models[i]));
    });
    pump();  // offline shares + masked models all delivered
    for (auto i : crash_after_upload) router_.crash(i);
    server_.begin_recovery(round);
    pump();  // survivor set out, aggregated shares back
    auto result = server_.finish_round(round);
    pump();  // result broadcast
    return result;
  }
};

}  // namespace lsa::runtime

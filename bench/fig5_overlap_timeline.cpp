// Figure 5: timing diagram of a single FL round with the offline phase
// either serialized with training (a) or overlapped with it (b) — for
// LightSecAgg and SecAgg+ training MobileNetV3 on a CIFAR-100-class
// workload. Also demonstrates the *real* overlap machinery (sys/overlap.h)
// by concurrently running actual mask encoding and actual CNN training.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "coding/mask_codec.h"
#include "field/flat_matrix.h"
#include "fl/cnn.h"
#include "fl/dataset.h"
#include "fl/sgd.h"
#include "sys/overlap.h"

namespace {
using namespace lsa::bench;

void draw_bar(const char* label, double start, double len, double scale) {
  const int pad = static_cast<int>(start * scale);
  const int width = std::max(1, static_cast<int>(len * scale));
  std::printf("  %-10s |%*s%s| %.1fs\n", label, pad, "",
              std::string(width, '#').c_str(), len);
}

void timeline(const char* proto_name, const lsa::net::RoundBreakdown& rb) {
  const double total_seq = rb.total_nonoverlapped();
  const double scale = 56.0 / total_seq;

  std::printf("\n%s — (a) non-overlapped, total %.1f s\n", proto_name,
              total_seq);
  double t0 = 0;
  draw_bar("offline", t0, rb.offline, scale);
  t0 += rb.offline;
  draw_bar("training", t0, rb.training, scale);
  t0 += rb.training;
  draw_bar("upload", t0, rb.upload, scale);
  t0 += rb.upload;
  draw_bar("recovery", t0, rb.recovery, scale);

  std::printf("%s — (b) overlapped, total %.1f s\n", proto_name,
              rb.total_overlapped());
  draw_bar("offline", 0, rb.offline, scale);
  draw_bar("training", 0, rb.training, scale);
  const double head = std::max(rb.offline, rb.training);
  draw_bar("upload", head, rb.upload, scale);
  draw_bar("recovery", head + rb.upload, rb.recovery, scale);
}

}  // namespace

int main() {
  using namespace lsa::bench;
  print_header(
      "Figure 5 — timing diagram of one FL round, MobileNetV3 / "
      "CIFAR-100-class workload\n(offline ∥ training overlap, §6)");

  const auto cost = lsa::net::CostModel::paper_stack();
  const auto bw = lsa::net::BandwidthProfile::measured_320mbps();
  for (auto kind :
       {lsa::ProtocolKind::kLightSecAgg, lsa::ProtocolKind::kSecAggPlus}) {
    Scenario sc;
    sc.protocol = kind;
    sc.n = 200;
    sc.dropout_rate = 0.1;
    sc.d_real = 3111462;
    sc.train_seconds = 85.0;
    const auto rb = run_scenario(sc, cost, bw, paper_opts());
    timeline(kProtocolNames[static_cast<int>(kind)], rb);
  }

  // Real concurrent execution at laptop scale: train a CNN while encoding
  // masks for the same round (the mechanism the figure illustrates).
  std::printf("\nLive demo — real CNN training ∥ real mask encoding:\n");
  auto ds = lsa::fl::SyntheticDataset::cifar10_like(96, 16, 1);
  lsa::fl::SmallCnn cnn({.channels = 3, .height = 32, .width = 32,
                         .conv1 = 6, .conv2 = 16, .hidden = 64,
                         .classes = 10},
                        2);
  std::vector<std::size_t> idx(ds.train().size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  lsa::coding::MaskCodec<lsa::field::Fp32> codec(/*N=*/60, /*U=*/42,
                                                 /*T=*/30, cnn.dim());
  lsa::common::Xoshiro256ss rng(3);
  auto mask = lsa::field::uniform_vector<lsa::field::Fp32>(cnn.dim(), rng);
  lsa::field::FlatMatrix<lsa::field::Fp32> shares(codec.num_users(),
                                                  codec.segment_len());

  const auto t = lsa::sys::run_overlapped(
      [&] {
        lsa::common::Xoshiro256ss train_rng(4);
        (void)lsa::fl::local_sgd(cnn, ds.train(), idx,
                                 {.epochs = 2, .batch_size = 16, .lr = 0.05},
                                 train_rng);
      },
      [&] {
        lsa::common::Xoshiro256ss noise_rng(5);
        codec.encode_into(std::span<const lsa::field::Fp32::rep>(mask),
                          noise_rng, shares);
      });
  std::printf(
      "  training alone: %.2f s, offline encode alone: %.2f s\n"
      "  sequential: %.2f s, overlapped wall time: %.2f s -> speedup "
      "%.2fx\n",
      t.training_s, t.offline_s, t.sequential_total_s(),
      t.overlapped_total_s, t.speedup());
  std::printf(
      "\nExpected shape (paper Fig. 5): overlapping hides the offline phase "
      "behind\ntraining; the overlapped round ends ~offline-length earlier.\n");
  return 0;
}

// Synthetic federated datasets.
//
// Substitution (README.md, "Substitutions"): the paper trains on MNIST /
// FEMNIST / CIFAR-10 / GLD-23K. Secure-aggregation cost depends only on the
// model dimension d, and the convergence experiments need a learnable task
// with controllable client heterogeneity — both provided by Gaussian-mixture
// classification data with matched input dimensionality. Presets mirror the
// paper's datasets' shapes (28x28x1 MNIST-like, 32x32x3 CIFAR-like, 62-class
// FEMNIST-like).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace lsa::fl {

struct Example {
  std::vector<float> x;
  int label = 0;
};

class SyntheticDataset {
 public:
  struct Config {
    std::size_t input_dim = 0;
    std::size_t num_classes = 0;
    std::size_t num_train = 0;
    std::size_t num_test = 0;
    double class_sep = 2.2;  ///< distance scale between class means
    double noise = 1.0;      ///< within-class standard deviation
    std::uint64_t seed = 0;
    /// When nonzero, class means are spatially smoothed over a
    /// (channels, height, width) image grid so convolutional models have
    /// local structure to exploit (image presets set these automatically).
    std::size_t height = 0;
    std::size_t width = 0;
    std::size_t channels = 1;
  };

  /// Gaussian mixture: one spherical cluster per class, means ~ N(0, sep^2).
  [[nodiscard]] static SyntheticDataset gaussian_mixture(const Config& cfg);

  /// 28x28x1, 10 classes — MNIST-shaped (LR model dim = 7,850, Table 2 №1).
  [[nodiscard]] static SyntheticDataset mnist_like(std::size_t train,
                                                   std::size_t test,
                                                   std::uint64_t seed);

  /// 28x28x1, 62 classes — FEMNIST-shaped.
  [[nodiscard]] static SyntheticDataset femnist_like(std::size_t train,
                                                     std::size_t test,
                                                     std::uint64_t seed);

  /// 32x32x3, 10 classes — CIFAR-10-shaped.
  [[nodiscard]] static SyntheticDataset cifar10_like(std::size_t train,
                                                     std::size_t test,
                                                     std::uint64_t seed);

  [[nodiscard]] const std::vector<Example>& train() const { return train_; }
  [[nodiscard]] const std::vector<Example>& test() const { return test_; }
  [[nodiscard]] std::size_t input_dim() const { return cfg_.input_dim; }
  [[nodiscard]] std::size_t num_classes() const { return cfg_.num_classes; }

  /// IID partition: a random equal split of the training set.
  [[nodiscard]] std::vector<std::vector<std::size_t>> partition_iid(
      std::size_t num_users, std::uint64_t seed) const;

  /// Non-IID partition by class shards (each user sees few classes), the
  /// standard FedAvg heterogeneity protocol (McMahan et al. 2017).
  [[nodiscard]] std::vector<std::vector<std::size_t>> partition_shards(
      std::size_t num_users, std::size_t shards_per_user,
      std::uint64_t seed) const;

 private:
  Config cfg_;
  std::vector<Example> train_;
  std::vector<Example> test_;
};

}  // namespace lsa::fl

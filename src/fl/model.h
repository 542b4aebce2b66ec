// Flat-parameter model interface for the FL harness.
//
// Models expose their parameters as one contiguous double vector — exactly
// the view secure aggregation needs (quantize the flat vector, mask it,
// aggregate in the field). Gradients are computed into an equally flat
// buffer. Substitution note (README.md, "Substitutions"): the paper's two
// large models (MobileNetV3, EfficientNet-B0) enter timing experiments
// through their parameter counts only; convergence experiments use the
// LR / MLP / CNN implemented here, mirroring the paper's own use of
// LeNet-class models for the asynchronous study.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fl/dataset.h"

namespace lsa::fl {

class Model {
 public:
  virtual ~Model() = default;

  /// Number of parameters d.
  [[nodiscard]] std::size_t dim() const { return params_.size(); }

  [[nodiscard]] std::vector<double>& params() { return params_; }
  [[nodiscard]] const std::vector<double>& params() const { return params_; }

  /// Average loss over the batch; accumulates d(loss)/d(params) into
  /// grad (which must be zeroed by the caller and have size dim()).
  virtual double loss_and_grad(std::span<const Example> batch,
                               std::span<double> grad) = 0;

  /// Class prediction for one example.
  [[nodiscard]] virtual int predict(const Example& ex) const = 0;

  /// Deep copy (same architecture, same parameters).
  [[nodiscard]] virtual std::unique_ptr<Model> clone() const = 0;

 protected:
  std::vector<double> params_;
};

/// Fraction of test examples classified correctly.
[[nodiscard]] double accuracy(const Model& model,
                              std::span<const Example> test);

/// Multiclass logistic regression (softmax + cross-entropy).
/// dim = input_dim * classes + classes (= 7,850 for the MNIST-shaped task,
/// matching Table 2 row 1).
class LogisticRegression final : public Model {
 public:
  LogisticRegression(std::size_t input_dim, std::size_t num_classes,
                     std::uint64_t init_seed);

  double loss_and_grad(std::span<const Example> batch,
                       std::span<double> grad) override;
  [[nodiscard]] int predict(const Example& ex) const override;
  [[nodiscard]] std::unique_ptr<Model> clone() const override;

 private:
  void logits(const Example& ex, std::span<double> out) const;

  std::size_t in_;
  std::size_t classes_;
};

/// One-hidden-layer MLP with ReLU (the paper's "CNN (McMahan et al. 2017)"
/// slot in convergence sanity checks where a convolutional net is overkill).
class Mlp final : public Model {
 public:
  Mlp(std::size_t input_dim, std::size_t hidden, std::size_t num_classes,
      std::uint64_t init_seed);

  double loss_and_grad(std::span<const Example> batch,
                       std::span<double> grad) override;
  [[nodiscard]] int predict(const Example& ex) const override;
  [[nodiscard]] std::unique_ptr<Model> clone() const override;

 private:
  std::size_t in_, hidden_, classes_;
};

}  // namespace lsa::fl

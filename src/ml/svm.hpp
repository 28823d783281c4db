// Support Vector Machine classifier (SMO solver, one-vs-rest multiclass).
//
// One of the paper's three candidate models, tuned over the regularization
// parameter C and the kernel type (§C.1). The solver is the simplified
// Sequential Minimal Optimization of Platt (1998): adequate for the few
// thousand standardized attribute rows the evaluation trains on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/rng.hpp"

namespace cgctx::ml {

enum class KernelType {
  kLinear,  ///< k(a,b) = a.b
  kRbf,     ///< k(a,b) = exp(-gamma * |a-b|^2)
  kPoly,    ///< k(a,b) = (a.b + 1)^degree
};

const char* to_string(KernelType kernel);

struct SvmParams {
  double c = 1.0;  ///< soft-margin regularization
  KernelType kernel = KernelType::kRbf;
  /// RBF width; 0 means 1 / num_features (the usual "scale"-free default).
  double gamma = 0.0;
  int poly_degree = 3;
  double tolerance = 1e-3;
  /// SMO gives up after this many passes without an alpha update.
  int max_passes = 5;
  /// Hard bound on total SMO sweeps (safety valve on pathological data).
  int max_iterations = 200;
  std::uint64_t seed = 7;
};

class Svm final : public Classifier {
 public:
  explicit Svm(SvmParams params = {}) : params_(params) {}

  void fit(const Dataset& train) override;
  [[nodiscard]] Label predict(const FeatureRow& row) const override;
  /// Softmax over the per-class decision values; not calibrated
  /// probabilities, but a usable confidence ordering.
  [[nodiscard]] ClassProbabilities predict_proba(
      const FeatureRow& row) const override;

  [[nodiscard]] const SvmParams& params() const { return params_; }

  /// Total support vectors across the one-vs-rest machines.
  [[nodiscard]] std::size_t support_vector_count() const;

  /// Round-trippable text form (params + every machine's support vectors).
  [[nodiscard]] std::string serialize() const;
  /// Throws std::invalid_argument on anything but serialize()'s form.
  static Svm deserialize(std::string_view text);

 private:
  /// One binary machine: sign(sum_i alpha_i y_i k(x_i, x) + b).
  struct BinaryMachine {
    std::vector<FeatureRow> support_vectors;
    std::vector<double> coefficients;  ///< alpha_i * y_i
    double bias = 0.0;
  };

  [[nodiscard]] double kernel(const FeatureRow& a, const FeatureRow& b) const;
  [[nodiscard]] double decision(const BinaryMachine& machine,
                                const FeatureRow& row) const;
  BinaryMachine train_binary(const Dataset& train, Label positive, Rng& rng) const;

  SvmParams params_;
  std::vector<BinaryMachine> machines_;  ///< one per class (one-vs-rest)
  std::size_t num_features_ = 0;
  double effective_gamma_ = 0.0;
};

}  // namespace cgctx::ml

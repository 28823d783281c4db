#include "ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ml/text_reader.hpp"

namespace cgctx::ml {

const char* to_string(KernelType kernel) {
  switch (kernel) {
    case KernelType::kLinear: return "linear";
    case KernelType::kRbf: return "rbf";
    case KernelType::kPoly: return "poly";
  }
  return "?";
}

double Svm::kernel(const FeatureRow& a, const FeatureRow& b) const {
  switch (params_.kernel) {
    case KernelType::kLinear: {
      double dot = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
      return dot;
    }
    case KernelType::kRbf: {
      double sq = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        sq += d * d;
      }
      return std::exp(-effective_gamma_ * sq);
    }
    case KernelType::kPoly: {
      double dot = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
      return std::pow(dot + 1.0, params_.poly_degree);
    }
  }
  return 0.0;
}

Svm::BinaryMachine Svm::train_binary(const Dataset& train, Label positive,
                                     Rng& rng) const {
  const std::size_t n = train.size();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = train.label(i) == positive ? 1.0 : -1.0;

  // Precompute the kernel matrix; n is bounded by the evaluation dataset
  // sizes (a few thousand), so O(n^2) doubles is acceptable.
  std::vector<double> gram(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double k = kernel(train.row(i), train.row(j));
      gram[i * n + j] = k;
      gram[j * n + i] = k;
    }

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  const double c = params_.c;
  const double tol = params_.tolerance;

  auto decision_i = [&](std::size_t i) {
    double f = b;
    for (std::size_t j = 0; j < n; ++j)
      if (alpha[j] != 0.0) f += alpha[j] * y[j] * gram[j * n + i];
    return f;
  };

  int passes = 0;
  int iterations = 0;
  while (passes < params_.max_passes && iterations < params_.max_iterations) {
    ++iterations;
    int changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double error_i = decision_i(i) - y[i];
      const bool violates = (y[i] * error_i < -tol && alpha[i] < c) ||
                            (y[i] * error_i > tol && alpha[i] > 0.0);
      if (!violates) continue;

      std::size_t j = static_cast<std::size_t>(rng.next_below(n - 1));
      if (j >= i) ++j;
      const double error_j = decision_i(j) - y[j];

      const double alpha_i_old = alpha[i];
      const double alpha_j_old = alpha[j];
      double low = 0.0;
      double high = 0.0;
      if (y[i] != y[j]) {
        low = std::max(0.0, alpha[j] - alpha[i]);
        high = std::min(c, c + alpha[j] - alpha[i]);
      } else {
        low = std::max(0.0, alpha[i] + alpha[j] - c);
        high = std::min(c, alpha[i] + alpha[j]);
      }
      if (low >= high) continue;

      const double eta =
          2.0 * gram[i * n + j] - gram[i * n + i] - gram[j * n + j];
      if (eta >= 0.0) continue;

      double aj = alpha_j_old - y[j] * (error_i - error_j) / eta;
      aj = std::clamp(aj, low, high);
      if (std::abs(aj - alpha_j_old) < 1e-5) continue;
      const double ai = alpha_i_old + y[i] * y[j] * (alpha_j_old - aj);
      alpha[i] = ai;
      alpha[j] = aj;

      const double b1 = b - error_i - y[i] * (ai - alpha_i_old) * gram[i * n + i] -
                        y[j] * (aj - alpha_j_old) * gram[i * n + j];
      const double b2 = b - error_j - y[i] * (ai - alpha_i_old) * gram[i * n + j] -
                        y[j] * (aj - alpha_j_old) * gram[j * n + j];
      if (ai > 0.0 && ai < c) {
        b = b1;
      } else if (aj > 0.0 && aj < c) {
        b = b2;
      } else {
        b = 0.5 * (b1 + b2);
      }
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  BinaryMachine machine;
  machine.bias = b;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-8) {
      machine.support_vectors.push_back(train.row(i));
      machine.coefficients.push_back(alpha[i] * y[i]);
    }
  }
  return machine;
}

void Svm::fit(const Dataset& train) {
  if (train.empty()) throw std::invalid_argument("Svm::fit: empty training set");
  num_features_ = train.num_features();
  effective_gamma_ = params_.gamma != 0.0
                         ? params_.gamma
                         : 1.0 / static_cast<double>(num_features_);
  machines_.clear();
  Rng rng(params_.seed);
  const std::size_t num_classes = train.num_classes();
  machines_.reserve(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c)
    machines_.push_back(train_binary(train, static_cast<Label>(c), rng));
}

double Svm::decision(const BinaryMachine& machine, const FeatureRow& row) const {
  double f = machine.bias;
  for (std::size_t i = 0; i < machine.support_vectors.size(); ++i)
    f += machine.coefficients[i] * kernel(machine.support_vectors[i], row);
  return f;
}

ClassProbabilities Svm::predict_proba(const FeatureRow& row) const {
  if (machines_.empty()) throw std::logic_error("Svm: predict before fit");
  if (row.size() != num_features_)
    throw std::invalid_argument("Svm: feature width mismatch");
  // Softmax over decision values, shifted for numeric stability.
  std::vector<double> scores(machines_.size());
  for (std::size_t c = 0; c < machines_.size(); ++c)
    scores[c] = decision(machines_[c], row);
  const double max_score = *std::max_element(scores.begin(), scores.end());
  double total = 0.0;
  for (double& s : scores) {
    s = std::exp(s - max_score);
    total += s;
  }
  for (double& s : scores) s /= total;
  return scores;
}

Label Svm::predict(const FeatureRow& row) const {
  const ClassProbabilities probs = predict_proba(row);
  return static_cast<Label>(std::max_element(probs.begin(), probs.end()) -
                            probs.begin());
}

std::string Svm::serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << "svm " << machines_.size() << ' ' << num_features_ << ' '
     << effective_gamma_ << '\n';
  os << params_.c << ' ' << static_cast<int>(params_.kernel) << ' '
     << params_.gamma << ' ' << params_.poly_degree << '\n';
  for (const BinaryMachine& machine : machines_) {
    os << "machine " << machine.support_vectors.size() << ' ' << machine.bias
       << '\n';
    for (std::size_t i = 0; i < machine.support_vectors.size(); ++i) {
      os << machine.coefficients[i];
      for (double v : machine.support_vectors[i]) os << ' ' << v;
      os << '\n';
    }
  }
  return os.str();
}

Svm Svm::deserialize(std::string_view text) {
  TextReader in(text, "Svm");
  in.expect("svm");
  const std::size_t n_machines = in.count();
  Svm out;
  out.num_features_ = in.count();
  out.effective_gamma_ = in.real();
  out.params_.c = in.real();
  const auto kernel = in.integer<int>();
  if (kernel < 0 || kernel > 2) in.fail("bad kernel id");
  out.params_.kernel = static_cast<KernelType>(kernel);
  out.params_.gamma = in.real();
  out.params_.poly_degree = in.integer<int>();
  out.machines_.resize(n_machines);
  for (BinaryMachine& machine : out.machines_) {
    in.expect("machine");
    // Each support vector is a coefficient plus num_features_ values.
    const std::size_t n_sv = in.count(out.num_features_ + 1);
    machine.bias = in.real();
    machine.coefficients.resize(n_sv);
    machine.support_vectors.assign(n_sv, FeatureRow(out.num_features_));
    for (std::size_t i = 0; i < n_sv; ++i) {
      machine.coefficients[i] = in.real();
      for (double& v : machine.support_vectors[i]) v = in.real();
    }
  }
  in.finish();
  return out;
}

std::size_t Svm::support_vector_count() const {
  std::size_t total = 0;
  for (const BinaryMachine& m : machines_) total += m.support_vectors.size();
  return total;
}

}  // namespace cgctx::ml

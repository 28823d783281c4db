// Feature standardization (zero mean, unit variance).
//
// SVM and KNN are scale-sensitive; the paper's attribute vectors mix byte
// counts (thousands) with inter-arrival times (milliseconds), so both are
// trained on standardized features. Random Forest is scale-invariant and
// skips this.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"

namespace cgctx::ml {

class StandardScaler {
 public:
  /// Learns per-column mean and standard deviation. Columns with zero
  /// variance get scale 1 so transform leaves them centered but finite.
  void fit(const Dataset& data);

  /// Applies (x - mean) / std per column. Throws std::logic_error before
  /// fit, std::invalid_argument on width mismatch.
  [[nodiscard]] FeatureRow transform(const FeatureRow& row) const;

  /// Transforms every row of a dataset into a new dataset.
  [[nodiscard]] Dataset transform(const Dataset& data) const;

  [[nodiscard]] bool fitted() const { return !means_.empty(); }
  [[nodiscard]] const std::vector<double>& means() const { return means_; }
  [[nodiscard]] const std::vector<double>& scales() const { return scales_; }

  /// Round-trippable text form ("mean scale" per line).
  [[nodiscard]] std::string serialize() const;
  /// Throws std::invalid_argument on anything but serialize()'s form.
  static StandardScaler deserialize(std::string_view text);

 private:
  std::vector<double> means_;
  std::vector<double> scales_;
};

}  // namespace cgctx::ml

// Importance-driven feature selection.
//
// The paper observes that 8 of its 51 attributes carry no permutation
// importance and "can be excluded in the classification pipeline to
// optimize the processing cost" (citing the CATO line of work). This
// module implements that step: select the attribute subset worth
// computing, project datasets/rows onto it, and keep the mapping so a
// deployed pipeline can extract only what the model consumes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/importance.hpp"

namespace cgctx::ml {

/// A retained-attribute mapping from an original feature space onto a
/// selected subspace.
class FeatureSelection {
 public:
  /// Keeps features whose mean importance exceeds `min_drop` (default:
  /// strictly positive importance). Throws when nothing survives.
  static FeatureSelection from_importance(const ImportanceResult& importance,
                                          double min_drop = 0.0);

  /// Keeps the `k` most important features (k clamped to the width).
  static FeatureSelection top_k(const ImportanceResult& importance,
                                std::size_t k);

  /// Explicit index list (validated: sorted unique on construction).
  explicit FeatureSelection(std::vector<std::size_t> kept_indices);

  [[nodiscard]] const std::vector<std::size_t>& kept() const { return kept_; }
  [[nodiscard]] std::size_t output_width() const { return kept_.size(); }

  /// Projects one row. Throws std::invalid_argument when the row is
  /// narrower than the largest kept index.
  [[nodiscard]] FeatureRow project(const FeatureRow& row) const;

  /// Projects a whole dataset (labels and class names preserved; feature
  /// names filtered when present).
  [[nodiscard]] Dataset project(const Dataset& data) const;

  /// Filters a name list in the same way.
  [[nodiscard]] std::vector<std::string> project(
      const std::vector<std::string>& names) const;

  /// Round-trippable text form ("selection k i0 i1 ...").
  [[nodiscard]] std::string serialize() const;
  /// Throws std::invalid_argument on anything but serialize()'s form.
  static FeatureSelection deserialize(std::string_view text);

 private:
  std::vector<std::size_t> kept_;
};

}  // namespace cgctx::ml

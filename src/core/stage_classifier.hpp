// Player activity stage classification (paper §4.3.1).
//
// A Random Forest consumes the four peak-relative, EMA-smoothed
// volumetric attributes of each I-second slot and labels the slot idle,
// passive, or active. Stage labels use the same encoding as the
// simulator's ground truth (0 = active, 1 = passive, 2 = idle) so
// confusion matrices line up.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/volumetric_tracker.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/random_forest.hpp"

namespace cgctx::core {

/// Stage label indices used by the classifier's datasets.
inline constexpr ml::Label kStageActive = 0;
inline constexpr ml::Label kStagePassive = 1;
inline constexpr ml::Label kStageIdle = 2;
inline constexpr std::size_t kNumStageLabels = 3;

/// Class-name list matching the label indices above.
std::vector<std::string> stage_class_names();

struct StageClassifierParams {
  ml::RandomForestParams forest{
      .n_trees = 100, .max_depth = 10, .min_samples_split = 2,
      .min_samples_leaf = 1, .max_features = 0, .bootstrap = true,
      .seed = 0x57A6Eu};
};

class StageClassifier {
 public:
  explicit StageClassifier(StageClassifierParams params = {})
      : params_(params) {}

  /// Trains on a dataset of 4-attribute rows (VolumetricTracker outputs)
  /// labeled with stage indices.
  void train(const ml::Dataset& data);

  /// Classifies one processed slot. Every classify form is label-only:
  /// it stops walking the forest once the label is decided (see
  /// ml::CompiledForest).
  [[nodiscard]] ml::Label classify(const ml::FeatureRow& attributes) const;
  [[nodiscard]] ml::Classifier::Prediction classify_with_confidence(
      const ml::FeatureRow& attributes) const;

  /// Allocation-free variants: `scratch` (size scratch_size()) is the
  /// probability accumulation buffer, reusable across slots.
  [[nodiscard]] ml::Label classify(const ml::FeatureRow& attributes,
                                   std::span<double> scratch) const;
  [[nodiscard]] ml::Classifier::Prediction classify_with_confidence(
      const ml::FeatureRow& attributes, std::span<double> scratch) const;

  /// Batch form of classify over n slots, allocation-free: `rows` holds n
  /// attribute rows back to back, `scratch` is n x scratch_size(), and
  /// `labels` (size n) receives one stage per row, each equal to
  /// classify() on that row. Batches of ml::CompiledForest::kWalkGroup
  /// rows or more walk the forest tree-major
  /// (ml::CompiledForest::predict_rows_into).
  void classify_rows(std::span<const double> rows, std::span<double> scratch,
                     std::span<ml::Label> labels) const;

  /// Scratch doubles classify needs (= the class count; 0 until trained).
  [[nodiscard]] std::size_t scratch_size() const {
    return compiled_.num_classes();
  }

  /// Rebuilt from the compiled forest on every call (the classifier
  /// keeps no other); for serialize(), evaluation and benches.
  [[nodiscard]] ml::RandomForest reference_forest() const {
    return compiled_.reference_forest(params_.forest);
  }
  /// The compiled engine classification routes through (built by train()
  /// and deserialize()).
  [[nodiscard]] const ml::CompiledForest& compiled() const {
    return compiled_;
  }

  [[nodiscard]] std::string serialize() const;
  /// Parses serialize()'s form: the forest is read straight off `text`
  /// (no copy), compiled and dropped, and its header is kept as the
  /// forest params. Throws std::invalid_argument on anything else.
  static StageClassifier deserialize(std::string_view text);

 private:
  StageClassifierParams params_;
  ml::CompiledForest compiled_;
};

}  // namespace cgctx::core

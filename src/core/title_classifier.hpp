// Game title classification from launch traffic (paper §4.2).
//
// A Random Forest (500 trees, depth 10 — the paper's selected model)
// consumes the 51 packet-group attributes of the first N=5 seconds of a
// streaming flow and predicts the game title. Predictions whose
// confidence falls below 40% are reported as "unknown" (§4.4.1), at which
// point the operator falls back to gameplay-activity-pattern inference.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/launch_attributes.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/random_forest.hpp"

namespace cgctx::core {

struct TitleClassifierParams {
  LaunchAttributeParams attributes{};
  ml::RandomForestParams forest{
      .n_trees = 500, .max_depth = 10, .min_samples_split = 2,
      .min_samples_leaf = 1, .max_features = 0, .bootstrap = true,
      .seed = 0xC1A55u};
  /// Below this confidence the classifier answers "unknown" (paper: most
  /// misclassified sessions had confidence < 40%).
  double unknown_threshold = 0.40;
};

/// Classification outcome for one streaming session.
struct TitleResult {
  /// Label index into the training dataset's class names; nullopt when
  /// the classifier is not confident ("unknown" title).
  std::optional<ml::Label> label;
  std::string class_name;  ///< "" when unknown
  double confidence = 0.0;

  friend bool operator==(const TitleResult&, const TitleResult&) = default;
};

class TitleClassifier {
 public:
  /// Throws std::invalid_argument when the launch window fails
  /// validate(); deserialize() constructs through here too.
  explicit TitleClassifier(TitleClassifierParams params = {});

  /// Trains on a dataset of 51-attribute rows labeled by title. The
  /// dataset's class names are retained for TitleResult::class_name.
  void train(const ml::Dataset& data);

  /// Classifies a session from its packets (the first N seconds past
  /// `flow_begin` are used).
  [[nodiscard]] TitleResult classify(
      std::span<const net::PacketRecord> packets,
      net::Timestamp flow_begin) const;

  /// Classifies an already-extracted attribute row.
  [[nodiscard]] TitleResult classify_features(const ml::FeatureRow& row) const;

  /// Allocation-free variant: `scratch` (size scratch_size()) is the
  /// probability accumulation buffer, reusable across calls. Hot-path
  /// callers (pipeline, streaming analyzer) hold one scratch per session.
  [[nodiscard]] TitleResult classify_features(const ml::FeatureRow& row,
                                              std::span<double> scratch) const;

  /// Scratch doubles classify_features needs (= the class count; 0 until
  /// trained).
  [[nodiscard]] std::size_t scratch_size() const {
    return compiled_.num_classes();
  }

  [[nodiscard]] const TitleClassifierParams& params() const { return params_; }
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

  /// Persistence (forest + class names + thresholds).
  [[nodiscard]] std::string serialize() const;
  /// Parses serialize()'s form: the forest is read straight off `text`
  /// (no copy), compiled and dropped, and its header becomes
  /// params().forest. Throws std::invalid_argument on anything else.
  static TitleClassifier deserialize(std::string_view text);

 private:
  /// Shared thresholding over an argmax prediction.
  [[nodiscard]] TitleResult classify_features_impl(
      ml::Classifier::Prediction prediction) const;

  TitleClassifierParams params_;
  ml::CompiledForest compiled_;
  std::vector<std::string> class_names_;
};

}  // namespace cgctx::core

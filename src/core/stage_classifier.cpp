#include "core/stage_classifier.hpp"

#include <stdexcept>

#include "ml/text_reader.hpp"

namespace cgctx::core {

std::vector<std::string> stage_class_names() {
  return {"active", "passive", "idle"};
}

void StageClassifier::train(const ml::Dataset& data) {
  if (data.num_features() != kNumVolumetricAttributes)
    throw std::invalid_argument(
        "StageClassifier::train: expected 4 volumetric attributes");
  ml::RandomForest forest(params_.forest);
  forest.fit(data);
  compiled_ = ml::CompiledForest(forest);
}

ml::Label StageClassifier::classify(const ml::FeatureRow& attributes) const {
  return compiled_.predict(attributes);
}

ml::Classifier::Prediction StageClassifier::classify_with_confidence(
    const ml::FeatureRow& attributes) const {
  return compiled_.predict_with_confidence(attributes);
}

ml::Label StageClassifier::classify(const ml::FeatureRow& attributes,
                                    std::span<double> scratch) const {
  return compiled_.predict(attributes, scratch);
}

ml::Classifier::Prediction StageClassifier::classify_with_confidence(
    const ml::FeatureRow& attributes, std::span<double> scratch) const {
  return compiled_.predict_with_confidence(attributes, scratch);
}

void StageClassifier::classify_rows(std::span<const double> rows,
                                    std::span<double> scratch,
                                    std::span<ml::Label> labels) const {
  compiled_.predict_rows_into(rows, scratch, labels);
}

std::string StageClassifier::serialize() const {
  return "stage_classifier\n" + reference_forest().serialize();
}

StageClassifier StageClassifier::deserialize(std::string_view text) {
  ml::TextReader in(text, "StageClassifier");
  ml::TextReader header(in.line(), "StageClassifier");
  header.expect("stage_classifier");
  header.finish();
  StageClassifier out;
  out.compiled_ = ml::CompiledForest::parse(in.rest(), out.params_.forest);
  if (out.compiled_.compiled() &&
      out.compiled_.num_features() != kNumVolumetricAttributes)
    in.fail("forest does not read 4 volumetric attributes");
  return out;
}

}  // namespace cgctx::core

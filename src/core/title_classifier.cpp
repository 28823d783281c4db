#include "core/title_classifier.hpp"

#include <sstream>
#include <stdexcept>

#include "ml/text_reader.hpp"

namespace cgctx::core {

TitleClassifier::TitleClassifier(TitleClassifierParams params)
    : params_(params) {
  validate(params_.attributes);
}

void TitleClassifier::train(const ml::Dataset& data) {
  if (data.num_features() != kNumLaunchAttributes)
    throw std::invalid_argument(
        "TitleClassifier::train: expected 51 launch attributes");
  class_names_ = data.class_names();
  ml::RandomForest forest(params_.forest);
  forest.fit(data);
  compiled_ = ml::CompiledForest(forest);
}

TitleResult TitleClassifier::classify(
    std::span<const net::PacketRecord> packets,
    net::Timestamp flow_begin) const {
  return classify_features(
      launch_attributes(packets, flow_begin, params_.attributes));
}

TitleResult TitleClassifier::classify_features(const ml::FeatureRow& row) const {
  return classify_features_impl(compiled_.predict_with_confidence(row));
}

TitleResult TitleClassifier::classify_features(
    const ml::FeatureRow& row, std::span<double> scratch) const {
  return classify_features_impl(compiled_.predict_with_confidence(row, scratch));
}

TitleResult TitleClassifier::classify_features_impl(
    ml::Classifier::Prediction prediction) const {
  TitleResult result;
  result.confidence = prediction.confidence;
  if (prediction.confidence >= params_.unknown_threshold) {
    result.label = prediction.label;
    if (static_cast<std::size_t>(prediction.label) < class_names_.size())
      result.class_name = class_names_[static_cast<std::size_t>(prediction.label)];
  }
  return result;
}

std::string TitleClassifier::serialize() const {
  std::ostringstream os;
  os << "title_classifier " << class_names_.size() << ' '
     << params_.unknown_threshold << ' ' << params_.attributes.window_seconds
     << ' ' << params_.attributes.slot_seconds << ' '
     << params_.attributes.group_params.v_fraction << '\n';
  for (const std::string& name : class_names_) os << name << '\n';
  os << reference_forest().serialize();
  return os.str();
}

TitleClassifier TitleClassifier::deserialize(std::string_view text) {
  ml::TextReader in(text, "TitleClassifier");
  ml::TextReader header(in.line(), "TitleClassifier");
  header.expect("title_classifier");
  const auto n_classes = header.integer<std::size_t>();
  TitleClassifierParams params;
  params.unknown_threshold = header.real();
  LaunchAttributeParams& attrs = params.attributes;
  attrs.window_seconds = header.real();
  attrs.slot_seconds = header.real();
  attrs.group_params.v_fraction = header.real();
  header.finish();
  TitleClassifier out(params);  // validates the launch window
  in.require_room(n_classes);
  out.class_names_.reserve(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c)
    out.class_names_.emplace_back(in.line());
  out.compiled_ = ml::CompiledForest::parse(in.rest(), out.params_.forest);
  if (out.compiled_.compiled()) {
    if (out.compiled_.num_features() != kNumLaunchAttributes)
      in.fail("forest does not read 51 launch attributes");
    if (out.compiled_.num_classes() != n_classes)
      in.fail("class names disagree with the forest's class count");
  }
  return out;
}

}  // namespace cgctx::core

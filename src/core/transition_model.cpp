#include "core/transition_model.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/stage_classifier.hpp"
#include "ml/text_reader.hpp"

namespace cgctx::core {

std::vector<std::string> pattern_class_names() {
  return {"continuous-play", "spectate-and-play"};
}

std::vector<std::string> transition_attribute_names() {
  const std::vector<std::string> stages = stage_class_names();
  std::vector<std::string> names;
  names.reserve(kNumTransitionAttributes);
  for (const std::string& from : stages)
    for (const std::string& to : stages) names.push_back(from + "->" + to);
  return names;
}

void TransitionTracker::push(ml::Label stage) {
  if (stage < 0 || static_cast<std::size_t>(stage) >= kNumStageLabels)
    throw std::invalid_argument("TransitionTracker::push: bad stage label");
  if (previous_ >= 0) {
    ++counts_[static_cast<std::size_t>(previous_) * kNumStageLabels +
              static_cast<std::size_t>(stage)];
    ++total_;
  }
  previous_ = stage;
}

void TransitionTracker::reset() {
  counts_.fill(0);
  total_ = 0;
  previous_ = -1;
}

ml::FeatureRow TransitionTracker::probabilities() const {
  ml::FeatureRow out(kNumTransitionAttributes, 0.0);
  probabilities_into(out);
  return out;
}

void TransitionTracker::probabilities_into(std::span<double> out) const {
  if (out.size() != kNumTransitionAttributes)
    throw std::invalid_argument(
        "TransitionTracker::probabilities_into: expected 9 cells");
  if (total_ == 0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  for (std::size_t i = 0; i < kNumTransitionAttributes; ++i)
    out[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
}

void PatternInferrer::train(const ml::Dataset& data) {
  if (data.num_features() != kNumTransitionAttributes)
    throw std::invalid_argument(
        "PatternInferrer::train: expected 9 transition attributes");
  ml::RandomForest forest(params_.forest);
  forest.fit(data);
  compiled_ = ml::CompiledForest(forest);
}

PatternResult PatternInferrer::infer_unchecked(
    const TransitionTracker& tracker) const {
  const auto prediction =
      compiled_.predict_with_confidence(tracker.probabilities());
  return PatternResult{prediction.label, prediction.confidence};
}

PatternResult PatternInferrer::infer_unchecked(
    const TransitionTracker& tracker, std::span<double> scratch) const {
  std::array<double, kNumTransitionAttributes> features;
  tracker.probabilities_into(features);
  const auto prediction = compiled_.predict_with_confidence(features, scratch);
  return PatternResult{prediction.label, prediction.confidence};
}

std::optional<PatternResult> PatternInferrer::infer(
    const TransitionTracker& tracker) const {
  std::vector<double> scratch(scratch_size());
  return infer(tracker, scratch);
}

std::optional<PatternResult> PatternInferrer::infer(
    const TransitionTracker& tracker, std::span<double> scratch) const {
  std::optional<PatternResult> result;
  if (!ready(tracker)) return result;
  std::array<double, kNumTransitionAttributes> row;
  tracker.probabilities_into(row);
  infer_rows(row, scratch, std::span(&result, 1));
  return result;
}

void PatternInferrer::infer_rows(
    std::span<const double> rows, std::span<double> scratch,
    std::span<std::optional<PatternResult>> out) const {
  const std::size_t classes = scratch_size();
  if (scratch.size() != out.size() * classes)
    throw std::invalid_argument(
        "PatternInferrer::infer_rows: scratch must be out.size() x "
        "scratch_size()");
  compiled_.predict_proba_rows_into(rows, scratch);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto prediction =
        ml::CompiledForest::top(scratch.subspan(i * classes, classes));
    if (prediction.confidence < params_.confidence_threshold)
      out[i].reset();
    else
      out[i] = PatternResult{prediction.label, prediction.confidence};
  }
}

std::string PatternInferrer::serialize() const {
  return "pattern_inferrer " + std::to_string(params_.confidence_threshold) +
         ' ' + std::to_string(params_.min_transitions) + '\n' +
         reference_forest().serialize();
}

PatternInferrer PatternInferrer::deserialize(std::string_view text) {
  ml::TextReader in(text, "PatternInferrer");
  ml::TextReader header(in.line(), "PatternInferrer");
  header.expect("pattern_inferrer");
  PatternInferrerParams params;
  params.confidence_threshold = header.real();
  params.min_transitions = header.integer<std::size_t>();
  header.finish();
  PatternInferrer out(params);
  out.compiled_ = ml::CompiledForest::parse(in.rest(), out.params_.forest);
  if (out.compiled_.compiled() &&
      out.compiled_.num_features() != kNumTransitionAttributes)
    in.fail("forest does not read 9 transition attributes");
  return out;
}

}  // namespace cgctx::core

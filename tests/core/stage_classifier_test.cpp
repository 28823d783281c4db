#include "core/stage_classifier.hpp"

#include <gtest/gtest.h>

#include "core/training.hpp"
#include "ml/metrics.hpp"
#include "sim/lab_dataset.hpp"
#include "../rejection_message.hpp"

namespace cgctx::core {
namespace {

/// Small lab slice shared by the tests in this file (built once).
const ml::Dataset& stage_data() {
  static const ml::Dataset data = [] {
    sim::LabPlanOptions plan;
    plan.scale = 0.08;
    plan.gameplay_seconds = 180.0;
    plan.seed = 31;
    return build_stage_dataset(sim::lab_session_plan(plan));
  }();
  return data;
}

TEST(StageClassifier, DatasetHasFourAttributesThreeClasses) {
  const auto& data = stage_data();
  EXPECT_EQ(data.num_features(), kNumVolumetricAttributes);
  EXPECT_EQ(data.num_classes(), kNumStageLabels);
  EXPECT_GT(data.size(), 1000u);
  // All three stages represented.
  const auto counts = data.class_counts();
  for (std::size_t c = 0; c < kNumStageLabels; ++c) EXPECT_GT(counts[c], 50u);
}

TEST(StageClassifier, AccuracyInPaperBand) {
  ml::Rng rng(5);
  const auto split = ml::stratified_split(stage_data(), 0.25, rng);
  StageClassifier classifier;
  classifier.train(split.train);
  const auto cm = ml::evaluate(classifier.reference_forest(), split.test);
  // Paper Table 4 reports 92.5-98.4% per stage; overall in the mid-90s.
  EXPECT_GT(cm.accuracy(), 0.90);
  EXPECT_GT(cm.per_class_accuracy(kStageActive), 0.90);
  EXPECT_GT(cm.per_class_accuracy(kStagePassive), 0.85);
  EXPECT_GT(cm.per_class_accuracy(kStageIdle), 0.90);
}

TEST(StageClassifier, ClassifiesArchetypalSlots) {
  ml::Rng rng(7);
  const auto split = ml::stratified_split(stage_data(), 0.25, rng);
  StageClassifier classifier;
  classifier.train(split.train);
  // Archetypal attribute vectors (down tput, down rate, up tput, up rate).
  EXPECT_EQ(classifier.classify({0.98, 0.97, 0.95, 0.96}), kStageActive);
  EXPECT_EQ(classifier.classify({0.85, 0.84, 0.25, 0.26}), kStagePassive);
  EXPECT_EQ(classifier.classify({0.12, 0.13, 0.09, 0.10}), kStageIdle);
}

TEST(StageClassifier, ConfidenceAccompaniesPrediction) {
  ml::Rng rng(9);
  const auto split = ml::stratified_split(stage_data(), 0.25, rng);
  StageClassifier classifier;
  classifier.train(split.train);
  const auto prediction =
      classifier.classify_with_confidence({0.99, 0.99, 0.99, 0.99});
  EXPECT_EQ(prediction.label, kStageActive);
  EXPECT_GT(prediction.confidence, 0.8);
}

TEST(StageClassifier, TrainRejectsWrongWidth) {
  ml::Dataset bad({"a"}, stage_class_names());
  bad.add({1.0}, 0);
  StageClassifier classifier;
  EXPECT_THROW(classifier.train(bad), std::invalid_argument);
}

TEST(StageClassifier, SerializeRoundTrip) {
  ml::Rng rng(11);
  const auto split = ml::stratified_split(stage_data(), 0.5, rng);
  StageClassifier classifier;
  classifier.train(split.train);
  const auto copy = StageClassifier::deserialize(classifier.serialize());
  for (std::size_t i = 0; i < std::min<std::size_t>(200, split.test.size()); ++i)
    EXPECT_EQ(classifier.classify(split.test.row(i)),
              copy.classify(split.test.row(i)));
}

TEST(StageClassifier, DeserializeRejectsGarbage) {
  EXPECT_THROW(StageClassifier::deserialize("bogus\nforest 0 0"),
               std::invalid_argument);
}

TEST(StageClassifier, ClassNamesMatchLabelOrder) {
  const auto names = stage_class_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[static_cast<std::size_t>(kStageActive)], "active");
  EXPECT_EQ(names[static_cast<std::size_t>(kStagePassive)], "passive");
  EXPECT_EQ(names[static_cast<std::size_t>(kStageIdle)], "idle");
}

using testing_support::rejection_message;

// A forest over the wrong number of features would throw on every slot;
// it is rejected at load instead.
TEST(StageClassifier, DeserializeRejectsForestOfTheWrongWidth) {
  const auto model = [](int width) {
    return "stage_classifier\nforest 1 3\n100 10 2 1 0 1 42\ntree 1 3 " +
           std::to_string(width) + "\nleaf 0.2 0.3 0.5\n";
  };
  EXPECT_EQ(StageClassifier::deserialize(model(4)).classify({1, 2, 3, 4}), 2);
  EXPECT_NE(rejection_message([&] {
              (void)StageClassifier::deserialize(model(3));
            }).find("volumetric attributes"),
            std::string::npos);
}

}  // namespace
}  // namespace cgctx::core

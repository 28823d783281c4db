// Round-trip parity for the compiled inference engine across all three
// classifiers: train -> serialize -> deserialize -> compile must yield
// bitwise-identical predict_proba output, and every classify/infer front
// door (allocating and scratch-span) must agree with the reference
// forest walk.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/stage_classifier.hpp"
#include "core/title_classifier.hpp"
#include "core/transition_model.hpp"
#include "ml/rng.hpp"
#include "probe_test_models.hpp"

namespace cgctx::core {
namespace {

void expect_bitwise_equal(const ml::ClassProbabilities& a,
                          const ml::ClassProbabilities& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[c]),
              std::bit_cast<std::uint64_t>(b[c]))
        << "class " << c;
}

/// Deterministic plausible feature rows of the given width.
std::vector<ml::FeatureRow> sample_rows(std::size_t width, std::uint64_t seed,
                                        int count = 60) {
  ml::Rng rng(seed);
  std::vector<ml::FeatureRow> rows;
  rows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ml::FeatureRow row(width);
    for (double& x : row) x = rng.uniform(0.0, 1.5);
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(CompiledInference, TitleRoundTripIsBitwiseIdentical) {
  const TitleClassifier& trained = probe_test_suite().title;
  const TitleClassifier restored =
      TitleClassifier::deserialize(trained.serialize());
  ASSERT_TRUE(restored.compiled().compiled());
  const ml::RandomForest forest = trained.reference_forest();
  std::vector<double> scratch(restored.scratch_size());
  for (const ml::FeatureRow& row : sample_rows(kNumLaunchAttributes, 41)) {
    expect_bitwise_equal(restored.compiled().predict_proba(row),
                         forest.predict_proba(row));
    // Both classify front doors agree with each other and the original.
    EXPECT_EQ(restored.classify_features(row, scratch),
              trained.classify_features(row));
  }
}

TEST(CompiledInference, StageRoundTripIsBitwiseIdentical) {
  const StageClassifier& trained = probe_test_suite().stage;
  const StageClassifier restored =
      StageClassifier::deserialize(trained.serialize());
  ASSERT_TRUE(restored.compiled().compiled());
  const ml::RandomForest forest = trained.reference_forest();
  std::vector<double> scratch(restored.scratch_size());
  for (const ml::FeatureRow& row :
       sample_rows(kNumVolumetricAttributes, 43)) {
    expect_bitwise_equal(restored.compiled().predict_proba(row),
                         forest.predict_proba(row));
    EXPECT_EQ(restored.classify(row), forest.predict(row));
    EXPECT_EQ(restored.classify(row, scratch), restored.classify(row));
    const auto with_scratch = restored.classify_with_confidence(row, scratch);
    const auto reference = forest.predict_with_confidence(row);
    EXPECT_EQ(with_scratch.label, reference.label);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(with_scratch.confidence),
              std::bit_cast<std::uint64_t>(reference.confidence));
  }
}

TEST(CompiledInference, PatternRoundTripIsBitwiseIdentical) {
  const PatternInferrer& trained = probe_test_suite().pattern;
  const PatternInferrer restored =
      PatternInferrer::deserialize(trained.serialize());
  ASSERT_TRUE(restored.compiled().compiled());
  const ml::RandomForest forest = trained.reference_forest();
  for (const ml::FeatureRow& row :
       sample_rows(kNumTransitionAttributes, 47)) {
    expect_bitwise_equal(restored.compiled().predict_proba(row),
                         forest.predict_proba(row));
  }
}

TEST(CompiledInference, PatternInferScratchPathAgrees) {
  const PatternInferrer& inferrer = probe_test_suite().pattern;
  std::vector<double> scratch(inferrer.scratch_size());
  // Drive a tracker through a deterministic stage walk long enough to
  // clear the transition floor.
  TransitionTracker tracker;
  ml::Rng rng(53);
  for (std::size_t i = 0; i < inferrer.params().min_transitions + 40; ++i)
    tracker.push(static_cast<ml::Label>(rng.next_below(kNumStageLabels)));
  const PatternResult convenient = inferrer.infer_unchecked(tracker);
  const PatternResult spanned = inferrer.infer_unchecked(tracker, scratch);
  EXPECT_EQ(convenient, spanned);
  EXPECT_EQ(inferrer.infer(tracker), inferrer.infer(tracker, scratch));
}

TEST(CompiledInference, ClassifiersCompileAfterTraining) {
  const ModelSuite& suite = probe_test_suite();
  EXPECT_TRUE(suite.title.compiled().compiled());
  EXPECT_TRUE(suite.stage.compiled().compiled());
  EXPECT_TRUE(suite.pattern.compiled().compiled());
  EXPECT_EQ(suite.title.compiled().tree_count(),
            suite.title.reference_forest().tree_count());
  EXPECT_EQ(suite.stage.scratch_size(),
            suite.stage.reference_forest().num_classes());
  EXPECT_EQ(suite.pattern.scratch_size(), kNumPatternLabels);
}

TEST(CompiledInference, UntrainedClassifierStillThrowsLogicError) {
  const TitleClassifier untrained;
  EXPECT_EQ(untrained.scratch_size(), 0u);
  EXPECT_THROW((void)untrained.classify_features(
                   ml::FeatureRow(kNumLaunchAttributes, 0.0)),
               std::logic_error);
  const StageClassifier stage;
  EXPECT_THROW((void)stage.classify(
                   ml::FeatureRow(kNumVolumetricAttributes, 0.0)),
               std::logic_error);
}

}  // namespace
}  // namespace cgctx::core

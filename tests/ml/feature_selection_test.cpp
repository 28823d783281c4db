#include "ml/feature_selection.hpp"

#include <gtest/gtest.h>

#include "ml/random_forest.hpp"
#include "../rejection_message.hpp"

namespace cgctx::ml {
namespace {

ImportanceResult fake_importance(std::initializer_list<double> drops) {
  ImportanceResult r;
  r.mean_drop = drops;
  r.stddev.assign(r.mean_drop.size(), 0.0);
  r.baseline_accuracy = 0.9;
  return r;
}

TEST(FeatureSelection, FromImportanceKeepsPositiveDrops) {
  const auto selection =
      FeatureSelection::from_importance(fake_importance({0.2, 0.0, -0.1, 0.05}));
  EXPECT_EQ(selection.kept(), (std::vector<std::size_t>{0, 3}));
}

TEST(FeatureSelection, FromImportanceWithThreshold) {
  const auto selection = FeatureSelection::from_importance(
      fake_importance({0.2, 0.04, 0.3, 0.05}), 0.045);
  EXPECT_EQ(selection.kept(), (std::vector<std::size_t>{0, 2, 3}));
}

TEST(FeatureSelection, FromImportanceThrowsWhenNothingSurvives) {
  EXPECT_THROW(
      FeatureSelection::from_importance(fake_importance({0.0, -0.1})),
      std::invalid_argument);
}

TEST(FeatureSelection, TopKPicksLargest) {
  const auto selection =
      FeatureSelection::top_k(fake_importance({0.1, 0.5, 0.0, 0.3}), 2);
  EXPECT_EQ(selection.kept(), (std::vector<std::size_t>{1, 3}));
}

TEST(FeatureSelection, TopKClampsToWidth) {
  const auto selection =
      FeatureSelection::top_k(fake_importance({0.1, 0.2}), 99);
  EXPECT_EQ(selection.output_width(), 2u);
}

TEST(FeatureSelection, ProjectRowAndNames) {
  const FeatureSelection selection({1, 3});
  EXPECT_EQ(selection.project(FeatureRow{9.0, 8.0, 7.0, 6.0}),
            (FeatureRow{8.0, 6.0}));
  EXPECT_EQ(selection.project(std::vector<std::string>{"a", "b", "c", "d"}),
            (std::vector<std::string>{"b", "d"}));
  EXPECT_THROW(selection.project(FeatureRow{1.0, 2.0}), std::invalid_argument);
}

TEST(FeatureSelection, ProjectDatasetPreservesLabels) {
  Dataset data({"a", "b", "c"}, {"x", "y"});
  data.add({1.0, 2.0, 3.0}, 0);
  data.add({4.0, 5.0, 6.0}, 1);
  const FeatureSelection selection({0, 2});
  const Dataset projected = selection.project(data);
  EXPECT_EQ(projected.num_features(), 2u);
  EXPECT_EQ(projected.feature_names(),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(projected.label(1), 1);
  EXPECT_EQ(projected.row(1), (FeatureRow{4.0, 6.0}));
}

TEST(FeatureSelection, DuplicateIndicesDeduplicated) {
  const FeatureSelection selection({2, 0, 2, 0});
  EXPECT_EQ(selection.kept(), (std::vector<std::size_t>{0, 2}));
}

TEST(FeatureSelection, EmptyThrows) {
  EXPECT_THROW(FeatureSelection(std::vector<std::size_t>{}),
               std::invalid_argument);
}

TEST(FeatureSelection, SerializeRoundTrip) {
  const FeatureSelection selection({0, 5, 17});
  const auto copy = FeatureSelection::deserialize(selection.serialize());
  EXPECT_EQ(copy.kept(), selection.kept());
  EXPECT_THROW(FeatureSelection::deserialize("junk 2 1 2"),
               std::invalid_argument);
}

TEST(FeatureSelection, PrunedModelKeepsAccuracyOnRedundantData) {
  // Class depends on feature 0; features 1-3 are noise. A model on the
  // selected single feature must match the full model.
  Dataset data({"signal", "n1", "n2", "n3"}, {"a", "b"});
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Label label = i % 2;
    data.add({label == 0 ? rng.normal(-2, 0.5) : rng.normal(2, 0.5),
              rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)},
             label);
  }
  RandomForest full(RandomForestParams{.n_trees = 20, .seed = 5});
  full.fit(data);
  Rng imp_rng(6);
  const auto importance = permutation_importance(full, data, 3, imp_rng);
  const auto selection = FeatureSelection::top_k(importance, 1);
  ASSERT_EQ(selection.kept(), (std::vector<std::size_t>{0}));
  const Dataset pruned = selection.project(data);
  RandomForest small(RandomForestParams{.n_trees = 20, .seed = 7});
  small.fit(pruned);
  EXPECT_GT(small.score(pruned), 0.98);
}

using testing_support::rejection_message;

TEST(FeatureSelection, DeserializeRejectsOversizedCounts) {
  for (const char* text : {"selection 18446744073709551615 1 2\n",
                           "selection 4000000 1 2\n"}) {
    SCOPED_TRACE(text);
    EXPECT_NE(rejection_message([&] {
                (void)FeatureSelection::deserialize(text);
              }).find("bytes left"),
              std::string::npos);
  }
  EXPECT_NE(rejection_message([] {
              (void)FeatureSelection::deserialize("selection 2 1 -2\n");
            }).find("expected an integer"),
            std::string::npos);
  EXPECT_NE(rejection_message([] {
              (void)FeatureSelection::deserialize("selection 2 1 2 3\n");
            }).find("trailing"),
            std::string::npos);
}

}  // namespace
}  // namespace cgctx::ml

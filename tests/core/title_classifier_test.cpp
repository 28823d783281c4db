#include "core/title_classifier.hpp"

#include <gtest/gtest.h>

#include "core/training.hpp"
#include "ml/metrics.hpp"
#include "sim/lab_dataset.hpp"
#include "../rejection_message.hpp"

namespace cgctx::core {
namespace {

/// Small title dataset shared across tests (built once; ~130 sessions).
const ml::Dataset& title_data() {
  static const ml::Dataset data = [] {
    sim::LabPlanOptions plan;
    plan.scale = 0.25;
    plan.gameplay_seconds = 8.0;
    plan.seed = 77;
    TitleDatasetOptions options;
    options.augment_copies = 1;
    return build_title_dataset(sim::lab_session_plan(plan), options);
  }();
  return data;
}

TitleClassifier trained_classifier(ml::Rng& rng, double test_fraction,
                                   ml::Dataset* test_out) {
  const auto split = ml::stratified_split(title_data(), test_fraction, rng);
  // Smaller forest keeps the test fast; accuracy bound is set accordingly.
  TitleClassifierParams params;
  params.forest.n_trees = 150;
  TitleClassifier classifier(params);
  classifier.train(split.train);
  if (test_out != nullptr) *test_out = split.test;
  return classifier;
}

TEST(TitleClassifier, DatasetShape) {
  EXPECT_EQ(title_data().num_features(), kNumLaunchAttributes);
  EXPECT_EQ(title_data().num_classes(), sim::kNumPopularTitles);
  EXPECT_GT(title_data().size(), 200u);
}

TEST(TitleClassifier, AccuracyInPaperBand) {
  ml::Rng rng(1);
  ml::Dataset test;
  const TitleClassifier classifier = trained_classifier(rng, 0.25, &test);
  const auto cm = ml::evaluate(classifier.reference_forest(), test);
  // Paper Table 3: 92.7-98.0% per title, ~95% overall; allow slack for
  // the reduced test-size forest and quarter-scale training plan (the
  // full-scale benches evaluate the paper band itself).
  EXPECT_GT(cm.accuracy(), 0.78);
}

TEST(TitleClassifier, ConfidentPredictionCarriesClassName) {
  ml::Rng rng(2);
  ml::Dataset test;
  const TitleClassifier classifier = trained_classifier(rng, 0.25, &test);
  // Find a confidently classified test row.
  bool found = false;
  for (std::size_t i = 0; i < test.size() && !found; ++i) {
    const auto result = classifier.classify_features(test.row(i));
    if (result.label.has_value() && result.confidence > 0.7) {
      EXPECT_FALSE(result.class_name.empty());
      EXPECT_EQ(result.class_name,
                test.class_names()[static_cast<std::size_t>(*result.label)]);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TitleClassifier, LowConfidenceBecomesUnknown) {
  ml::Rng rng(3);
  TitleClassifierParams params;
  params.forest.n_trees = 60;
  params.unknown_threshold = 1.01;  // force every result to "unknown"
  const auto split = ml::stratified_split(title_data(), 0.3, rng);
  TitleClassifier classifier(params);
  classifier.train(split.train);
  const auto result = classifier.classify_features(split.test.row(0));
  EXPECT_FALSE(result.label.has_value());
  EXPECT_TRUE(result.class_name.empty());
  EXPECT_GT(result.confidence, 0.0);
}

TEST(TitleClassifier, UnknownTitleSessionsGetLowerConfidence) {
  ml::Rng rng(4);
  const TitleClassifier classifier = trained_classifier(rng, 0.3, nullptr);
  // Sessions of a long-tail title outside the trained catalog.
  const sim::SessionGenerator gen;
  double tail_conf = 0.0;
  double known_conf = 0.0;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    sim::SessionSpec tail;
    tail.title = sim::GameTitle::kOtherContinuous;
    tail.gameplay_seconds = 8;
    tail.seed = 1000 + static_cast<std::uint64_t>(i);
    const auto session = gen.generate(tail);
    tail_conf +=
        classifier.classify(session.packets, session.launch_begin).confidence;

    sim::SessionSpec known = tail;
    known.title = sim::GameTitle::kGenshinImpact;
    const auto known_session = gen.generate(known);
    known_conf += classifier
                      .classify(known_session.packets,
                                known_session.launch_begin)
                      .confidence;
  }
  EXPECT_LT(tail_conf / n, known_conf / n);
}

TEST(TitleClassifier, TrainRejectsWrongWidth) {
  ml::Dataset bad({"a", "b"}, {"x"});
  bad.add({1.0, 2.0}, 0);
  TitleClassifier classifier;
  EXPECT_THROW(classifier.train(bad), std::invalid_argument);
}

// A loaded classifier keeps no reference forest, so the forest header's
// params live in params().forest, and serialize() writes them back.
TEST(TitleClassifier, DeserializeKeepsTheForestHeaderAsParams) {
  const std::string text =
      "title_classifier 2 0.4 5 1 0.1\na\nb\nforest 1 2\n"
      "7 3 4 2 1 0 99\ntree 1 2 51\nleaf 0.25 0.75\n";
  const TitleClassifier loaded = TitleClassifier::deserialize(text);
  const ml::RandomForestParams& forest = loaded.params().forest;
  EXPECT_EQ(forest.n_trees, 7u);
  EXPECT_EQ(forest.max_depth, 3u);
  EXPECT_EQ(forest.min_samples_split, 4u);
  EXPECT_EQ(forest.min_samples_leaf, 2u);
  EXPECT_EQ(forest.max_features, 1u);
  EXPECT_FALSE(forest.bootstrap);
  EXPECT_EQ(forest.seed, 99u);
  EXPECT_EQ(loaded.serialize(), text);
}

TEST(TitleClassifier, SerializeRoundTrip) {
  ml::Rng rng(5);
  ml::Dataset test;
  const TitleClassifier classifier = trained_classifier(rng, 0.5, &test);
  const auto copy = TitleClassifier::deserialize(classifier.serialize());
  for (std::size_t i = 0; i < std::min<std::size_t>(100, test.size()); ++i) {
    const auto a = classifier.classify_features(test.row(i));
    const auto b = copy.classify_features(test.row(i));
    EXPECT_EQ(a.label, b.label);
    EXPECT_DOUBLE_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.class_name, b.class_name);
  }
}

TEST(TitleClassifier, DeserializeRejectsGarbage) {
  EXPECT_THROW(TitleClassifier::deserialize("nope 1 2 3"),
               std::invalid_argument);
}

using testing_support::rejection_message;

TEST(TitleClassifier, DeserializeRejectsOversizedCounts) {
  for (const char* text :
       {"title_classifier 18446744073709551615 0.4 5 1 0.1\na\n",
        "title_classifier 4000000 0.4 5 1 0.1\na\n"}) {
    SCOPED_TRACE(text);
    EXPECT_NE(rejection_message([&] {
                (void)TitleClassifier::deserialize(text);
              }).find("bytes left"),
              std::string::npos);
  }
  EXPECT_NE(rejection_message([] {
              (void)TitleClassifier::deserialize(
                  "title_classifier -1 0.4 5 1 0.1\n");
            }).find("expected an integer"),
            std::string::npos);
}

// launch_attributes() sizes per-slot buffers by window / slot; a loaded
// window must be one it can evaluate.
TEST(TitleClassifier, DeserializeRejectsBadLaunchWindow) {
  for (const char* header : {"0.4 5 0 0.1", "0.4 5 -1 0.1", "0.4 1 5 0.1",
                             "0.4 1e9 1 0.1", "0.4 5 1e-300 0.1",
                             "0.4 1e-10 1e-10 0.1", "0.4 nan 1 0.1"}) {
    SCOPED_TRACE(header);
    const std::string text = std::string("title_classifier 0 ") + header +
                             "\nforest 0 0\n100 10 2 1 0 1 42\n";
    EXPECT_THROW((void)TitleClassifier::deserialize(text),
                 std::invalid_argument);
  }
  const TitleClassifier empty = TitleClassifier::deserialize(
      "title_classifier 0 0.4 5 1 0.1\nforest 0 0\n100 10 2 1 0 1 42\n");
  EXPECT_EQ(empty.params().attributes.window_seconds, 5.0);
}

}  // namespace
}  // namespace cgctx::core

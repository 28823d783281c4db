// Seeded mutation tests for the model deserializers: a model file is
// read at start-up, possibly from a store an attacker can write, so a
// corrupted one must be rejected with std::invalid_argument — never
// crash, hang, over-allocate, or load into a model whose first
// prediction misbehaves. Small in-test models of every serialized type
// are cut, edited and re-parsed thousands of times from fixed seeds.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cctype>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/launch_attributes.hpp"
#include "core/stage_classifier.hpp"
#include "core/title_classifier.hpp"
#include "core/transition_model.hpp"
#include "core/volumetric_tracker.hpp"
#include "ml/feature_selection.hpp"
#include "ml/rng.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"

namespace cgctx::core {
namespace {

constexpr int kMutationsPerModel = 3000;

/// Random rows of `width` features over `classes` labels: enough for
/// small forests with real splits and leaves.
ml::Dataset random_dataset(std::vector<std::string> features,
                           std::vector<std::string> classes, std::size_t rows,
                           std::uint64_t seed) {
  const std::size_t width = features.size();
  const std::size_t n_classes = classes.size();
  ml::Dataset data(std::move(features), std::move(classes));
  ml::Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto label = static_cast<ml::Label>(i % n_classes);
    ml::FeatureRow row(width);
    for (double& v : row) v = rng.normal(static_cast<double>(label), 1.0);
    data.add(std::move(row), label);
  }
  return data;
}

constexpr ml::RandomForestParams kSmallForest{
    .n_trees = 3, .max_depth = 4, .min_samples_split = 2,
    .min_samples_leaf = 1, .max_features = 0, .bootstrap = true, .seed = 5};

std::vector<std::string_view> lines_of(const std::string& text) {
  std::vector<std::string_view> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find('\n', begin);
    const std::size_t stop = end == std::string::npos ? text.size() : end + 1;
    lines.push_back(std::string_view(text).substr(begin, stop - begin));
    begin = stop;
  }
  return lines;
}

/// One seeded edit of `text`: truncation, a token replaced by a hostile
/// value, a line deleted or duplicated, or one digit changed.
std::string mutate(const std::string& text, ml::Rng& rng) {
  static const std::array<const char*, 10> kHostile = {
      "18446744073709551615", "99999999999999999999999", "-1", "-7.5",
      "abc", "nan", "inf", "-inf", "1e999", "4000000"};
  switch (rng.next_below(5)) {
    case 0:
      return text.substr(0, rng.next_below(text.size()));
    case 1: {
      // Token boundaries: start somewhere, extend over non-space bytes.
      std::size_t begin = rng.next_below(text.size());
      while (begin > 0 && !std::isspace(static_cast<unsigned char>(
                              text[begin - 1])))
        --begin;
      std::size_t end = begin;
      while (end < text.size() &&
             !std::isspace(static_cast<unsigned char>(text[end])))
        ++end;
      return text.substr(0, begin) + kHostile[rng.next_below(kHostile.size())] +
             text.substr(end);
    }
    case 2:
    case 3: {
      const auto lines = lines_of(text);
      const std::size_t pick = rng.next_below(lines.size());
      const bool duplicate = rng.next_below(2) == 0;
      std::string out;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i != pick || duplicate) out += lines[i];
        if (i == pick && duplicate) out += lines[i];
      }
      return out;
    }
    default: {
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] >= '0' && text[i] <= '9') digits.push_back(i);
      std::string out = text;
      char& c = out[digits[rng.next_below(digits.size())]];
      c = static_cast<char>('0' + (c - '0' + 1 + rng.next_below(9)) % 10);
      return out;
    }
  }
}

/// Runs `load_and_predict` over seeded mutations of `text`. Each must
/// either complete or throw std::invalid_argument; anything else fails.
void fuzz(const std::string& text, std::uint64_t seed,
          const std::function<void(std::string_view)>& load_and_predict) {
  ASSERT_NO_THROW(load_and_predict(text));
  ml::Rng rng(seed);
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < kMutationsPerModel; ++i) {
    const std::string mutated = mutate(text, rng);
    try {
      load_and_predict(mutated);
      ++loaded;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw " << typeid(e).name() << ": "
             << e.what() << "\n--- text ---\n"
             << mutated;
    }
  }
  // The edits must reach both outcomes: some corrupt texts still parse
  // (a changed leaf value), most do not.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, loaded);
}

/// What a forest model that loaded from a mutant must also satisfy: its
/// text re-serializes to a fixed point, and its compiled forest predicts
/// `row` bitwise as the reference forest it rebuilds.
template <typename Model>
void expect_canonical(const Model& model, std::span<const double> row) {
  const std::string text = model.serialize();
  std::string again;
  ASSERT_NO_THROW(again = Model::deserialize(text).serialize()) << text;
  EXPECT_EQ(again, text);
  if (!model.compiled().compiled()) return;
  const ml::FeatureRow features(row.begin(), row.end());
  const ml::ClassProbabilities compiled =
      model.compiled().predict_proba(features);
  const ml::ClassProbabilities reference =
      model.reference_forest().predict_proba(features);
  ASSERT_EQ(compiled.size(), reference.size());
  for (std::size_t c = 0; c < compiled.size(); ++c)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(compiled[c]),
              std::bit_cast<std::uint64_t>(reference[c]))
        << "class " << c << "\n--- text ---\n"
        << text;
}

TEST(ModelTextFuzz, TitleClassifier) {
  TitleClassifierParams params;
  params.forest = kSmallForest;
  TitleClassifier trained(params);
  trained.train(random_dataset(launch_attribute_names(), {"a", "b", "c"}, 60,
                               1));
  const ml::FeatureRow row(kNumLaunchAttributes, 0.5);
  std::vector<net::PacketRecord> packets(40);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    packets[i].timestamp = static_cast<net::Timestamp>(i) * 100'000'000;
    packets[i].payload_size = 200 + static_cast<std::uint32_t>(i % 7) * 100;
  }
  fuzz(trained.serialize(), 11, [&](std::string_view text) {
    const TitleClassifier model = TitleClassifier::deserialize(text);
    (void)model.classify_features(row);
    (void)model.classify(packets, 0);
    expect_canonical(model, row);
  });
}

TEST(ModelTextFuzz, StageClassifier) {
  StageClassifier trained(StageClassifierParams{.forest = kSmallForest});
  trained.train(random_dataset(volumetric_attribute_names(),
                               stage_class_names(), 60, 2));
  const ml::FeatureRow row(kNumVolumetricAttributes, 0.5);
  fuzz(trained.serialize(), 12, [&](std::string_view text) {
    const StageClassifier model = StageClassifier::deserialize(text);
    (void)model.classify(row);
    expect_canonical(model, row);
  });
}

TEST(ModelTextFuzz, PatternInferrer) {
  PatternInferrerParams params;
  params.forest = kSmallForest;
  PatternInferrer trained(params);
  trained.train(random_dataset(transition_attribute_names(),
                               pattern_class_names(), 60, 3));
  const std::vector<double> row(kNumTransitionAttributes, 0.1);
  fuzz(trained.serialize(), 13, [&](std::string_view text) {
    const PatternInferrer model = PatternInferrer::deserialize(text);
    std::vector<double> scratch(model.scratch_size());
    std::array<std::optional<PatternResult>, 1> out;
    model.infer_rows(row, scratch, out);
    expect_canonical(model, row);
  });
}

TEST(ModelTextFuzz, Svm) {
  ml::Svm trained(ml::SvmParams{.c = 1.0, .kernel = ml::KernelType::kRbf});
  trained.fit(random_dataset({"x", "y"}, {"a", "b", "c"}, 24, 4));
  fuzz(trained.serialize(), 14, [](std::string_view text) {
    (void)ml::Svm::deserialize(text).predict_proba({0.5, -0.5});
  });
}

TEST(ModelTextFuzz, StandardScaler) {
  ml::StandardScaler trained;
  trained.fit(random_dataset({"x", "y", "z"}, {"a", "b"}, 20, 5));
  fuzz(trained.serialize(), 15, [](std::string_view text) {
    (void)ml::StandardScaler::deserialize(text).transform({1.0, 2.0, 3.0});
  });
}

TEST(ModelTextFuzz, FeatureSelection) {
  const ml::FeatureSelection trained({1, 3, 4, 12});
  fuzz(trained.serialize(), 16, [](std::string_view text) {
    const auto model = ml::FeatureSelection::deserialize(text);
    // Selections carry no width: a row narrower than an index is the
    // documented invalid_argument of project().
    (void)model.project(ml::FeatureRow(16, 1.0));
  });
}

/// The loaders read back exactly what the writers wrote: re-serializing a
/// loaded model reproduces its text byte for byte.
TEST(ModelTextFuzz, RoundTripIsByteIdentical) {
  TitleClassifierParams title_params;
  title_params.forest = kSmallForest;
  TitleClassifier title(title_params);
  title.train(random_dataset(launch_attribute_names(), {"a", "b"}, 40, 6));
  StageClassifier stage(StageClassifierParams{.forest = kSmallForest});
  stage.train(random_dataset(volumetric_attribute_names(), stage_class_names(),
                             40, 7));
  PatternInferrerParams pattern_params;
  pattern_params.forest = kSmallForest;
  PatternInferrer pattern(pattern_params);
  pattern.train(random_dataset(transition_attribute_names(),
                               pattern_class_names(), 40, 8));
  ml::Svm svm;
  svm.fit(random_dataset({"x", "y"}, {"a", "b"}, 20, 9));
  ml::StandardScaler scaler;
  scaler.fit(random_dataset({"x", "y"}, {"a", "b"}, 20, 10));
  const ml::FeatureSelection selection({0, 2, 5});

  const std::string title_text = title.serialize();
  EXPECT_EQ(TitleClassifier::deserialize(title_text).serialize(), title_text);
  const std::string stage_text = stage.serialize();
  EXPECT_EQ(StageClassifier::deserialize(stage_text).serialize(), stage_text);
  const std::string pattern_text = pattern.serialize();
  EXPECT_EQ(PatternInferrer::deserialize(pattern_text).serialize(),
            pattern_text);
  const ml::RandomForest stage_forest = stage.reference_forest();
  const std::string forest_text = stage_forest.serialize();
  EXPECT_EQ(ml::RandomForest::deserialize(forest_text).serialize(),
            forest_text);
  const std::string svm_text = svm.serialize();
  EXPECT_EQ(ml::Svm::deserialize(svm_text).serialize(), svm_text);
  const std::string scaler_text = scaler.serialize();
  EXPECT_EQ(ml::StandardScaler::deserialize(scaler_text).serialize(),
            scaler_text);
  const std::string selection_text = selection.serialize();
  EXPECT_EQ(ml::FeatureSelection::deserialize(selection_text).serialize(),
            selection_text);
}

}  // namespace
}  // namespace cgctx::core

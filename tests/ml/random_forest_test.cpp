#include "ml/random_forest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/thread_pool.hpp"
#include "../rejection_message.hpp"

namespace cgctx::ml {
namespace {

Dataset blobs(std::size_t per_class, double separation, std::uint64_t seed,
              std::size_t classes = 2) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < classes; ++c)
    names.push_back("c" + std::to_string(c));
  Dataset data({"x", "y"}, names);
  Rng rng(seed);
  for (std::size_t i = 0; i < per_class; ++i)
    for (std::size_t c = 0; c < classes; ++c)
      data.add({rng.normal(separation * static_cast<double>(c), 1.0),
                rng.normal(0.0, 1.0)},
               static_cast<Label>(c));
  return data;
}

TEST(RandomForest, FitsSeparableData) {
  const Dataset data = blobs(100, 5.0, 1);
  RandomForest forest(RandomForestParams{.n_trees = 30, .seed = 2});
  forest.fit(data);
  EXPECT_GT(forest.score(data), 0.99);
  EXPECT_EQ(forest.tree_count(), 30u);
}

TEST(RandomForest, MulticlassWorks) {
  const Dataset data = blobs(60, 5.0, 3, 4);
  RandomForest forest(RandomForestParams{.n_trees = 40, .seed = 4});
  forest.fit(data);
  EXPECT_GT(forest.score(data), 0.95);
  const auto probs = forest.predict_proba({0.0, 0.0});
  EXPECT_EQ(probs.size(), 4u);
}

TEST(RandomForest, ProbabilitiesSumToOne) {
  const Dataset data = blobs(50, 2.0, 5);
  RandomForest forest(RandomForestParams{.n_trees = 20, .seed = 6});
  forest.fit(data);
  const auto probs = forest.predict_proba({1.0, 0.5});
  double total = 0.0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RandomForest, ConfidenceHighAwayFromBoundary) {
  const Dataset data = blobs(200, 6.0, 7);
  RandomForest forest(RandomForestParams{.n_trees = 50, .seed = 8});
  forest.fit(data);
  const auto sure = forest.predict_with_confidence({6.0, 0.0});
  EXPECT_EQ(sure.label, 1);
  EXPECT_GT(sure.confidence, 0.9);
  const auto unsure = forest.predict_with_confidence({3.0, 0.0});
  EXPECT_LT(unsure.confidence, sure.confidence + 1e-9);
}

TEST(RandomForest, OobScoreTracksGeneralization) {
  const Dataset data = blobs(150, 3.0, 9);
  RandomForest forest(RandomForestParams{.n_trees = 60, .seed = 10});
  forest.fit(data);
  const double oob = forest.oob_score();
  EXPECT_FALSE(std::isnan(oob));
  EXPECT_GT(oob, 0.85);
  EXPECT_LE(oob, 1.0);
}

TEST(RandomForest, NoBootstrapHasNoOobScore) {
  const Dataset data = blobs(50, 3.0, 11);
  RandomForest forest(
      RandomForestParams{.n_trees = 10, .bootstrap = false, .seed = 12});
  forest.fit(data);
  EXPECT_TRUE(std::isnan(forest.oob_score()));
}

TEST(RandomForest, DeterministicForSameSeed) {
  const Dataset data = blobs(60, 1.5, 13);
  RandomForest a(RandomForestParams{.n_trees = 15, .seed = 99});
  RandomForest b(RandomForestParams{.n_trees = 15, .seed = 99});
  a.fit(data);
  b.fit(data);
  Rng rng(100);
  for (int i = 0; i < 50; ++i) {
    const FeatureRow row{rng.uniform(-4, 7), rng.uniform(-3, 3)};
    EXPECT_EQ(a.predict(row), b.predict(row));
  }
}

TEST(RandomForest, DifferentSeedsDifferentForests) {
  const Dataset data = blobs(60, 1.0, 15);  // heavy overlap
  RandomForest a(RandomForestParams{.n_trees = 5, .seed = 1});
  RandomForest b(RandomForestParams{.n_trees = 5, .seed = 2});
  a.fit(data);
  b.fit(data);
  Rng rng(101);
  int disagreements = 0;
  for (int i = 0; i < 200; ++i) {
    const FeatureRow row{rng.uniform(-3, 4), rng.uniform(-3, 3)};
    if (a.predict(row) != b.predict(row)) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

TEST(RandomForest, ThrowsOnEmptyFitAndZeroTrees) {
  RandomForest forest;
  EXPECT_THROW(forest.fit(Dataset{}), std::invalid_argument);
  RandomForest none(RandomForestParams{.n_trees = 0});
  EXPECT_THROW(none.fit(blobs(5, 1.0, 17)), std::invalid_argument);
}

TEST(RandomForest, PredictTieBreaksToLowestLabel) {
  // Identical rows with alternating labels leave every tree a single
  // [0.5, 0.5] leaf: predict faces an exact probability tie and must
  // resolve it to the lowest label (std::max_element returns the first
  // maximum). The compiled engine pins the same rule. Bootstrap is off
  // so every tree sees the exact 50/50 label mix.
  Dataset data({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 10; ++i) data.add({3.0, -1.0}, i % 2);
  RandomForest forest(
      RandomForestParams{.n_trees = 7, .bootstrap = false, .seed = 30});
  forest.fit(data);
  const auto probs = forest.predict_proba({3.0, -1.0});
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_EQ(probs[0], probs[1]);
  EXPECT_EQ(forest.predict({3.0, -1.0}), 0);
}

TEST(RandomForest, ThrowsOnPredictBeforeFit) {
  RandomForest forest;
  EXPECT_THROW((void)forest.predict({1.0, 2.0}), std::logic_error);
}

TEST(RandomForest, SerializeRoundTripPredictsIdentically) {
  const Dataset data = blobs(60, 2.0, 19);
  RandomForest forest(RandomForestParams{.n_trees = 12, .seed = 20});
  forest.fit(data);
  const RandomForest copy = RandomForest::deserialize(forest.serialize());
  EXPECT_EQ(copy.tree_count(), forest.tree_count());
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    const FeatureRow row{rng.uniform(-4, 6), rng.uniform(-3, 3)};
    const auto pa = forest.predict_proba(row);
    const auto pb = copy.predict_proba(row);
    for (std::size_t c = 0; c < pa.size(); ++c) EXPECT_DOUBLE_EQ(pa[c], pb[c]);
  }
}

TEST(RandomForest, DeserializeRejectsGarbage) {
  EXPECT_THROW(RandomForest::deserialize("woods 3 2"), std::invalid_argument);
}

TEST(RandomForest, DeserializeRejectsTreeClassCountMismatch) {
  const Dataset data = blobs(40, 3.0, 25);
  RandomForest forest(RandomForestParams{.n_trees = 3, .seed = 26});
  forest.fit(data);
  std::string text = forest.serialize();
  // Bump the header's class count from 2 to 3: every tree now disagrees
  // with the header and the payload must be rejected, not trusted.
  const std::size_t header_end = text.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  ASSERT_EQ(text.substr(0, header_end), "forest 3 2");
  text.replace(0, header_end, "forest 3 3");
  try {
    RandomForest::deserialize(text);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("classes"), std::string::npos);
  }
}

TEST(RandomForest, DeserializeRejectsTreeFeatureWidthMismatch) {
  // Splice a 3-feature tree into a 2-feature forest payload: header and
  // classes agree, but the trees disagree on feature width.
  const Dataset narrow = blobs(40, 3.0, 27);
  Dataset wide({"x", "y", "z"}, {"a", "b"});
  Rng rng(28);
  for (std::size_t i = 0; i < 40; ++i) {
    const auto c = static_cast<Label>(i % 2);
    wide.add({rng.normal(3.0 * c, 1.0), rng.normal(0.0, 1.0),
              rng.normal(0.0, 1.0)},
             c);
  }
  RandomForest forest_a(RandomForestParams{.n_trees = 1, .seed = 29});
  forest_a.fit(narrow);
  RandomForest forest_b(RandomForestParams{.n_trees = 1, .seed = 30});
  forest_b.fit(wide);
  // Serialized form is two header lines followed by the tree payloads.
  const auto split_headers = [](const std::string& text) {
    const std::size_t second_line_end = text.find('\n', text.find('\n') + 1);
    return std::pair{text.substr(0, second_line_end + 1),
                     text.substr(second_line_end + 1)};
  };
  const auto [headers_a, tree_a] = split_headers(forest_a.serialize());
  const auto [headers_b, tree_b] = split_headers(forest_b.serialize());
  const std::string params_line = headers_a.substr(headers_a.find('\n') + 1);
  const std::string spliced =
      "forest 2 2\n" + params_line + tree_a + tree_b;
  try {
    RandomForest::deserialize(spliced);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("feature width"), std::string::npos);
  }
}

TEST(RandomForest, FitIdenticalAcrossExplicitPools) {
  const Dataset data = blobs(80, 2.0, 31, 3);
  const RandomForestParams params{.n_trees = 30, .seed = 32};
  std::string reference;
  double reference_oob = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    core::ThreadPool pool(threads);
    RandomForest forest(params);
    forest.fit(data, pool);
    if (threads == 1) {
      reference = forest.serialize();
      reference_oob = forest.oob_score();
    } else {
      EXPECT_EQ(forest.serialize(), reference)
          << "diverged at " << threads << " threads";
      EXPECT_EQ(forest.oob_score(), reference_oob);
    }
  }
}

/// Property sweep: more trees should not hurt OOB accuracy much; ensemble
/// is at least as good as a small one on noisy data.
class ForestSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeSweep, OobReasonableAcrossSizes) {
  const Dataset data = blobs(120, 2.5, 23);
  RandomForest forest(RandomForestParams{.n_trees = GetParam(), .seed = 24});
  forest.fit(data);
  EXPECT_GT(forest.oob_score(), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeSweep,
                         ::testing::Values(5, 10, 25, 50, 100));

using testing_support::rejection_message;

TEST(RandomForest, DeserializeRejectsTrailingTokens) {
  const Dataset data = blobs(40, 3.0, 31);
  RandomForest forest(RandomForestParams{.n_trees = 2, .seed = 32});
  forest.fit(data);
  const std::string text = forest.serialize();
  // Whitespace after the last tree is not a field.
  EXPECT_EQ(RandomForest::deserialize(text + "\n\n").serialize(), text);
  for (const char* extra : {"leaf 1 0\n", "0", "tree 1 2 2\nleaf 1 0\n"}) {
    SCOPED_TRACE(extra);
    EXPECT_NE(rejection_message([&] {
                (void)RandomForest::deserialize(text + extra);
              }).find("trailing"),
              std::string::npos);
  }
}

TEST(RandomForest, DeserializeRejectsOversizedCounts) {
  const std::string params = "100 10 2 1 0 1 42\n";
  for (const std::string& header :
       {std::string("forest 18446744073709551615 2\n"),
        std::string("forest 4000000 2\n"),
        std::string("forest 0 18446744073709551615\n")}) {
    SCOPED_TRACE(header);
    EXPECT_NE(rejection_message([&] {
                (void)RandomForest::deserialize(header + params);
              }).find("bytes left"),
              std::string::npos);
  }
  EXPECT_NE(rejection_message([&] {
              (void)RandomForest::deserialize("forest -1 2\n" + params);
            }).find("expected an integer"),
            std::string::npos);
}

// A zero-tree forest loads as an unfitted one and writes its header back.
TEST(RandomForest, DeserializeKeepsAZeroTreeHeader) {
  const std::string text = "forest 0 3\n100 10 2 1 0 1 42\n";
  const RandomForest forest = RandomForest::deserialize(text);
  EXPECT_EQ(forest.tree_count(), 0u);
  EXPECT_EQ(forest.num_classes(), 3u);
  EXPECT_EQ(forest.serialize(), text);
}

// A tree with no nodes has no root: CompiledForest and the reference walk
// would both index node 0 of an empty vector.
TEST(RandomForest, DeserializeRejectsEmptyTree) {
  EXPECT_NE(rejection_message([] {
              (void)RandomForest::deserialize(
                  "forest 1 2\n100 10 2 1 0 1 42\ntree 0 2 2\n");
            }).find("no nodes"),
            std::string::npos);
}

}  // namespace
}  // namespace cgctx::ml

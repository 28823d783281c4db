#include "ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../rejection_message.hpp"
#include "ml/random_forest.hpp"

namespace cgctx::ml {
namespace {

/// Two well-separated 2-D Gaussian-ish blobs.
Dataset blobs(std::size_t per_class, double separation, std::uint64_t seed) {
  Dataset data({"x", "y"}, {"left", "right"});
  Rng rng(seed);
  for (std::size_t i = 0; i < per_class; ++i) {
    data.add({rng.normal(-separation, 1.0), rng.normal(0.0, 1.0)}, 0);
    data.add({rng.normal(separation, 1.0), rng.normal(0.0, 1.0)}, 1);
  }
  return data;
}

/// Loads tree text (two classes) as the one tree of a forest: the forest
/// parser is the only reader of tree text.
DecisionTree load_tree(const std::string& text) {
  return RandomForest::deserialize("forest 1 2\n1 0 2 1 0 0 1\n" + text)
      .trees()
      .front();
}

std::string text_of(const DecisionTree& tree) {
  std::ostringstream os;
  tree.serialize_to(os);
  return os.str();
}

/// XOR pattern: not linearly separable, needs depth >= 2.
Dataset xor_data() {
  Dataset data({"x", "y"}, {"zero", "one"});
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    const double y = rng.uniform(0.0, 1.0);
    data.add({x, y}, (x > 0.5) != (y > 0.5) ? 1 : 0);
  }
  return data;
}

TEST(DecisionTree, FitsSeparableData) {
  const Dataset data = blobs(100, 4.0, 1);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_GT(tree.score(data), 0.99);
}

TEST(DecisionTree, SolvesXor) {
  const Dataset data = xor_data();
  DecisionTree tree;
  tree.fit(data);
  EXPECT_DOUBLE_EQ(tree.score(data), 1.0);
  EXPECT_GE(tree.depth(), 2u);
}

TEST(DecisionTree, MaxDepthOneIsAStump) {
  const Dataset data = blobs(50, 3.0, 2);
  DecisionTree tree(DecisionTreeParams{.max_depth = 1});
  tree.fit(data);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(DecisionTree, DepthZeroMeansUnlimited) {
  const Dataset data = xor_data();
  DecisionTree tree(DecisionTreeParams{.max_depth = 0});
  tree.fit(data);
  EXPECT_DOUBLE_EQ(tree.score(data), 1.0);
}

TEST(DecisionTree, MinSamplesSplitForcesLeaf) {
  const Dataset data = blobs(20, 3.0, 4);
  DecisionTree tree(DecisionTreeParams{.min_samples_split = 1000});
  tree.fit(data);
  EXPECT_EQ(tree.node_count(), 1u);  // a single leaf
  // A single leaf predicts the majority class with its prior.
  const auto probs = tree.predict_proba({0.0, 0.0});
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
}

TEST(DecisionTree, PureNodeBecomesLeafImmediately) {
  Dataset data({"x"}, {"only"});
  for (int i = 0; i < 10; ++i) data.add({static_cast<double>(i)}, 0);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict({3.0}), 0);
}

TEST(DecisionTree, ConstantFeaturesYieldLeaf) {
  Dataset data({"x"}, {"a", "b"});
  for (int i = 0; i < 6; ++i) data.add({1.0}, i % 2);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(DecisionTree, PredictProbaSumsToOne) {
  const Dataset data = blobs(50, 2.0, 7);
  DecisionTree tree(DecisionTreeParams{.max_depth = 3});
  tree.fit(data);
  const auto probs = tree.predict_proba({0.1, -0.2});
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
}

TEST(DecisionTree, PredictTieBreaksToLowestLabel) {
  // Unsplittable data leaves one [0.5, 0.5] leaf; the exact tie must
  // resolve to the lowest label (first maximum).
  Dataset data({"x"}, {"a", "b"});
  for (int i = 0; i < 6; ++i) data.add({1.0}, i % 2);
  DecisionTree tree;
  tree.fit(data);
  const auto probs = tree.predict_proba({1.0});
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_EQ(probs[0], probs[1]);
  EXPECT_EQ(tree.predict({1.0}), 0);
}

TEST(DecisionTree, LeafDistributionIsTheNoCopyPredictProba) {
  const Dataset data = blobs(50, 2.0, 7);
  DecisionTree tree(DecisionTreeParams{.max_depth = 4});
  tree.fit(data);
  const FeatureRow row{0.3, -0.4};
  const ClassProbabilities& ref = tree.leaf_distribution(row);
  EXPECT_EQ(ref, tree.predict_proba(row));
  // Same call, same leaf: the reference is stable storage, not a copy.
  EXPECT_EQ(&ref, &tree.leaf_distribution(row));
}

TEST(DecisionTree, ThrowsOnEmptyFit) {
  DecisionTree tree;
  EXPECT_THROW(tree.fit(Dataset{}), std::invalid_argument);
}

TEST(DecisionTree, ThrowsOnPredictBeforeFit) {
  DecisionTree tree;
  EXPECT_THROW((void)tree.predict({1.0}), std::logic_error);
}

TEST(DecisionTree, ThrowsOnWidthMismatch) {
  const Dataset data = blobs(10, 3.0, 9);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_THROW((void)tree.predict({1.0}), std::invalid_argument);
}

TEST(DecisionTree, FitOnSubsetUsesOnlyThoseRows) {
  Dataset data({"x"}, {"a", "b"});
  // Global pattern says class depends on x, but the subset is pure class 0.
  for (int i = 0; i < 10; ++i) data.add({static_cast<double>(i)}, i < 5 ? 0 : 1);
  DecisionTree tree;
  tree.fit_on(data, {0, 1, 2, 3, 4});
  EXPECT_EQ(tree.predict({9.0}), 0);
}

TEST(DecisionTree, FeatureSubsamplingStillLearns) {
  const Dataset data = blobs(100, 4.0, 11);
  DecisionTree tree(DecisionTreeParams{.max_features = 1, .seed = 5});
  tree.fit(data);
  EXPECT_GT(tree.score(data), 0.9);
}

TEST(DecisionTree, SerializeRoundTripPredictsIdentically) {
  const Dataset data = blobs(60, 2.5, 13);
  DecisionTree tree(DecisionTreeParams{.max_depth = 6});
  tree.fit(data);
  const DecisionTree copy = load_tree(text_of(tree));
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const FeatureRow row{rng.uniform(-6, 6), rng.uniform(-3, 3)};
    EXPECT_EQ(tree.predict(row), copy.predict(row));
  }
}

TEST(DecisionTree, DeserializeRejectsCorruptHeader) {
  EXPECT_THROW(load_tree("not_a_tree 1 2 3"),
               std::invalid_argument);
}

TEST(DecisionTree, DeserializeRejectsBadChildIndex) {
  // A split node pointing at node 0 (the root) is invalid.
  EXPECT_THROW(load_tree("tree 1 2 2\nsplit 0 0.5 0 0\n"),
               std::invalid_argument);
}

// Hostile model files. Each of these passes the child range check alone;
// compiled, a cycle would hang CompiledForest's BFS and depth(), shared
// children would grow the compile exponentially, and a wide feature index
// would read past the row in both walks. All must fail at deserialize
// time.

TEST(DecisionTree, DeserializeRejectsCycle) {
  // Node 1 names itself (and node 0's sibling) as children.
  EXPECT_THROW(load_tree("tree 3 2 2\n"
                                         "split 0 0.5 1 2\n"
                                         "split 1 0.5 1 2\n"
                                         "leaf 0.5 0.5\n"),
               std::invalid_argument);
  // A back edge from node 2 to node 1.
  EXPECT_THROW(load_tree("tree 5 2 2\n"
                                         "split 0 0.5 1 4\n"
                                         "split 0 0.5 2 3\n"
                                         "split 1 0.5 1 3\n"
                                         "leaf 1 0\n"
                                         "leaf 0 1\n"),
               std::invalid_argument);
}

TEST(DecisionTree, DeserializeRejectsSharedChildren) {
  // Both of the root's children are node 1.
  EXPECT_THROW(load_tree("tree 3 2 2\n"
                                         "split 0 0.5 1 1\n"
                                         "leaf 1 0\n"
                                         "leaf 0 1\n"),
               std::invalid_argument);
  // Node 2 hangs under both the root and node 1.
  EXPECT_THROW(load_tree("tree 4 2 2\n"
                                         "split 0 0.5 1 2\n"
                                         "split 1 0.5 2 3\n"
                                         "leaf 1 0\n"
                                         "leaf 0 1\n"),
               std::invalid_argument);
}

TEST(DecisionTree, DeserializeRejectsUnreachableNode) {
  EXPECT_THROW(load_tree("tree 4 2 2\n"
                                         "split 0 0.5 1 2\n"
                                         "leaf 1 0\n"
                                         "leaf 0 1\n"
                                         "leaf 0.5 0.5\n"),
               std::invalid_argument);
}

TEST(DecisionTree, DeserializeRejectsFeatureIndexOutsideTheRow) {
  for (const char* feature : {"2", "-1", "7"}) {
    SCOPED_TRACE(feature);
    EXPECT_THROW(load_tree(std::string("tree 3 2 2\nsplit ") +
                                           feature +
                                           " 0.5 1 2\nleaf 1 0\nleaf 0 1\n"),
                 std::invalid_argument);
  }
  // The same tree with an in-range feature loads and predicts.
  const DecisionTree ok = load_tree(
      "tree 3 2 2\nsplit 1 0.5 1 2\nleaf 1 0\nleaf 0 1\n");
  EXPECT_EQ(ok.predict({9.0, 0.0}), 0);
  EXPECT_EQ(ok.predict({-9.0, 1.0}), 1);
}

/// Property: deeper trees never fit the training set worse.
class TreeDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeDepthSweep, TrainAccuracyMonotoneInDepth) {
  const Dataset data = blobs(80, 1.0, 19);  // overlapping blobs
  DecisionTree shallow(DecisionTreeParams{.max_depth = GetParam()});
  DecisionTree deeper(DecisionTreeParams{.max_depth = GetParam() + 2});
  shallow.fit(data);
  deeper.fit(data);
  EXPECT_GE(deeper.score(data) + 1e-12, shallow.score(data));
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

using testing_support::rejection_message;

TEST(DecisionTree, DeserializeRejectsNonFiniteThreshold) {
  for (const char* threshold : {"nan", "-nan", "inf", "-inf", "1e999"}) {
    SCOPED_TRACE(threshold);
    const std::string text = std::string("tree 3 2 2\nsplit 0 ") + threshold +
                             " 1 2\nleaf 1 0\nleaf 0 1\n";
    EXPECT_NE(rejection_message([&] { (void)load_tree(text); })
                  .find("finite number"),
              std::string::npos);
  }
}

TEST(DecisionTree, DeserializeRejectsNonFiniteLeaf) {
  for (const char* p : {"nan", "inf", "-inf", "1e999"}) {
    SCOPED_TRACE(p);
    const std::string text = std::string("tree 1 2 2\nleaf 0.5 ") + p + "\n";
    EXPECT_NE(rejection_message([&] { (void)load_tree(text); })
                  .find("finite number"),
              std::string::npos);
  }
}

// Header counts size the node vector and every leaf's distribution; a
// count larger than the text left is rejected before anything is sized
// by it (17 bytes used to allocate and zero ~190 MB).
TEST(DecisionTree, DeserializeRejectsOversizedCounts) {
  for (const char* text :
       {"tree 18446744073709551615 3 4\n", "tree 4000000 3 4\n",
        "tree 1 18446744073709551615 2\nleaf 1\n", "tree 1 4000000 2\nleaf 1\n"}) {
    SCOPED_TRACE(text);
    EXPECT_NE(rejection_message([&] { (void)load_tree(text); })
                  .find("bytes left"),
              std::string::npos);
  }
  // A signed or out-of-range count is not a count at all.
  for (const char* text : {"tree -1 3 4\n", "tree 99999999999999999999 3 4\n"}) {
    SCOPED_TRACE(text);
    EXPECT_NE(rejection_message([&] { (void)load_tree(text); })
                  .find("expected an integer"),
              std::string::npos);
  }
}

TEST(DecisionTree, DeserializeRejectsTrailingTokens) {
  const std::string text = "tree 1 2 2\nleaf 1 0\n";
  EXPECT_EQ(text_of(load_tree(text + "\n \n")), text);
  EXPECT_NE(rejection_message([&] {
              (void)load_tree(text + "leaf 0 1\n");
            }).find("trailing"),
            std::string::npos);
}

}  // namespace
}  // namespace cgctx::ml

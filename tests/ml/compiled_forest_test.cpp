#include "ml/compiled_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "ml/random_forest.hpp"

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

/// Bit-for-bit double equality (the parity guarantee is bitwise, not
/// epsilon-based).
void expect_bitwise_equal(const ClassProbabilities& a,
                          const ClassProbabilities& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[c]),
              std::bit_cast<std::uint64_t>(b[c]))
        << "class " << c << ": " << a[c] << " vs " << b[c];
}

TEST(CompiledForest, LayoutMatchesSource) {
  const Dataset data = blobs(80, 2.0, 1, 3);
  RandomForest forest(RandomForestParams{.n_trees = 25, .seed = 2});
  forest.fit(data);
  const CompiledForest compiled(forest);
  EXPECT_TRUE(compiled.compiled());
  EXPECT_EQ(compiled.tree_count(), forest.tree_count());
  EXPECT_EQ(compiled.num_classes(), forest.num_classes());
  EXPECT_EQ(compiled.num_features(), 2u);
  std::size_t nodes = 0;
  for (const DecisionTree& tree : forest.trees()) nodes += tree.node_count();
  EXPECT_EQ(compiled.node_count(), nodes);
}

TEST(CompiledForest, BitwiseParityWithReferenceForest) {
  const Dataset data = blobs(120, 1.5, 3, 4);  // overlap -> mixed leaves
  RandomForest forest(RandomForestParams{.n_trees = 60, .seed = 4});
  forest.fit(data);
  const CompiledForest compiled(forest);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const FeatureRow row{rng.uniform(-4.0, 9.0), rng.uniform(-4.0, 4.0)};
    expect_bitwise_equal(compiled.predict_proba(row),
                         forest.predict_proba(row));
    EXPECT_EQ(compiled.predict(row), forest.predict(row));
  }
}

TEST(CompiledForest, PredictProbaIntoMatchesAllocatingForm) {
  const Dataset data = blobs(60, 2.0, 7, 3);
  RandomForest forest(RandomForestParams{.n_trees = 20, .seed = 8});
  forest.fit(data);
  const CompiledForest compiled(forest);
  std::vector<double> out(compiled.num_classes());
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const FeatureRow row{rng.uniform(-3.0, 7.0), rng.uniform(-3.0, 3.0)};
    compiled.predict_proba_into(row, out);
    expect_bitwise_equal(ClassProbabilities(out.begin(), out.end()),
                         forest.predict_proba(row));
  }
}

TEST(CompiledForest, PredictWithConfidenceMatchesReference) {
  const Dataset data = blobs(100, 2.5, 11);
  RandomForest forest(RandomForestParams{.n_trees = 30, .seed = 12});
  forest.fit(data);
  const CompiledForest compiled(forest);
  std::vector<double> scratch(compiled.num_classes());
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const FeatureRow row{rng.uniform(-3.0, 6.0), rng.uniform(-3.0, 3.0)};
    const auto reference = forest.predict_with_confidence(row);
    const auto spanned = compiled.predict_with_confidence(row, scratch);
    const auto convenience = compiled.predict_with_confidence(row);
    EXPECT_EQ(spanned.label, reference.label);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(spanned.confidence),
              std::bit_cast<std::uint64_t>(reference.confidence));
    EXPECT_EQ(convenience.label, reference.label);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(convenience.confidence),
              std::bit_cast<std::uint64_t>(reference.confidence));
  }
}

TEST(CompiledForest, BatchMatchesSingleRowPredictions) {
  const Dataset data = blobs(80, 1.0, 15, 3);
  RandomForest forest(RandomForestParams{.n_trees = 15, .seed = 16});
  forest.fit(data);
  const CompiledForest compiled(forest);
  Rng rng(17);
  std::vector<FeatureRow> rows;
  for (int i = 0; i < 64; ++i)
    rows.push_back({rng.uniform(-3.0, 6.0), rng.uniform(-3.0, 3.0)});
  std::vector<Label> batch(rows.size());
  compiled.predict_rows(rows, batch);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch[i], forest.predict(rows[i]));
    EXPECT_EQ(batch[i], compiled.predict(rows[i]));
  }
}

TEST(CompiledForest, RowsMatchSingleRowBitwise) {
  // The batch kernel walks tree-major from kWalkGroup rows up and falls
  // back to the single-row walk below; either way every probability must
  // equal predict_proba_into's bit for bit. Batch sizes straddle the
  // walk group: empty, one row, one short of a group, exactly one, one
  // over, two plus a lane, and many groups plus a tail.
  const Dataset data = blobs(60, 2.0, 3, 3);
  RandomForest mixed(
      RandomForestParams{.n_trees = 30, .max_depth = 0, .seed = 26});
  mixed.fit(data);
  Dataset flat({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 8; ++i) flat.add({1.0, 2.0}, i % 2);
  RandomForest leaves(
      RandomForestParams{.n_trees = 5, .bootstrap = false, .seed = 27});
  leaves.fit(flat);
  // Widths 4 and 9 (the slot forests') take compile-time-width kernels.
  std::vector<RandomForest> wide;
  for (const std::size_t width : {4u, 9u}) {
    std::vector<std::string> names;
    for (std::size_t f = 0; f < width; ++f)
      names.push_back("f" + std::to_string(f));
    Dataset rows(names, {"a", "b", "c"});
    Rng rng(28 + width);
    for (int i = 0; i < 150; ++i) {
      FeatureRow row;
      for (std::size_t f = 0; f < width; ++f)
        row.push_back(rng.normal(0.0, 1.0));
      rows.add(row, static_cast<Label>(row[0] + row[width - 1] > 0.0) +
                        static_cast<Label>(row[1] > 1.0));
    }
    wide.emplace_back(RandomForestParams{.n_trees = 20, .max_depth = 6,
                                         .seed = 29});
    wide.back().fit(rows);
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const RandomForest* forest : {&mixed, &leaves, &wide[0], &wide[1]}) {
    const CompiledForest compiled(*forest);
    const std::size_t width = compiled.num_features();
    const std::size_t classes = compiled.num_classes();
    for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 33u, 257u}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", width " +
                   std::to_string(width) + ", max_depth " +
                   std::to_string(compiled.max_depth()));
      Rng rng(100 + n);
      std::vector<double> rows(n * width);
      for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = i % 7 == 3 ? nan : rng.uniform(-4.0, 8.0);
      std::vector<double> batch(n * classes, -1.0);
      compiled.predict_proba_rows_into(rows, batch);
      std::vector<double> single(classes);
      for (std::size_t r = 0; r < n; ++r) {
        compiled.predict_proba_into(
            std::span<const double>(rows).subspan(r * width, width), single);
        for (std::size_t c = 0; c < classes; ++c)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[r * classes + c]),
                    std::bit_cast<std::uint64_t>(single[c]))
              << "row " << r << " class " << c;
      }
    }
  }
  ASSERT_GT(CompiledForest(mixed).max_depth(), 0u);

  const CompiledForest compiled(mixed);
  std::vector<double> rows(17 * compiled.num_features());
  std::vector<double> out(17 * compiled.num_classes());
  std::vector<double> ragged(out.size() - 1);
  std::vector<double> short_rows(rows.size() - 1);
  std::vector<double> too_few(16 * compiled.num_classes());
  EXPECT_THROW(compiled.predict_proba_rows_into(rows, ragged),
               std::invalid_argument);
  EXPECT_THROW(compiled.predict_proba_rows_into(short_rows, out),
               std::invalid_argument);
  EXPECT_THROW(compiled.predict_proba_rows_into(rows, too_few),
               std::invalid_argument);
  EXPECT_THROW(CompiledForest{}.predict_proba_rows_into({}, {}),
               std::logic_error);
}

/// A forest of `trees` stumps on feature 0 (split at 0.5), two features
/// and two classes: tree t's leaves both hold vote(t), a "p0 p1" pair.
template <typename Vote>
RandomForest stump_forest(std::size_t trees, const Vote& vote) {
  std::string text = "forest " + std::to_string(trees) + " 2\n" +
                     std::to_string(trees) + " 1 2 1 0 0 0\n";
  for (std::size_t t = 0; t < trees; ++t) {
    const std::string leaf = "leaf " + std::string(vote(t)) + "\n";
    text += "tree 3 2 2\nsplit 0 0.5 1 2\n" + leaf + leaf;
  }
  return RandomForest::deserialize(text);
}

/// Rows for the label-walk parity checks: uniform values, with every
/// seventh a NaN, every eleventh +inf and every thirteenth -inf, and every
/// fifth row set to split thresholds of the forest's trees.
std::vector<double> label_rows(const RandomForest& forest, std::size_t n,
                               std::uint64_t seed) {
  std::vector<double> thresholds;
  for (const DecisionTree& tree : forest.trees())
    for (const DecisionTree::Node& node : tree.nodes())
      if (!node.is_leaf()) thresholds.push_back(node.threshold);
  const std::size_t width = forest.trees().front().num_features();
  Rng rng(seed);
  std::vector<double> rows(n * width);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i % 7 == 3)
      rows[i] = std::numeric_limits<double>::quiet_NaN();
    else if (i % 11 == 5)
      rows[i] = std::numeric_limits<double>::infinity();
    else if (i % 13 == 6)
      rows[i] = -std::numeric_limits<double>::infinity();
    else if ((i / width) % 5 == 0 && !thresholds.empty())
      rows[i] = thresholds[rng.next_below(thresholds.size())];
    else
      rows[i] = rng.uniform(-6.0, 30.0);
  }
  return rows;
}

/// Tree walks a label walk took, and the walks a full walk would take.
struct WalkCount {
  std::size_t walked = 0;
  std::size_t full = 0;
};

/// Every label form equals top(predict_proba_into) on every row, for
/// batches straddling the walk group and the row chunk. Counts
/// predict_rows_into's tree walks over all batches into `count`.
void expect_label_parity(const RandomForest& forest, WalkCount& count) {
  const CompiledForest compiled(forest);
  const std::size_t width = compiled.num_features();
  const std::size_t classes = compiled.num_classes();
  auto& [walked, full] = count;
  for (const std::size_t n : {1u, 15u, 16u, 17u, 256u, 257u, 1000u}) {
    SCOPED_TRACE("n = " + std::to_string(n) + ", classes " +
                 std::to_string(classes));
    const std::vector<double> rows = label_rows(forest, n, 40 + n);
    std::vector<double> scratch(n * classes);
    std::vector<Label> labels(n, -1);
    walked += compiled.predict_rows_into(rows, scratch, labels);
    full += n * compiled.tree_count();
    std::vector<FeatureRow> unpacked;
    std::vector<double> proba(classes);
    std::vector<double> single(classes);
    for (std::size_t r = 0; r < n; ++r) {
      const std::span<const double> row =
          std::span<const double>(rows).subspan(r * width, width);
      compiled.predict_proba_into(row, proba);
      const Label expected = CompiledForest::top(proba).label;
      ASSERT_EQ(labels[r], expected) << "batch row " << r;
      ASSERT_EQ(compiled.predict(row, single), expected) << "row " << r;
      unpacked.emplace_back(row.begin(), row.end());
      ASSERT_EQ(compiled.predict(unpacked.back()), expected) << "row " << r;
    }
    std::vector<Label> packed_labels(n, -1);
    compiled.predict_rows(unpacked, packed_labels);
    EXPECT_EQ(packed_labels, labels);
  }
}

TEST(CompiledForest, LabelWalkMatchesTopOfProbabilities) {
  // Overlapping blobs for impure leaves; two, three and thirteen classes.
  for (const std::size_t classes : {2u, 3u, 13u}) {
    const Dataset data = blobs(40, 2.0, 50 + classes, classes);
    RandomForest forest(RandomForestParams{.n_trees = 40, .seed = 51});
    forest.fit(data);
    WalkCount count;
    expect_label_parity(forest, count);
    // The early exit must actually fire on a trained forest.
    EXPECT_LT(count.walked, count.full) << classes << " classes";
  }
}

TEST(CompiledForest, LabelWalkNeverRetiresAnUndecidedVote) {
  // Trees 0-49 vote class 1, trees 50-99 class 0: class 1 leads by 50
  // after tree 49 with exactly 50 trees' slack left, and by 49 - j after
  // tree 50 + j with exactly that much left, so no lead ever clears its
  // margin. The full vote ties and top() picks class 0.
  const RandomForest forest = stump_forest(
      100, [](std::size_t t) { return t < 50 ? "0 1" : "1 0"; });
  WalkCount count;
  expect_label_parity(forest, count);
  EXPECT_EQ(count.walked, count.full);
  EXPECT_EQ(CompiledForest(forest).predict({0.0, 0.0}), 0);
}

TEST(CompiledForest, LabelWalkNeverRetiresOutsideTheUnitInterval) {
  // Leaf values outside [0, 1] void the rounding argument, so such a
  // forest walks every tree, although class 0 leads by 2.5 per tree.
  const RandomForest forest =
      stump_forest(40, [](std::size_t) { return "2.0 -0.5"; });
  WalkCount count;
  expect_label_parity(forest, count);
  EXPECT_EQ(count.walked, count.full);
  EXPECT_EQ(CompiledForest(forest).predict({1.0, 0.0}), 0);
}

TEST(CompiledForest, PredictTieBreaksToLowestLabel) {
  // Identical feature rows with different labels cannot be split: every
  // tree is a single [0.5, 0.5] leaf (bootstrap off, so each tree sees
  // the exact 50/50 mix), so predict faces an exact tie and must resolve
  // to the lowest label — pinned here for both engines.
  Dataset data({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 8; ++i) data.add({1.0, 2.0}, i % 2);
  RandomForest forest(
      RandomForestParams{.n_trees = 9, .bootstrap = false, .seed = 18});
  forest.fit(data);
  const CompiledForest compiled(forest);
  const FeatureRow row{1.0, 2.0};
  const ClassProbabilities probs = compiled.predict_proba(row);
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(probs[0]),
            std::bit_cast<std::uint64_t>(probs[1]));
  EXPECT_EQ(forest.predict(row), 0);
  EXPECT_EQ(compiled.predict(row), 0);
}

TEST(CompiledForest, ThreeWayTieStillPicksLowestLabel) {
  Dataset data({"x", "y"}, {"a", "b", "c"});
  for (int i = 0; i < 9; ++i) data.add({0.5, -0.5}, i % 3);
  RandomForest forest(
      RandomForestParams{.n_trees = 4, .bootstrap = false, .seed = 19});
  forest.fit(data);
  const CompiledForest compiled(forest);
  const FeatureRow row{0.5, -0.5};
  EXPECT_EQ(forest.predict(row), 0);
  EXPECT_EQ(compiled.predict(row), 0);
}

TEST(CompiledForest, MaxDepthIsDeepestReferenceLeaf) {
  // Too small a max_depth() breaks parity; too large one only costs
  // idle passes, so it is pinned here exactly. Unlimited depth on
  // overlapping blobs: each bootstrap sample grows to its own depth.
  const Dataset data = blobs(60, 2.0, 3, 3);
  RandomForest forest(
      RandomForestParams{.n_trees = 30, .max_depth = 0, .seed = 26});
  forest.fit(data);
  // DecisionTree::depth() recurses over the source nodes' child links.
  std::size_t shallowest = SIZE_MAX;
  std::size_t deepest = 0;
  for (const DecisionTree& tree : forest.trees()) {
    shallowest = std::min(shallowest, tree.depth());
    deepest = std::max(deepest, tree.depth());
  }
  ASSERT_LT(shallowest, deepest) << "want a forest of mixed tree depths";
  EXPECT_EQ(CompiledForest(forest).max_depth(), deepest);

  // Unsplittable rows: every tree is a single leaf, so no descent pass.
  Dataset flat({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 8; ++i) flat.add({1.0, 2.0}, i % 2);
  RandomForest stumps(
      RandomForestParams{.n_trees = 5, .bootstrap = false, .seed = 27});
  stumps.fit(flat);
  const CompiledForest compiled_stumps(stumps);
  EXPECT_EQ(compiled_stumps.max_depth(), 0u);
  EXPECT_EQ(compiled_stumps.node_count(), 5u);
  expect_bitwise_equal(compiled_stumps.predict_proba({1.0, 2.0}),
                       stumps.predict_proba({1.0, 2.0}));
}

TEST(CompiledForest, UncompiledThrowsLogicError) {
  const CompiledForest empty;
  EXPECT_FALSE(empty.compiled());
  EXPECT_THROW((void)empty.predict({1.0, 2.0}), std::logic_error);
  EXPECT_THROW((void)empty.predict_proba({1.0, 2.0}), std::logic_error);
}

TEST(CompiledForest, CompileBeforeFitThrows) {
  const RandomForest unfitted;
  EXPECT_THROW(CompiledForest{unfitted}, std::logic_error);
}

TEST(CompiledForest, ValidatesSpanSizes) {
  const Dataset data = blobs(30, 3.0, 21);
  RandomForest forest(RandomForestParams{.n_trees = 5, .seed = 22});
  forest.fit(data);
  const CompiledForest compiled(forest);
  std::vector<double> out(compiled.num_classes());
  std::vector<double> narrow(compiled.num_classes() - 1);
  const FeatureRow row{0.0, 0.0};
  const FeatureRow wide{0.0, 0.0, 0.0};
  EXPECT_THROW(compiled.predict_proba_into(wide, out), std::invalid_argument);
  EXPECT_THROW(compiled.predict_proba_into(row, narrow),
               std::invalid_argument);
  std::vector<Label> short_out(1);
  const std::vector<FeatureRow> rows{row, row};
  EXPECT_THROW(compiled.predict_rows(rows, short_out), std::invalid_argument);
  const std::vector<double> packed(4, 0.0);
  std::vector<Label> labels(2);
  std::vector<double> short_scratch(2 * compiled.num_classes() - 1);
  EXPECT_THROW(compiled.predict_rows_into(packed, short_scratch, labels),
               std::invalid_argument);
  std::vector<double> scratch(2 * compiled.num_classes());
  EXPECT_THROW(compiled.predict_rows_into(std::span(packed).first(3), scratch,
                                          labels),
               std::invalid_argument);
  EXPECT_THROW((void)compiled.predict(wide, out), std::invalid_argument);
}

TEST(CompiledForest, SurvivesForestSerializationRoundTrip) {
  const Dataset data = blobs(70, 2.0, 23, 3);
  RandomForest forest(RandomForestParams{.n_trees = 12, .seed = 24});
  forest.fit(data);
  const RandomForest restored = RandomForest::deserialize(forest.serialize());
  const CompiledForest original(forest);
  const CompiledForest recompiled(restored);
  Rng rng(25);
  for (int i = 0; i < 100; ++i) {
    const FeatureRow row{rng.uniform(-3.0, 7.0), rng.uniform(-3.0, 3.0)};
    expect_bitwise_equal(recompiled.predict_proba(row),
                         original.predict_proba(row));
  }
}

/// `rows` x `width` uniform features, labeled by which fifth of [0, 5)
/// their first two features' sum falls in, cycled over `classes`.
Dataset wide_data(std::size_t rows, std::size_t width, std::size_t classes,
                  std::uint64_t seed) {
  std::vector<std::string> features;
  for (std::size_t f = 0; f < width; ++f)
    features.push_back("f" + std::to_string(f));
  std::vector<std::string> names;
  for (std::size_t c = 0; c < classes; ++c)
    names.push_back("c" + std::to_string(c));
  Dataset data(features, names);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    FeatureRow row(width);
    for (double& x : row) x = rng.uniform(0.0, 2.5);
    const auto band = static_cast<std::size_t>(row[0] + row[1]);
    data.add(row, static_cast<Label>((band + i % 2) % classes));
  }
  return data;
}

/// Forest shapes the fitted-forest layout and the parser must agree on.
struct Shape {
  const char* name;
  Dataset data;
  RandomForestParams params;
};

std::vector<Shape> fit_shapes() {
  Dataset flat({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 8; ++i) flat.add({1.0, 2.0}, i % 2);
  return {
      {"root leaf", flat,
       {.n_trees = 4, .bootstrap = false, .seed = 31}},
      {"unlimited depth", blobs(60, 1.5, 32, 3),
       {.n_trees = 15, .max_depth = 0, .seed = 33}},
      {"2 classes", blobs(80, 1.0, 34),
       {.n_trees = 20, .max_depth = 6, .seed = 35}},
      {"13 classes", blobs(20, 1.0, 36, 13),
       {.n_trees = 12, .seed = 37}},
      {"max_features subsampling", wide_data(300, 6, 3, 38),
       {.n_trees = 10, .max_features = 2, .seed = 39}},
      {"bootstrap off", wide_data(200, 4, 2, 40),
       {.n_trees = 6, .min_samples_leaf = 3, .bootstrap = false,
        .seed = 41}},
  };
}

// Compiling and rebuilding is the identity on every fitted forest: fit
// writes each tree in left-first preorder, the order the rebuild numbers
// nodes in, so the rebuilt forest serializes byte for byte as the fit one.
TEST(CompiledForest, ReferenceForestSerializesAsTheFitForest) {
  for (const Shape& shape : fit_shapes()) {
    SCOPED_TRACE(shape.name);
    RandomForest forest(shape.params);
    forest.fit(shape.data);
    const RandomForest rebuilt =
        CompiledForest(forest).reference_forest(forest.params());
    EXPECT_EQ(rebuilt.serialize(), forest.serialize());
  }
}

// Parsing a fitted forest's text builds the engine compiling the forest
// builds: same shape, and bitwise the same predictions on every row,
// NaN, infinities and split thresholds included, single and batched.
TEST(CompiledForest, ParseMatchesCompileOfTheFit) {
  for (const Shape& shape : fit_shapes()) {
    SCOPED_TRACE(shape.name);
    RandomForest forest(shape.params);
    forest.fit(shape.data);
    const CompiledForest compiled(forest);
    RandomForestParams header;
    const CompiledForest parsed =
        CompiledForest::parse(forest.serialize(), header);
    EXPECT_EQ(RandomForest(header).serialize(),
              RandomForest(forest.params()).serialize());
    EXPECT_EQ(parsed.tree_count(), compiled.tree_count());
    EXPECT_EQ(parsed.node_count(), compiled.node_count());
    EXPECT_EQ(parsed.max_depth(), compiled.max_depth());
    EXPECT_EQ(parsed.num_classes(), compiled.num_classes());
    EXPECT_EQ(parsed.num_features(), compiled.num_features());
    const std::size_t n = 40;
    const std::vector<double> rows = label_rows(forest, n, 42);
    std::vector<double> want(n * compiled.num_classes());
    std::vector<double> got(want.size());
    compiled.predict_proba_rows_into(rows, want);
    parsed.predict_proba_rows_into(rows, got);
    expect_bitwise_equal(got, want);
    const std::size_t width = compiled.num_features();
    for (std::size_t i = 0; i < n; ++i) {
      const FeatureRow row(rows.begin() + static_cast<std::ptrdiff_t>(i * width),
                           rows.begin() + static_cast<std::ptrdiff_t>((i + 1) * width));
      expect_bitwise_equal(parsed.predict_proba(row), compiled.predict_proba(row));
      EXPECT_EQ(parsed.predict(row), compiled.predict(row));
    }
  }
}

// A loader accepts any tree whose children follow their parent, such as
// one whose right subtree is written before its left. It parses into the
// engine its preorder form parses into, and comes back from both
// reference_forest() and RandomForest::deserialize renumbered in preorder:
// the one canonicalisation a load makes.
TEST(CompiledForest, ReferenceForestRewritesATreeInPreorder) {
  const std::string text =
      "forest 2 2\n2 0 2 1 0 0 7\n"
      "tree 5 2 2\n"
      "split 0 0.5 4 1\n"
      "split 1 -1.25 3 2\n"
      "leaf 0.25 0.75\n"
      "leaf 1 0\n"
      "leaf 0 1\n"
      "tree 3 2 2\nsplit 1 2 1 2\nleaf 0.5 0.5\nleaf 0.125 0.875\n";
  const std::string preorder =
      "forest 2 2\n2 0 2 1 0 0 7\n"
      "tree 5 2 2\n"
      "split 0 0.5 1 2\n"
      "leaf 0 1\n"
      "split 1 -1.25 3 4\n"
      "leaf 1 0\n"
      "leaf 0.25 0.75\n"
      "tree 3 2 2\nsplit 1 2 1 2\nleaf 0.5 0.5\nleaf 0.125 0.875\n";
  RandomForestParams header;
  const CompiledForest parsed = CompiledForest::parse(text, header);
  const CompiledForest canonical = CompiledForest::parse(preorder, header);
  EXPECT_EQ(parsed.node_count(), canonical.node_count());
  EXPECT_EQ(parsed.max_depth(), canonical.max_depth());
  const RandomForest loaded = RandomForest::deserialize(text);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double x : {-1.0, 0.5, 0.75, nan})
    for (const double y : {-2.0, -1.25, 0.0, 2.0, 3.0, nan}) {
      const FeatureRow row{x, y};
      expect_bitwise_equal(parsed.predict_proba(row),
                           canonical.predict_proba(row));
      expect_bitwise_equal(loaded.predict_proba(row),
                           canonical.predict_proba(row));
    }
  EXPECT_EQ(parsed.reference_forest(header).serialize(), preorder);
  EXPECT_EQ(loaded.serialize(), preorder);
  EXPECT_EQ(RandomForest::deserialize(preorder).serialize(), preorder);
}

TEST(CompiledForest, UncompiledReferenceForestIsUnfitted) {
  const RandomForestParams params{.n_trees = 3, .seed = 5};
  const RandomForest forest = CompiledForest{}.reference_forest(params);
  EXPECT_EQ(forest.tree_count(), 0u);
  EXPECT_EQ(forest.params().seed, 5u);
  EXPECT_EQ(forest.serialize(), RandomForest(params).serialize());
}

}  // namespace
}  // namespace cgctx::ml

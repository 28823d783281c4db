// Allocation-free compiled Random Forest inference engine.
//
// A fitted RandomForest stores each tree as std::vector<Node> with a
// heap-allocated std::vector<double> distribution inside every leaf —
// fine for training, hostile to the prediction hot path: a 500-tree
// title verdict chases ~5000 pointer-laden 48-byte nodes and touches as
// many scattered leaf vectors. CompiledForest flattens the whole
// ensemble once, after fit, into one layout: packed 16-byte walk nodes
// (threshold + feature + one child index), each tree laid out by one BFS
// pass so siblings are adjacent, with every leaf distribution pooled
// into one flat double array addressed by offset. predict_proba_into
// then runs with zero heap allocations per call.
//
// Tree descent is a chain of dependent loads, so a single walk is bound
// by memory latency, not compute. The engine therefore walks trees in
// interleaved blocks of kWalkGroup: the independent descent chains
// overlap their cache misses, which is where most of the speedup over
// the reference walk comes from. Each descent step reads one 16-byte
// node, a quarter of a cache line. The walk itself is branchless — a
// leaf stores threshold = NaN and child = self - 1, so whatever the row
// holds (including NaN) the comparison is false and the chain spins in
// place on the leaf — and all chains simply advance for max_depth()
// passes with no per-node "am I done" branch to mispredict.
//
// A batch of kWalkGroup rows or more walks tree-major instead
// (predict_proba_rows_into): each tree in turn, over all rows in
// lockstep blocks. One tree is a few KiB and stays in L1 while the whole
// batch descends it, where the single-row walk streams the whole forest
// through the cache once per row.
//
// Parity guarantee: predictions are bitwise-identical to the reference
// forest. Leaf distributions are accumulated strictly in tree order
// (walks may interleave, sums may not), per-class sums add in the same
// order, and the division by tree count matches
// RandomForest::predict_proba exactly; argmax resolves ties to the
// lowest label exactly as std::max_element does. The parity tests in
// tests/ml/compiled_forest_test.cpp pin this bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/random_forest.hpp"

namespace cgctx::ml {

class CompiledForest {
 public:
  /// Empty (uncompiled) engine; every predict throws std::logic_error.
  CompiledForest() = default;

  /// Flattens a fitted forest. Throws std::logic_error when the forest
  /// has no trees (compile before fit).
  explicit CompiledForest(const RandomForest& forest);

  [[nodiscard]] bool compiled() const { return !walk_roots_.empty(); }
  [[nodiscard]] std::size_t tree_count() const { return walk_roots_.size(); }
  [[nodiscard]] std::size_t node_count() const { return walk_.size(); }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] std::size_t num_features() const { return num_features_; }
  /// Longest root-to-leaf path (edges) over all trees; the number of
  /// branchless descent passes each walk block runs.
  [[nodiscard]] std::size_t max_depth() const { return max_depth_; }

  /// Averaged per-tree class probabilities, written into `out` with zero
  /// heap allocations. `row.size()` must equal num_features() and
  /// `out.size()` must equal num_classes().
  void predict_proba_into(std::span<const double> row,
                          std::span<double> out) const;

  /// Argmax over predict_proba_into using `scratch` (size num_classes())
  /// as the accumulation buffer; ties resolve to the lowest label.
  [[nodiscard]] Label predict(std::span<const double> row,
                              std::span<double> scratch) const;

  /// Label + winning-class confidence, allocation-free via `scratch`.
  [[nodiscard]] Classifier::Prediction predict_with_confidence(
      std::span<const double> row, std::span<double> scratch) const;

  /// Convenience forms. They stay allocation-free for class counts up to
  /// kStackClasses (a stack buffer); wider problems pay one allocation.
  [[nodiscard]] Label predict(const FeatureRow& row) const;
  [[nodiscard]] Classifier::Prediction predict_with_confidence(
      const FeatureRow& row) const;
  /// Allocates the returned vector (API-boundary convenience).
  [[nodiscard]] ClassProbabilities predict_proba(const FeatureRow& row) const;

  /// Batch form of predict_proba_into over n rows, allocation-free.
  /// `rows` is n x num_features() and `out` n x num_classes(), both
  /// row-major; each output row is bitwise-identical to
  /// predict_proba_into on its input row. From kWalkGroup rows up the
  /// walk is tree-major (see walk_rows_accumulate); smaller batches take
  /// the single-row walk per row.
  void predict_proba_rows_into(std::span<const double> rows,
                               std::span<double> out) const;

  /// Batch prediction: `out.size()` must equal `rows.size()`. Packs the
  /// rows into one buffer for predict_proba_rows_into: one allocation per
  /// call, never one per row.
  void predict_rows(std::span<const FeatureRow> rows,
                    std::span<Label> out) const;

  /// The winning class of one probability row and its probability: the
  /// first maximum, exactly like std::max_element, so ties resolve to the
  /// lowest label.
  [[nodiscard]] static Classifier::Prediction top(
      std::span<const double> proba);

  /// Class counts the stack-buffer convenience paths cover.
  static constexpr std::size_t kStackClasses = 64;

  /// Tree walks interleaved per block (independent descent chains whose
  /// cache misses overlap).
  static constexpr std::size_t kWalkGroup = 16;

 private:
  void walk_accumulate(std::span<const double> row,
                       std::span<double> out) const;
  /// Tree-major walk: every tree in index order, each over all rows in
  /// lockstep blocks of kWalkGroup, so one tree's nodes stay cached while
  /// the whole batch descends it. Adds each row's leaves into its `out`
  /// row in tree order. `kWidth` is num_features() when fixed at compile
  /// time, 0 otherwise.
  template <std::size_t kWidth>
  void walk_rows_accumulate(std::span<const double> rows,
                            std::span<double> out) const;
  /// Divides accumulated leaf sums by the tree count.
  void average(std::span<double> out) const;

  /// One packed traversal node: everything a descent step reads sits in
  /// one 16-byte (quarter-cache-line) record. Siblings are adjacent, so
  /// the step is `child + !(row[feature] <= threshold)`; a leaf stores a
  /// quiet NaN threshold and child = self - 1, making the step an
  /// unconditional self-loop (the comparison is false for every input,
  /// NaN included) with feature = 0 keeping the spin's row load valid.
  /// The NaN's low mantissa bits carry the leaf's pool offset, so the
  /// accumulation pass reads it straight from the node it already has in
  /// cache instead of chasing a side array.
  struct WalkNode {
    double threshold = 0.0;
    std::int32_t feature = 0;
    std::int32_t child = 0;
  };
  static_assert(sizeof(WalkNode) == 16);

  // All trees concatenated, each in BFS order (siblings adjacent).
  std::vector<WalkNode> walk_;
  /// Root node index per tree, in the reference forest's vote order.
  std::vector<std::int32_t> walk_roots_;
  /// Leaf distributions, num_classes_ wide each, in walk order.
  std::vector<double> leaf_pool_;
  std::size_t num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace cgctx::ml

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
// Label-only callers (predict, predict_rows_into, predict_rows) take the
// same walks with an early exit: a row retires with its leading class as
// soon as the trees it has not walked yet can no longer overturn the
// lead. With tree j's leaf-value span s_j (max minus min over all of its
// leaves' class entries) and slack[k] = sum of s_j over j >= k, the
// final margin of the leader over any class c after tree k is its
// partial margin plus a sum of per-tree differences, each at least
// -s_j, so a partial margin above slack[k + 1] (+ kRetireGuard against
// rounding) settles the argmax. Retirement is enabled only when every
// leaf value lies in [0, 1] and the forest has at most kMaxRetireTrees
// trees, which bounds the rounding in every sum far below kRetireGuard;
// any other forest walks every tree. A row that never retires takes the
// probability path: average, then top().
//
// Parity guarantee: predictions are bitwise-identical to the reference
// forest. Leaf distributions are accumulated strictly in tree order
// (walks may interleave, sums may not), per-class sums add in the same
// order, and the division by tree count matches
// RandomForest::predict_proba exactly; argmax resolves ties to the
// lowest label exactly as std::max_element does. The parity tests in
// tests/ml/compiled_forest_test.cpp pin this bit for bit.
//
// Forest text loads straight into this layout: parse(), the only reader
// of forest text, hands each tree to the BFS routine the constructor
// uses, so a load builds no reference forest and allocates per model.
//
// Compilation is also exactly invertible: reference_forest() rebuilds the
// RandomForest from the walk nodes and the leaf pool, numbering each
// tree's nodes in left-first preorder, the order DecisionTree::fit writes.
// A fitted or fit-written forest therefore serializes byte-identically
// after a compile-and-rebuild round, which is what lets the runtime
// classifiers keep only the compiled form and still serialize. A tree
// written in another order (a right subtree first) loads and comes back
// in preorder: same predictions, canonical text.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
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

  /// Parses RandomForest::serialize()'s text into the compiled form and
  /// the header's params into `header`; throws std::invalid_argument
  /// ("RandomForest: ... at byte N") on anything else. A zero-tree forest
  /// yields an uncompiled engine that keeps the header's class count.
  [[nodiscard]] static CompiledForest parse(std::string_view text,
                                            RandomForestParams& header);

  /// The inverse of compilation: rebuilds the reference forest, with
  /// `params` as its header (the compiled form keeps none), each tree's
  /// nodes numbered in left-first preorder. A leaf is recognised by its
  /// self-loop and reads its distribution at the offset in its NaN
  /// payload. Builds every tree and leaf vector anew on each call; an
  /// uncompiled engine yields an unfitted forest of its class count.
  [[nodiscard]] RandomForest reference_forest(
      const RandomForestParams& params) const;

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

  /// top(predict_proba_into(row)).label, using `scratch` (size
  /// num_classes()) as the accumulation buffer; ties resolve to the
  /// lowest label. Label-only walk: it checks after each block of
  /// kWalkGroup trees whether the label is decided and stops there if so,
  /// leaving `scratch` holding partial sums. The block grid is shifted so
  /// that a block ends at the first tree after which a decision is
  /// possible.
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

  /// Batch form of predict(row, scratch) over n rows, allocation-free:
  /// `rows` is n x num_features() row-major, `scratch` n x num_classes()
  /// and `labels` size n. From kWalkGroup rows up the walk is tree-major
  /// over the rows still undecided, in chunks of kRowChunk, checking every
  /// undecided row after every fourth tree from the first tree a decision
  /// is possible. Returns the tree walks it took (n x
  /// tree_count() when no row retires).
  std::size_t predict_rows_into(std::span<const double> rows,
                                std::span<double> scratch,
                                std::span<Label> labels) const;

  /// Batch prediction: `out.size()` must equal `rows.size()`. Packs the
  /// rows into one buffer for predict_rows_into: one allocation per
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

  /// Rows a tree-major walk takes at a time (its stack index array of
  /// undecided rows); a RealtimePipeline slot batch is one chunk.
  static constexpr std::size_t kRowChunk = 256;

  /// Rounding allowance on top of the slack a retiring lead must clear.
  static constexpr double kRetireGuard = 1e-9;
  /// Largest forest the label walk retires rows of: with leaf values in
  /// [0, 1], the rounding of its sums stays under kRetireGuard / 2.
  static constexpr std::size_t kMaxRetireTrees = 1024;

 private:
  /// Single-row walk, in interleaved blocks of kWalkGroup trees: adds the
  /// leaves into `sum` (num_classes() wide, zeroed) in tree order, then
  /// averages it. The label walk (kLabels) checks after each block whether
  /// the leading class is decided and, if so, writes it to `*label` and
  /// stops; a row that walks every tree gets top(sum).label. Returns the
  /// trees walked.
  template <bool kLabels>
  std::size_t walk_row(const double* x, double* sum, Label* label) const;
  /// Tree-major walk over `n` rows in chunks of kRowChunk: every tree in
  /// index order, each over the chunk's undecided rows in lockstep blocks
  /// of kWalkGroup, so one tree's nodes stay cached while the whole chunk
  /// descends it. Sums, retirement and averaging as walk_row, with the
  /// decision checked after every fourth tree (kCheckStride). Returns the
  /// tree walks taken.
  /// `kWidth` is num_features() when fixed at compile time, 0 otherwise.
  template <std::size_t kWidth, bool kLabels>
  std::size_t walk_rows(const double* rows, std::size_t n, double* sums,
                        Label* labels) const;
  /// Validates a batch (`sums` n x num_classes(), `rows` n x
  /// num_features()), zeroes `sums` and walks it: tree-major from
  /// kWalkGroup rows up, the single-row walk per row below.
  template <bool kLabels>
  std::size_t walk_batch(std::span<const double> rows, std::span<double> sums,
                         Label* labels) const;
  /// Divides accumulated leaf sums by the tree count.
  void average(std::span<double> out) const;

  /// The BFS layout routine the constructor and parse() share (.cpp).
  struct Builder;

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
  /// Per tree k: the margin a lead must exceed after tree k to retire,
  /// slack[k + 1] + kRetireGuard (see the file comment).
  std::vector<double> retire_margin_;
  /// First tree after which a lead can clear its retire margin; the tree
  /// count when retirement is disabled.
  std::size_t first_check_ = 0;
  std::size_t num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace cgctx::ml

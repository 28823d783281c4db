#include "ml/compiled_forest.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace cgctx::ml {

namespace {
/// Exponent + quiet bit of a canonical quiet NaN. A leaf's WalkNode
/// threshold is this pattern with the leaf's pool offset in the low 32
/// mantissa bits — still a NaN for any offset, so it compares false
/// against every row value.
constexpr std::uint64_t kLeafNanBits = 0x7FF8'0000'0000'0000ULL;
constexpr std::uint64_t kLeafOffsetMask = 0xFFFF'FFFFULL;

/// Advances `lanes` descent chains in lockstep for exactly `passes`
/// passes: the per-lane loads are independent, so their cache misses
/// overlap, and chains already parked on a leaf spin in place — no "am I
/// done" branch to mispredict. Full groups unroll the lane sweep at
/// compile time (constant lane indices), partial tail groups take the
/// generic loop.
template <std::size_t kGroup, typename Step>
void lockstep(std::size_t lanes, std::size_t passes, const Step& step) {
  if (lanes == kGroup) {
    for (std::size_t pass = 0; pass < passes; ++pass)
      [&]<std::size_t... I>(std::index_sequence<I...>) {
        (step(I), ...);
      }(std::make_index_sequence<kGroup>{});
  } else {
    for (std::size_t pass = 0; pass < passes; ++pass)
      for (std::size_t i = 0; i < lanes; ++i) step(i);
  }
}
}  // namespace

CompiledForest::CompiledForest(const RandomForest& forest) {
  if (forest.tree_count() == 0)
    throw std::logic_error("CompiledForest: compile before fit");
  num_classes_ = forest.num_classes();
  if (num_classes_ == 0)
    throw std::logic_error("CompiledForest: forest has no classes");

  std::size_t total_nodes = 0;
  std::size_t total_leaves = 0;
  for (const DecisionTree& tree : forest.trees()) {
    total_nodes += tree.node_count();
    total_leaves += (tree.node_count() + 1) / 2;  // full binary tree
  }
  walk_.reserve(total_nodes);
  walk_roots_.reserve(forest.tree_count());
  leaf_pool_.reserve(total_leaves * num_classes_);

  // BFS queue of (tree-local node id, depth). A BFS hands sibling pairs
  // consecutive ranks, so a split only stores its left child's index
  // (right = left + 1), and that index is the queue length at the moment
  // the pair is enqueued.
  struct Pending {
    std::int32_t node;
    std::size_t depth;
  };
  std::vector<Pending> queue;
  for (const DecisionTree& tree : forest.trees()) {
    if (tree.num_classes() != num_classes_)
      throw std::logic_error("CompiledForest: inconsistent class counts");
    if (num_features_ == 0) num_features_ = tree.num_features();
    if (tree.num_features() != num_features_)
      throw std::logic_error("CompiledForest: inconsistent feature widths");
    const auto& nodes = tree.nodes();
    const auto wbase = static_cast<std::int32_t>(walk_.size());
    walk_roots_.push_back(wbase);
    queue.clear();
    queue.push_back({0, 0});  // a tree's node 0 is its root
    for (std::size_t rank = 0; rank < queue.size(); ++rank) {
      const auto [id, depth] = queue[rank];
      const DecisionTree::Node& node = nodes[static_cast<std::size_t>(id)];
      const auto self = wbase + static_cast<std::int32_t>(rank);
      if (node.is_leaf()) {
        if (node.distribution.size() != num_classes_)
          throw std::logic_error("CompiledForest: bad leaf width");
        // Quiet NaN whose low bits are the leaf's pool offset: still
        // compares false against everything (the self-loop driver) and
        // doubles as the accumulation pass's distribution pointer.
        const auto offset = static_cast<std::uint64_t>(leaf_pool_.size());
        leaf_pool_.insert(leaf_pool_.end(), node.distribution.begin(),
                          node.distribution.end());
        walk_.push_back(WalkNode{
            .threshold = std::bit_cast<double>(kLeafNanBits | offset),
            .feature = 0,
            .child = self - 1,
        });
        max_depth_ = std::max(max_depth_, depth);
      } else {
        walk_.push_back(WalkNode{
            .threshold = node.threshold,
            .feature = node.feature,
            .child = wbase + static_cast<std::int32_t>(queue.size()),
        });
        queue.push_back({node.left, depth + 1});
        queue.push_back({node.right, depth + 1});
      }
    }
  }
}

void CompiledForest::walk_accumulate(std::span<const double> row,
                                     std::span<double> out) const {
  const WalkNode* const walk = walk_.data();
  const double* const pool = leaf_pool_.data();
  const double* const x = row.data();
  const std::size_t classes = num_classes_;
  const std::size_t trees = walk_roots_.size();
  const std::size_t passes = max_depth_;
  std::size_t cursor[kWalkGroup];
  const auto step = [&](std::size_t i) {
    const WalkNode node = walk[cursor[i]];
    // !(x <= t) rather than (x > t): NaN features descend right,
    // exactly as the reference walk's ternary does. Leaves compare
    // against NaN, so the step degenerates to child + 1 == self.
    cursor[i] = static_cast<std::size_t>(node.child) +
                static_cast<std::size_t>(
                    !(x[static_cast<std::size_t>(node.feature)] <=
                      node.threshold));
  };
  for (std::size_t block = 0; block < trees; block += kWalkGroup) {
    const std::size_t n = std::min(kWalkGroup, trees - block);
    for (std::size_t i = 0; i < n; ++i)
      cursor[i] = static_cast<std::size_t>(walk_roots_[block + i]);
    lockstep<kWalkGroup>(n, passes, step);
    // Resolve the block's distribution pointers (pool offsets ride in
    // the leaf NaNs' mantissas) and get their lines in flight before the
    // ordered accumulation consumes them one by one.
    const double* dists[kWalkGroup];
    for (std::size_t i = 0; i < n; ++i) {
      dists[i] = pool + (std::bit_cast<std::uint64_t>(
                             walk[cursor[i]].threshold) &
                         kLeafOffsetMask);
      __builtin_prefetch(dists[i]);
      __builtin_prefetch(dists[i] + 8);
    }
    // Accumulate this block's leaves strictly in tree order: the
    // per-class float sums stay bitwise-identical to the reference
    // RandomForest::predict_proba's sequential walk.
    for (std::size_t i = 0; i < n; ++i) {
      const double* const dist = dists[i];
      for (std::size_t c = 0; c < classes; ++c) out[c] += dist[c];
    }
  }
}

template <std::size_t kWidth>
void CompiledForest::walk_rows_accumulate(std::span<const double> rows,
                                          std::span<double> out) const {
  const WalkNode* const walk = walk_.data();
  const double* const pool = leaf_pool_.data();
  const std::size_t width = kWidth != 0 ? kWidth : num_features_;
  const std::size_t classes = num_classes_;
  const std::size_t n = out.size() / classes;
  const std::size_t passes = max_depth_;
  std::size_t cursor[kWalkGroup];
  const double* x = rows.data();  // the block's first row
  // The single-row step with a row per lane instead of a tree per lane.
  // With a compile-time width, lane i's row offset i * width folds into
  // the load's address displacement.
  const auto step = [&](std::size_t i) {
    const WalkNode node = walk[cursor[i]];
    cursor[i] = static_cast<std::size_t>(node.child) +
                static_cast<std::size_t>(
                    !(x[i * width + static_cast<std::size_t>(node.feature)] <=
                      node.threshold));
  };
  // Trees in index order, outermost: every row adds its trees' leaves in
  // the same order as the single-row walk, so the sums are bitwise-equal.
  for (const std::int32_t root : walk_roots_) {
    for (std::size_t block = 0; block < n; block += kWalkGroup) {
      const std::size_t lanes = std::min(kWalkGroup, n - block);
      x = rows.data() + block * width;
      std::fill_n(cursor, lanes, static_cast<std::size_t>(root));
      lockstep<kWalkGroup>(lanes, passes, step);
      for (std::size_t i = 0; i < lanes; ++i) {
        const double* const dist =
            pool + (std::bit_cast<std::uint64_t>(walk[cursor[i]].threshold) &
                    kLeafOffsetMask);
        double* const sum = out.data() + (block + i) * classes;
        for (std::size_t c = 0; c < classes; ++c) sum[c] += dist[c];
      }
    }
  }
}

void CompiledForest::average(std::span<double> out) const {
  const auto k = static_cast<double>(walk_roots_.size());
  for (double& p : out) p /= k;
}

void CompiledForest::predict_proba_into(std::span<const double> row,
                                        std::span<double> out) const {
  if (!compiled())
    throw std::logic_error("CompiledForest: predict before compile");
  if (row.size() != num_features_)
    throw std::invalid_argument("CompiledForest: feature width mismatch");
  if (out.size() != num_classes_)
    throw std::invalid_argument(
        "CompiledForest: output span size must equal num_classes()");
  std::fill(out.begin(), out.end(), 0.0);
  walk_accumulate(row, out);
  average(out);
}

void CompiledForest::predict_proba_rows_into(std::span<const double> rows,
                                             std::span<double> out) const {
  if (!compiled())
    throw std::logic_error("CompiledForest: predict before compile");
  if (out.size() % num_classes_ != 0)
    throw std::invalid_argument(
        "CompiledForest: output span size must be a multiple of "
        "num_classes()");
  const std::size_t n = out.size() / num_classes_;
  if (rows.size() != n * num_features_)
    throw std::invalid_argument(
        "CompiledForest: rows must hold out.size() / num_classes() rows of "
        "num_features()");
  std::fill(out.begin(), out.end(), 0.0);
  if (n < kWalkGroup) {
    for (std::size_t i = 0; i < n; ++i)
      walk_accumulate(rows.subspan(i * num_features_, num_features_),
                      out.subspan(i * num_classes_, num_classes_));
  } else if (num_features_ == 4) {
    // The slot forests' widths (4 volumetric attributes, 9 transition
    // cells) get compile-time kernels: one load fewer per descent step.
    walk_rows_accumulate<4>(rows, out);
  } else if (num_features_ == 9) {
    walk_rows_accumulate<9>(rows, out);
  } else {
    walk_rows_accumulate<0>(rows, out);
  }
  average(out);
}

Label CompiledForest::predict(std::span<const double> row,
                              std::span<double> scratch) const {
  return predict_with_confidence(row, scratch).label;
}

Classifier::Prediction CompiledForest::predict_with_confidence(
    std::span<const double> row, std::span<double> scratch) const {
  predict_proba_into(row, scratch);
  return top(scratch);
}

Classifier::Prediction CompiledForest::top(std::span<const double> proba) {
  // First maximum, exactly like std::max_element: ties go to the lowest
  // label (pinned by tests for both engines).
  std::size_t best = 0;
  for (std::size_t c = 1; c < proba.size(); ++c)
    if (proba[c] > proba[best]) best = c;
  return Classifier::Prediction{static_cast<Label>(best), proba[best]};
}

Label CompiledForest::predict(const FeatureRow& row) const {
  return predict_with_confidence(row).label;
}

Classifier::Prediction CompiledForest::predict_with_confidence(
    const FeatureRow& row) const {
  double stack[kStackClasses];
  if (num_classes_ <= kStackClasses && compiled())
    return predict_with_confidence(row, std::span(stack, num_classes_));
  std::vector<double> heap(num_classes_);
  return predict_with_confidence(row, heap);
}

ClassProbabilities CompiledForest::predict_proba(const FeatureRow& row) const {
  ClassProbabilities probs(num_classes_);
  predict_proba_into(row, probs);
  return probs;
}

void CompiledForest::predict_rows(std::span<const FeatureRow> rows,
                                  std::span<Label> out) const {
  if (out.size() != rows.size())
    throw std::invalid_argument(
        "CompiledForest::predict_rows: output span size mismatch");
  if (rows.empty()) return;
  if (!compiled())
    throw std::logic_error("CompiledForest: predict before compile");
  // One buffer: the packed rows, then their probability rows.
  const std::size_t n = rows.size();
  std::vector<double> buffer(n * (num_features_ + num_classes_));
  const std::span<double> packed(buffer.data(), n * num_features_);
  const std::span<double> proba(buffer.data() + packed.size(),
                                n * num_classes_);
  for (std::size_t i = 0; i < n; ++i) {
    if (rows[i].size() != num_features_)
      throw std::invalid_argument("CompiledForest: feature width mismatch");
    std::copy(rows[i].begin(), rows[i].end(),
              packed.begin() + static_cast<std::ptrdiff_t>(i * num_features_));
  }
  predict_proba_rows_into(packed, proba);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = top(proba.subspan(i * num_classes_, num_classes_)).label;
}

}  // namespace cgctx::ml

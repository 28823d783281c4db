#include "ml/compiled_forest.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
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

/// One descent step: `child + !(x[feature] <= threshold)`. !(x <= t)
/// rather than (x > t): NaN features descend right, exactly as the
/// reference walk's ternary does. Leaves compare against NaN, so the step
/// degenerates to child + 1 == self.
template <typename Node>
std::size_t descend(const Node* walk, std::size_t at, const double* x) {
  const Node node = walk[at];
  return static_cast<std::size_t>(node.child) +
         static_cast<std::size_t>(
             !(x[static_cast<std::size_t>(node.feature)] <= node.threshold));
}

/// Trees between two retirement checks of the tree-major label walk. A
/// check per tree made a batch whose vote never settles cost ≈1.2× the
/// probability walk; every fourth tree, ≈1.06×. Rows decided at the
/// first check, most of them, retire no later.
constexpr std::size_t kCheckStride = 4;

/// True when the leading class of `sum` beats every other class by more
/// than `margin`; writes it to `label`. Branch-free over the classes: the
/// class order differs from row to row.
inline bool leader_clears(const double* sum, std::size_t classes,
                          double margin, Label& label) {
  std::size_t best = 0;
  double lead = sum[0];
  double runner_up = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 1; c < classes; ++c) {
    const double v = sum[c];
    const bool ahead = v > lead;
    runner_up = ahead ? lead : std::max(runner_up, v);
    best = ahead ? c : best;
    lead = ahead ? v : lead;
  }
  if (!(lead - runner_up > margin)) return false;
  label = static_cast<Label>(best);
  return true;
}

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
  // Leaf-value span per tree (max - min over its leaves' class entries),
  // and whether every leaf value lies in [0, 1].
  std::vector<double> spans;
  spans.reserve(forest.tree_count());
  bool unit_leaves = true;
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
    double lowest = std::numeric_limits<double>::infinity();
    double highest = -lowest;
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
        for (const double v : node.distribution) {
          unit_leaves = unit_leaves && v >= 0.0 && v <= 1.0;
          lowest = std::min(lowest, v);
          highest = std::max(highest, v);
        }
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
    spans.push_back(highest - lowest);
  }

  // retire_margin_[k] = slack[k + 1] + kRetireGuard, with slack[k] the
  // suffix sum of the spans from tree k on. The first check is the first
  // tree whose walked spans alone (the largest lead the trees so far can
  // build) could clear its margin.
  const std::size_t trees = spans.size();
  first_check_ = trees;
  if (!unit_leaves || trees > kMaxRetireTrees) return;
  retire_margin_.assign(trees, 0.0);
  double slack = 0.0;
  for (std::size_t k = trees; k-- > 0;) {
    retire_margin_[k] = slack + kRetireGuard;
    slack += spans[k];
  }
  double walked = 0.0;
  for (std::size_t k = 0; k < trees; ++k) {
    walked += spans[k];
    if (walked > retire_margin_[k]) {
      first_check_ = k;
      break;
    }
  }
}

RandomForest CompiledForest::reference_forest(
    const RandomForestParams& params) const {
  RandomForest forest(params);
  if (!compiled()) return forest;
  forest.num_classes_ = num_classes_;
  forest.trees_.resize(tree_count());
  // Depth-first from each root, left child popped first, so a node's
  // index is its preorder rank: a split's left child is the next node,
  // and its right child's index is patched in when that child is reached.
  struct Pending {
    std::int32_t at;      ///< walk node index
    std::int32_t parent;  ///< rebuilt split whose right child this is, or -1
  };
  std::vector<Pending> stack;
  for (std::size_t t = 0; t < tree_count(); ++t) {
    const auto root = static_cast<std::size_t>(walk_roots_[t]);
    const std::size_t end = t + 1 < tree_count()
                                ? static_cast<std::size_t>(walk_roots_[t + 1])
                                : walk_.size();
    DecisionTree& tree = forest.trees_[t];
    tree.num_classes_ = num_classes_;
    tree.num_features_ = num_features_;
    std::vector<DecisionTree::Node>& nodes = tree.nodes_;
    nodes.reserve(end - root);
    stack.assign(1, Pending{walk_roots_[t], -1});
    while (!stack.empty()) {
      const Pending pending = stack.back();
      stack.pop_back();
      const auto id = static_cast<std::int32_t>(nodes.size());
      if (pending.parent >= 0)
        nodes[static_cast<std::size_t>(pending.parent)].right = id;
      const WalkNode& walk = walk_[static_cast<std::size_t>(pending.at)];
      DecisionTree::Node& node = nodes.emplace_back();
      if (walk.child == pending.at - 1) {  // a leaf's self-loop
        const std::size_t offset =
            std::bit_cast<std::uint64_t>(walk.threshold) & kLeafOffsetMask;
        const double* distribution = leaf_pool_.data() + offset;
        node.distribution.assign(distribution, distribution + num_classes_);
      } else {
        node.feature = walk.feature;
        node.threshold = walk.threshold;
        node.left = id + 1;
        stack.push_back({walk.child + 1, id});
        stack.push_back({walk.child, -1});
      }
    }
  }
  return forest;
}

template <bool kLabels>
std::size_t CompiledForest::walk_row(const double* x, double* sum,
                                     Label* label) const {
  const WalkNode* const walk = walk_.data();
  const double* const pool = leaf_pool_.data();
  const std::size_t classes = num_classes_;
  const std::size_t trees = walk_roots_.size();
  const std::size_t passes = max_depth_;
  std::size_t cursor[kWalkGroup];
  const auto step = [&](std::size_t i) {
    cursor[i] = descend(walk, cursor[i], x);
  };
  // The label walk shifts its block grid so that a block ends at the
  // first tree after which a decision is possible: the first block takes
  // the remainder, and a row decided there stops at once, not up to 15
  // trees later.
  const std::size_t lead =
      kLabels && first_check_ < trees ? (first_check_ + 1) % kWalkGroup : 0;
  for (std::size_t block = 0, n = lead != 0 ? lead : kWalkGroup;
       block < trees; block += n, n = kWalkGroup) {
    n = std::min(n, trees - block);
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
      for (std::size_t c = 0; c < classes; ++c) sum[c] += dist[c];
    }
    if constexpr (kLabels) {
      const std::size_t last = block + n - 1;
      if (last >= first_check_ &&
          leader_clears(sum, classes, retire_margin_[last], *label))
        return block + n;
    }
  }
  average(std::span(sum, classes));
  if constexpr (kLabels) *label = top(std::span(sum, classes)).label;
  return trees;
}

template <std::size_t kWidth, bool kLabels>
std::size_t CompiledForest::walk_rows(const double* rows, std::size_t n,
                                      double* sums, Label* labels) const {
  const WalkNode* const walk = walk_.data();
  const double* const pool = leaf_pool_.data();
  const std::size_t width = kWidth != 0 ? kWidth : num_features_;
  const std::size_t classes = num_classes_;
  const std::size_t trees = walk_roots_.size();
  const std::size_t passes = max_depth_;
  std::size_t cursor[kWalkGroup];
  // Descends one tree over `lanes` rows in lockstep and adds each lane's
  // leaf into its sum row; lane i reads row_of(i) and adds into sum_of(i).
  const auto walk_block = [&](std::size_t root, std::size_t lanes,
                              const auto& row_of, const auto& sum_of) {
    std::fill_n(cursor, lanes, root);
    lockstep<kWalkGroup>(lanes, passes, [&](std::size_t i) {
      cursor[i] = descend(walk, cursor[i], row_of(i));
    });
    for (std::size_t i = 0; i < lanes; ++i) {
      const double* const dist =
          pool + (std::bit_cast<std::uint64_t>(walk[cursor[i]].threshold) &
                  kLeafOffsetMask);
      double* const sum = sum_of(i);
      for (std::size_t c = 0; c < classes; ++c) sum[c] += dist[c];
    }
  };
  // The chunk's undecided rows, as offsets from its first row. Until the
  // first row retires they are all of its rows, in order, and the lanes
  // address rows and sums directly: with a compile-time width, lane i's
  // row offset i * width folds into the load's address displacement.
  std::uint16_t live[kRowChunk];
  static_assert(kRowChunk <= 1u << 16);
  std::size_t walked = 0;
  for (std::size_t first = 0; first < n; first += kRowChunk) {
    const double* const chunk_rows = rows + first * width;
    double* const chunk_sums = sums + first * classes;
    std::size_t active = std::min(kRowChunk, n - first);
    std::iota(live, live + active, std::uint16_t{0});
    bool gather = false;
    // Trees in index order, outermost: every row adds its trees' leaves
    // in the same order as the single-row walk, so the sums are
    // bitwise-equal.
    for (std::size_t k = 0; k < trees && active > 0; ++k) {
      const auto root = static_cast<std::size_t>(walk_roots_[k]);
      for (std::size_t block = 0; block < active; block += kWalkGroup) {
        const std::size_t lanes = std::min(kWalkGroup, active - block);
        if (gather) {
          walk_block(
              root, lanes,
              [&](std::size_t i) { return chunk_rows + live[block + i] * width; },
              [&](std::size_t i) { return chunk_sums + live[block + i] * classes; });
        } else {
          const double* const x = chunk_rows + block * width;
          double* const sum = chunk_sums + block * classes;
          walk_block(
              root, lanes, [&](std::size_t i) { return x + i * width; },
              [&](std::size_t i) { return sum + i * classes; });
        }
      }
      walked += active;
      if constexpr (kLabels) {
        if (k < first_check_ || (k - first_check_) % kCheckStride != 0)
          continue;
        const double margin = retire_margin_[k];
        std::size_t kept = 0;
        for (std::size_t j = 0; j < active; ++j) {
          const std::uint16_t r = live[j];
          if (!leader_clears(chunk_sums + r * classes, classes, margin,
                             labels[first + r]))
            live[kept++] = r;
        }
        gather = gather || kept < active;
        active = kept;
      }
    }
    for (std::size_t j = 0; j < active; ++j) {
      const std::span sum(chunk_sums + live[j] * classes, classes);
      average(sum);
      if constexpr (kLabels) labels[first + live[j]] = top(sum).label;
    }
  }
  return walked;
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
  walk_row<false>(row.data(), out.data(), nullptr);
}

template <bool kLabels>
std::size_t CompiledForest::walk_batch(std::span<const double> rows,
                                       std::span<double> sums,
                                       Label* labels) const {
  if (!compiled())
    throw std::logic_error("CompiledForest: predict before compile");
  if (sums.size() % num_classes_ != 0)
    throw std::invalid_argument(
        "CompiledForest: output span size must be a multiple of "
        "num_classes()");
  const std::size_t n = sums.size() / num_classes_;
  if (rows.size() != n * num_features_)
    throw std::invalid_argument(
        "CompiledForest: rows must hold out.size() / num_classes() rows of "
        "num_features()");
  std::fill(sums.begin(), sums.end(), 0.0);
  // The slot forests' widths (4 volumetric attributes, 9 transition
  // cells) get compile-time kernels: one load fewer per descent step.
  if (n >= kWalkGroup && num_features_ == 4)
    return walk_rows<4, kLabels>(rows.data(), n, sums.data(), labels);
  if (n >= kWalkGroup && num_features_ == 9)
    return walk_rows<9, kLabels>(rows.data(), n, sums.data(), labels);
  if (n >= kWalkGroup)
    return walk_rows<0, kLabels>(rows.data(), n, sums.data(), labels);
  std::size_t walked = 0;
  for (std::size_t i = 0; i < n; ++i)
    walked += walk_row<kLabels>(rows.data() + i * num_features_,
                                sums.data() + i * num_classes_,
                                kLabels ? labels + i : nullptr);
  return walked;
}

void CompiledForest::predict_proba_rows_into(std::span<const double> rows,
                                             std::span<double> out) const {
  walk_batch<false>(rows, out, nullptr);
}

std::size_t CompiledForest::predict_rows_into(std::span<const double> rows,
                                              std::span<double> scratch,
                                              std::span<Label> labels) const {
  if (scratch.size() != labels.size() * num_classes_)
    throw std::invalid_argument(
        "CompiledForest: scratch must be labels.size() x num_classes()");
  return walk_batch<true>(rows, scratch, labels.data());
}

Label CompiledForest::predict(std::span<const double> row,
                              std::span<double> scratch) const {
  if (!compiled())
    throw std::logic_error("CompiledForest: predict before compile");
  if (row.size() != num_features_)
    throw std::invalid_argument("CompiledForest: feature width mismatch");
  if (scratch.size() != num_classes_)
    throw std::invalid_argument(
        "CompiledForest: output span size must equal num_classes()");
  std::fill(scratch.begin(), scratch.end(), 0.0);
  Label label = 0;
  walk_row<true>(row.data(), scratch.data(), &label);
  return label;
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
  double stack[kStackClasses];
  if (num_classes_ <= kStackClasses && compiled())
    return predict(row, std::span(stack, num_classes_));
  std::vector<double> heap(num_classes_);
  return predict(row, heap);
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
  // One buffer: the packed rows, then their class sums.
  const std::size_t n = rows.size();
  std::vector<double> buffer(n * (num_features_ + num_classes_));
  const std::span<double> packed(buffer.data(), n * num_features_);
  const std::span<double> sums(buffer.data() + packed.size(),
                               n * num_classes_);
  for (std::size_t i = 0; i < n; ++i) {
    if (rows[i].size() != num_features_)
      throw std::invalid_argument("CompiledForest: feature width mismatch");
    std::copy(rows[i].begin(), rows[i].end(),
              packed.begin() + static_cast<std::ptrdiff_t>(i * num_features_));
  }
  predict_rows_into(packed, sums, out);
}

}  // namespace cgctx::ml

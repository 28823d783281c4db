#include "ml/compiled_forest.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "ml/text_reader.hpp"

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

/// The one layout routine, behind the constructor and parse(): add_tree()
/// lays a tree out after those already added, by one BFS pass, its leaf
/// values entering the pool in walk order; finish() trims the arrays to
/// their sizes and sets up row retirement.
struct CompiledForest::Builder {
  Builder(CompiledForest& forest, std::size_t trees) : out(forest) {
    out.walk_roots_.reserve(trees);
    spans.reserve(trees);
  }

  CompiledForest& out;
  /// BFS queue of (tree-local node id, depth).
  std::vector<std::pair<std::int32_t, std::size_t>> queue;
  /// Per tree: its leaf-value span (max - min over its leaves' values).
  std::vector<double> spans;
  bool unit_leaves = true;  ///< every leaf value lies in [0, 1]

  /// `nodes` is one tree, node 0 its root; `leaf(node)` points at a leaf
  /// node's num_classes() values.
  template <typename Leaf>
  void add_tree(std::span<const DecisionTree::Node> nodes,
                const Leaf& leaf) {
    const std::size_t classes = out.num_classes_;
    const std::size_t wbase = out.walk_.size();
    out.walk_roots_.push_back(static_cast<std::int32_t>(wbase));
    // A BFS hands sibling pairs consecutive ranks, so a split only stores
    // its left child's index (right = left + 1), and that index is the
    // queue length at the moment the pair is enqueued.
    queue.reserve(nodes.size());
    queue.assign(1, {0, 0});
    double lowest = std::numeric_limits<double>::infinity();
    double highest = -lowest;
    for (std::size_t rank = 0; rank < queue.size(); ++rank) {
      const auto [id, depth] = queue[rank];
      const DecisionTree::Node& node = nodes[static_cast<std::size_t>(id)];
      if (!node.is_leaf()) {
        const auto left = static_cast<std::int32_t>(wbase + queue.size());
        out.walk_.push_back({node.threshold, node.feature, left});
        queue.emplace_back(node.left, depth + 1);
        queue.emplace_back(node.right, depth + 1);
        continue;
      }
      // Quiet NaN whose low bits are the leaf's pool offset: still
      // compares false against everything (the self-loop driver) and
      // doubles as the accumulation pass's distribution pointer.
      const auto offset = static_cast<std::uint64_t>(out.leaf_pool_.size());
      out.walk_.push_back({std::bit_cast<double>(kLeafNanBits | offset), 0,
                           static_cast<std::int32_t>(wbase + rank) - 1});
      const double* const values = leaf(node);
      out.leaf_pool_.insert(out.leaf_pool_.end(), values, values + classes);
      for (std::size_t c = 0; c < classes; ++c) {
        unit_leaves = unit_leaves && values[c] >= 0.0 && values[c] <= 1.0;
        lowest = std::min(lowest, values[c]);
        highest = std::max(highest, values[c]);
      }
      out.max_depth_ = std::max(out.max_depth_, depth);
    }
    spans.push_back(highest - lowest);
  }

  void finish() {
    out.walk_.shrink_to_fit();
    out.leaf_pool_.shrink_to_fit();
    // retire_margin_[k] = slack[k + 1] + kRetireGuard, with slack[k] the
    // suffix sum of the spans from tree k on. The first check is the first
    // tree whose walked spans alone (the largest lead the trees so far can
    // build) could clear its margin.
    const std::size_t trees = spans.size();
    out.first_check_ = trees;
    if (!unit_leaves || trees > kMaxRetireTrees) return;
    out.retire_margin_.assign(trees, 0.0);
    double slack = 0.0;
    for (std::size_t k = trees; k-- > 0;) {
      out.retire_margin_[k] = slack + kRetireGuard;
      slack += spans[k];
    }
    double walked = 0.0;
    for (std::size_t k = 0; k < trees; ++k) {
      walked += spans[k];
      if (walked > out.retire_margin_[k]) {
        out.first_check_ = k;
        break;
      }
    }
  }
};

CompiledForest::CompiledForest(const RandomForest& forest) {
  if (forest.tree_count() == 0)
    throw std::logic_error("CompiledForest: compile before fit");
  num_classes_ = forest.num_classes();
  if (num_classes_ == 0)
    throw std::logic_error("CompiledForest: forest has no classes");
  // fit and parse() give every tree the forest's class count and width.
  num_features_ = forest.trees().front().num_features();
  Builder builder(*this, forest.tree_count());
  for (const DecisionTree& tree : forest.trees())
    builder.add_tree(tree.nodes(), [](const DecisionTree::Node& leaf) {
      return leaf.distribution.data();
    });
  builder.finish();
}

CompiledForest CompiledForest::parse(std::string_view text,
                                     RandomForestParams& header) {
  TextReader in(text, "RandomForest");
  in.expect("forest");
  const std::size_t trees = in.count();
  CompiledForest out;
  out.num_classes_ = in.count();
  header.n_trees = in.integer<std::size_t>();
  header.max_depth = in.integer<std::size_t>();
  header.min_samples_split = in.integer<std::size_t>();
  header.min_samples_leaf = in.integer<std::size_t>();
  header.max_features = in.integer<std::size_t>();
  const auto bootstrap = in.integer<unsigned>();
  if (bootstrap > 1) in.fail("bootstrap flag is not 0 or 1");
  header.bootstrap = bootstrap == 1;
  header.seed = in.integer<std::uint64_t>();

  Builder builder(out, trees);
  // One tree at a time: its nodes (a leaf's `left` is its ordinal among
  // the tree's leaves, indexing `values`) and each node's parent count.
  // fit() writes preorder, so a valid tree has every child after its
  // parent and every non-root node under exactly one parent; anything else
  // (a cycle, a shared or orphaned subtree) would hang the layout's BFS.
  std::vector<DecisionTree::Node> nodes;
  std::vector<double> values;
  std::vector<std::uint8_t> parents;
  for (std::size_t t = 0; t < trees; ++t) {
    in.expect("tree");
    const std::size_t node_count = in.count();
    const std::size_t classes = in.count();
    const auto width = in.integer<std::size_t>();
    if (node_count > static_cast<std::size_t>(
                         std::numeric_limits<std::int32_t>::max()))
      in.fail("node count outside the int32 child index range");
    nodes.assign(node_count, {});
    values.clear();
    parents.assign(node_count, 0);
    std::int32_t leaves = 0;
    for (std::size_t i = 0; i < node_count; ++i) {
      DecisionTree::Node& n = nodes[i];
      const std::string_view tag = in.token();
      if (tag == "leaf") {
        in.require_room(classes);
        n.left = leaves++;
        for (std::size_t c = 0; c < classes; ++c) values.push_back(in.real());
      } else if (tag == "split") {
        n.feature = in.integer<std::int32_t>();
        n.threshold = in.real();
        n.left = in.integer<std::int32_t>();
        n.right = in.integer<std::int32_t>();
        if (n.feature < 0 || static_cast<std::size_t>(n.feature) >= width)
          in.fail("bad feature index");
        const auto self = static_cast<std::int32_t>(i);
        if (n.left <= self || n.right <= self ||
            static_cast<std::size_t>(n.left) >= node_count ||
            static_cast<std::size_t>(n.right) >= node_count)
          in.fail("bad child index");
        if (++parents[static_cast<std::size_t>(n.left)] > 1 ||
            ++parents[static_cast<std::size_t>(n.right)] > 1)
          in.fail("node has two parents");
      } else {
        in.fail("bad node tag");
      }
    }
    for (std::size_t i = 1; i < node_count; ++i)
      if (parents[i] == 0) in.fail("unreachable node");
    // An empty tree has no root for the walks to start from.
    if (node_count == 0)
      in.fail("tree " + std::to_string(t) + " has no nodes");
    // Every walk sizes its sums by the header's class count: a tree voting
    // over another count would read or write out of bounds.
    if (classes != out.num_classes_)
      in.fail("tree " + std::to_string(t) + " has " + std::to_string(classes) +
              " classes, forest header says " +
              std::to_string(out.num_classes_));
    if (t == 0)
      out.num_features_ = width;
    else if (width != out.num_features_)
      in.fail("tree " + std::to_string(t) +
              " feature width disagrees with tree 0");
    builder.add_tree(nodes, [&](const DecisionTree::Node& leaf) {
      return values.data() + static_cast<std::size_t>(leaf.left) * classes;
    });
  }
  if (trees > 0 && out.num_classes_ == 0) in.fail("forest has no classes");
  in.finish();
  builder.finish();
  return out;
}

RandomForest CompiledForest::reference_forest(
    const RandomForestParams& params) const {
  RandomForest forest(params);
  forest.num_classes_ = num_classes_;
  if (!compiled()) return forest;
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

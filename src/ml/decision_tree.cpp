#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace cgctx::ml {

namespace {

/// Gini impurity from class counts and their total.
double gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

struct BestSplit {
  std::int32_t feature = -1;
  double threshold = 0.0;
  double impurity = std::numeric_limits<double>::infinity();
};

}  // namespace

void DecisionTree::fit(const Dataset& train) {
  std::vector<std::size_t> indices(train.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  fit_on(train, indices);
}

void DecisionTree::fit_on(const Dataset& train,
                          const std::vector<std::size_t>& indices) {
  FitScratch scratch;
  fit_on(train, indices, scratch);
}

void DecisionTree::fit_on(const Dataset& train,
                          const std::vector<std::size_t>& indices,
                          FitScratch& scratch) {
  if (train.empty() || indices.empty())
    throw std::invalid_argument("DecisionTree::fit: empty training set");
  nodes_.clear();
  num_classes_ = train.num_classes();
  num_features_ = train.num_features();
  scratch.work = indices;
  Rng rng(params_.seed);
  build(train, scratch, 0, scratch.work.size(), 0, rng);
}

std::int32_t DecisionTree::build(const Dataset& train, FitScratch& scratch,
                                 std::size_t begin, std::size_t end,
                                 std::size_t depth, Rng& rng) {
  // All scratch buffers are live only until the child recursion at the
  // bottom: children overwrite them freely because a node never reads
  // its histograms or sorted column after choosing its split.
  const std::size_t n = end - begin;
  std::vector<std::size_t>& indices = scratch.work;
  std::vector<double>& counts = scratch.counts;
  counts.assign(num_classes_, 0.0);
  for (std::size_t i = begin; i < end; ++i)
    counts[static_cast<std::size_t>(train.label(indices[i]))] += 1.0;
  const double total = static_cast<double>(n);
  const double node_gini = gini(counts, total);

  auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.distribution.resize(num_classes_);
    for (std::size_t c = 0; c < num_classes_; ++c)
      leaf.distribution[c] = counts[c] / total;
    nodes_.push_back(std::move(leaf));
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const bool depth_capped = params_.max_depth != 0 && depth >= params_.max_depth;
  if (depth_capped || n < params_.min_samples_split || node_gini == 0.0)
    return make_leaf();

  // Choose the candidate feature set for this split. The shuffle always
  // covers the full feature vector (its RNG draws depend on the size),
  // and subsampling takes the first max_features entries — the same
  // candidates the shuffle-then-truncate form produced.
  std::vector<std::size_t>& features = scratch.features;
  features.resize(num_features_);
  std::iota(features.begin(), features.end(), std::size_t{0});
  std::size_t candidate_count = num_features_;
  if (params_.max_features > 0 && params_.max_features < num_features_) {
    shuffle(features, rng);
    candidate_count = params_.max_features;
  }

  // Scan candidate thresholds per feature: sort (value, label) pairs once,
  // then sweep maintaining left-side class counts.
  BestSplit best;
  std::vector<std::pair<double, Label>>& column = scratch.column;
  column.resize(n);
  std::vector<double>& left_counts = scratch.left_counts;
  left_counts.resize(num_classes_);
  for (std::size_t fi = 0; fi < candidate_count; ++fi) {
    const std::size_t f = features[fi];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t row = indices[begin + i];
      column[i] = {train.row(row)[f], train.label(row)};
    }
    std::sort(column.begin(), column.end());
    if (column.front().first == column.back().first) continue;  // constant

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_counts[static_cast<std::size_t>(column[i].second)] += 1.0;
      if (column[i].first == column[i + 1].first) continue;
      const auto n_left = static_cast<double>(i + 1);
      const double n_right = total - n_left;
      if (n_left < static_cast<double>(params_.min_samples_leaf) ||
          n_right < static_cast<double>(params_.min_samples_leaf))
        continue;
      double right_sq = 0.0;
      double left_sq = 0.0;
      for (std::size_t c = 0; c < num_classes_; ++c) {
        left_sq += left_counts[c] * left_counts[c];
        const double rc = counts[c] - left_counts[c];
        right_sq += rc * rc;
      }
      const double weighted =
          (n_left - left_sq / n_left) + (n_right - right_sq / n_right);
      if (weighted < best.impurity) {
        best.impurity = weighted;
        best.feature = static_cast<std::int32_t>(f);
        // Midpoint threshold generalizes better than the left value.
        best.threshold = 0.5 * (column[i].first + column[i + 1].first);
      }
    }
  }

  if (best.feature < 0) return make_leaf();
  // Require an actual impurity decrease (weighted form: total*gini).
  if (best.impurity >= total * node_gini - 1e-12) return make_leaf();

  // Partition indices in place around the split.
  const auto split_feature = static_cast<std::size_t>(best.feature);
  auto middle = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) {
        return train.row(row)[split_feature] <= best.threshold;
      });
  const auto mid =
      static_cast<std::size_t>(middle - indices.begin());
  if (mid == begin || mid == end) return make_leaf();  // numeric edge case

  const std::int32_t node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();  // placeholder; children may reallocate the vector
  const std::int32_t left = build(train, scratch, begin, mid, depth + 1, rng);
  const std::int32_t right = build(train, scratch, mid, end, depth + 1, rng);
  Node& node = nodes_[static_cast<std::size_t>(node_index)];
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

const DecisionTree::Node& DecisionTree::descend(const FeatureRow& row) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: predict before fit");
  if (row.size() != num_features_)
    throw std::invalid_argument("DecisionTree: feature width mismatch");
  const Node* node = &nodes_.front();
  while (!node->is_leaf()) {
    const auto f = static_cast<std::size_t>(node->feature);
    node = &nodes_[static_cast<std::size_t>(row[f] <= node->threshold
                                                ? node->left
                                                : node->right)];
  }
  return *node;
}

Label DecisionTree::predict(const FeatureRow& row) const {
  const auto& dist = descend(row).distribution;
  return static_cast<Label>(std::max_element(dist.begin(), dist.end()) -
                            dist.begin());
}

ClassProbabilities DecisionTree::predict_proba(const FeatureRow& row) const {
  return descend(row).distribution;
}

const ClassProbabilities& DecisionTree::leaf_distribution(
    const FeatureRow& row) const {
  return descend(row).distribution;
}

std::size_t DecisionTree::depth_of(std::int32_t node) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.is_leaf()) return 0;
  return 1 + std::max(depth_of(n.left), depth_of(n.right));
}

std::size_t DecisionTree::depth() const {
  return nodes_.empty() ? 0 : depth_of(0);
}

void DecisionTree::serialize_to(std::ostream& os) const {
  os << "tree " << nodes_.size() << ' ' << num_classes_ << ' ' << num_features_
     << '\n';
  const auto old_precision = os.precision(17);
  for (const Node& n : nodes_) {
    if (n.is_leaf()) {
      os << "leaf";
      for (double d : n.distribution) os << ' ' << d;
      os << '\n';
    } else {
      os << "split " << n.feature << ' ' << n.threshold << ' ' << n.left << ' '
         << n.right << '\n';
    }
  }
  os.precision(old_precision);
}

}  // namespace cgctx::ml

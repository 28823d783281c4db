// CART decision tree (Gini impurity, binary splits on numeric features).
//
// Used standalone and as the base learner of RandomForest. Supports
// per-split random feature subsampling so the forest can decorrelate its
// trees, and exposes leaf class distributions so ensembles can average
// probabilities rather than hard votes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/rng.hpp"

namespace cgctx::ml {

class CompiledForest;

struct DecisionTreeParams {
  /// Maximum tree depth; 0 means unlimited.
  std::size_t max_depth = 0;
  /// A node with fewer samples becomes a leaf.
  std::size_t min_samples_split = 2;
  /// Candidate splits leaving fewer samples on either side are rejected.
  std::size_t min_samples_leaf = 1;
  /// Features examined per split; 0 means all features.
  std::size_t max_features = 0;
  /// Seed for feature subsampling (only consulted when max_features > 0).
  std::uint64_t seed = 1;
};

class DecisionTree final : public Classifier {
 public:
  struct Node {
    // Internal node when right > 0: descend left if x[feature] <= threshold.
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = 0;
    std::int32_t right = 0;
    // Leaf payload: class distribution (normalized counts).
    std::vector<double> distribution;
    [[nodiscard]] bool is_leaf() const { return right == 0; }
  };

  /// Reusable working buffers for one fit. The node recursion hoists all
  /// of its per-node heap state here (class histograms, the candidate
  /// feature order, the sorted split-scan column, the mutable index
  /// copy), so building a tree allocates only the output nodes once the
  /// scratch is warm. RandomForest keeps one per worker and reuses it
  /// across the trees that worker fits.
  struct FitScratch {
    std::vector<std::size_t> work;
    std::vector<double> counts;
    std::vector<double> left_counts;
    std::vector<std::size_t> features;
    std::vector<std::pair<double, Label>> column;
  };

  explicit DecisionTree(DecisionTreeParams params = {}) : params_(params) {}

  void fit(const Dataset& train) override;

  /// Trains on a subset of rows (used for bootstrap samples). Indices may
  /// repeat. The dataset supplies widths and class count.
  void fit_on(const Dataset& train, const std::vector<std::size_t>& indices);

  /// As above, building through caller-owned scratch (reused across
  /// fits). The fitted tree is identical; only allocations differ.
  void fit_on(const Dataset& train, const std::vector<std::size_t>& indices,
              FitScratch& scratch);

  [[nodiscard]] Label predict(const FeatureRow& row) const override;
  [[nodiscard]] ClassProbabilities predict_proba(
      const FeatureRow& row) const override;

  /// The leaf distribution the row descends to, by const reference — the
  /// internal no-copy path RandomForest accumulates from (predict_proba
  /// copies it at the API boundary).
  [[nodiscard]] const ClassProbabilities& leaf_distribution(
      const FeatureRow& row) const;

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] const DecisionTreeParams& params() const { return params_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] std::size_t num_features() const { return num_features_; }
  /// Fitted node storage (node 0 is the root; a split's left child is
  /// always the next node). Read by ml::CompiledForest.
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  /// Writes one of RandomForest::serialize()'s trees. A tree has no
  /// parser of its own: forest text loads through CompiledForest::parse.
  void serialize_to(std::ostream& os) const;

 private:
  // CompiledForest::reference_forest rebuilds a tree in place.
  friend class CompiledForest;

  std::int32_t build(const Dataset& train, FitScratch& scratch,
                     std::size_t begin, std::size_t end, std::size_t depth,
                     Rng& rng);
  [[nodiscard]] const Node& descend(const FeatureRow& row) const;
  [[nodiscard]] std::size_t depth_of(std::int32_t node) const;

  DecisionTreeParams params_;
  std::vector<Node> nodes_;
  std::size_t num_classes_ = 0;
  std::size_t num_features_ = 0;
};

}  // namespace cgctx::ml

// Random Forest classifier (Breiman 2001).
//
// This is the model the paper selects for both of its classification
// tasks: game titles (500 trees, depth 10 — §C.1) and gameplay activity
// patterns (100 trees, depth 10 — §C.2). Confidence is the averaged
// per-tree class probability of the winning class, which the paper
// thresholds (<40% -> "unknown" title; >=75% -> emit pattern inference).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_pool.hpp"
#include "ml/classifier.hpp"
#include "ml/decision_tree.hpp"

namespace cgctx::ml {

class CompiledForest;

struct RandomForestParams {
  std::size_t n_trees = 100;
  std::size_t max_depth = 10;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Features per split; 0 means floor(sqrt(num_features)).
  std::size_t max_features = 0;
  /// Draw bootstrap samples (with replacement) per tree.
  bool bootstrap = true;
  std::uint64_t seed = 42;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestParams params = {}) : params_(params) {}

  /// Fits on the process-wide training pool (core::ThreadPool::training).
  void fit(const Dataset& train) override;
  /// Fits trees on `pool`. Deterministic at any worker count: every
  /// per-tree bootstrap sample and tree seed is pre-drawn serially from
  /// the forest RNG in the exact stream order the serial loop used, trees
  /// fit into pre-sized slots, and OOB votes accumulate per row in fixed
  /// tree order — the serialized model and oob_score() are byte-identical
  /// whether `pool` has 1 worker or 64.
  void fit(const Dataset& train, core::ThreadPool& pool);
  [[nodiscard]] Label predict(const FeatureRow& row) const override;
  [[nodiscard]] ClassProbabilities predict_proba(
      const FeatureRow& row) const override;
  /// Allocation-free: accumulates every tree's leaf distribution straight
  /// into `out` (size must equal num_classes()).
  void predict_proba_into(const FeatureRow& row,
                          std::span<double> out) const override;

  [[nodiscard]] const RandomForestParams& params() const { return params_; }
  [[nodiscard]] std::size_t tree_count() const { return trees_.size(); }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  /// Fitted trees in vote order. Read by ml::CompiledForest.
  [[nodiscard]] const std::vector<DecisionTree>& trees() const {
    return trees_;
  }

  /// Out-of-bag accuracy estimate computed during fit (rows never drawn
  /// into a tree's bootstrap vote on that tree). NaN when bootstrap=false
  /// or some row was in every bag.
  [[nodiscard]] double oob_score() const { return oob_score_; }

  /// Round-trippable text form (params + every tree).
  [[nodiscard]] std::string serialize() const;
  /// CompiledForest::parse, then its exact inverse: each tree comes back
  /// in left-first preorder, as fit writes it. Throws
  /// std::invalid_argument on anything but serialize()'s form.
  static RandomForest deserialize(std::string_view text);

 private:
  // CompiledForest::reference_forest rebuilds a forest in place.
  friend class CompiledForest;

  RandomForestParams params_;
  std::vector<DecisionTree> trees_;
  std::size_t num_classes_ = 0;
  double oob_score_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace cgctx::ml

#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "ml/compiled_forest.hpp"

namespace cgctx::ml {

void RandomForest::fit(const Dataset& train) {
  fit(train, core::ThreadPool::training());
}

void RandomForest::fit(const Dataset& train, core::ThreadPool& pool) {
  if (train.empty())
    throw std::invalid_argument("RandomForest::fit: empty training set");
  if (params_.n_trees == 0)
    throw std::invalid_argument("RandomForest::fit: n_trees must be > 0");
  num_classes_ = train.num_classes();
  const std::size_t n = train.size();
  const std::size_t n_trees = params_.n_trees;
  trees_.clear();
  trees_.resize(n_trees);

  const std::size_t max_features =
      params_.max_features != 0
          ? params_.max_features
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::sqrt(static_cast<double>(train.num_features()))));

  // Serial pre-draw, consuming the forest RNG in exactly the order the
  // serial loop did (per tree: n bootstrap draws, then the tree seed), so
  // the fitted model is byte-identical at any worker count. Workers
  // re-draw their tree's bootstrap sample from a snapshot of the RNG
  // state instead of storing n indices per tree.
  Rng rng(params_.seed);
  std::vector<Rng> sample_rng;
  std::vector<std::uint64_t> tree_seeds(n_trees);
  if (params_.bootstrap) {
    sample_rng.reserve(n_trees);
    for (std::size_t t = 0; t < n_trees; ++t) {
      sample_rng.push_back(rng);
      for (std::size_t i = 0; i < n; ++i) (void)rng.next_below(n);
      tree_seeds[t] = rng.next_u64();
    }
  } else {
    for (std::size_t t = 0; t < n_trees; ++t) tree_seeds[t] = rng.next_u64();
  }

  // Per-(tree, row) in-bag flags for the OOB pass. Whole bytes, one
  // disjoint region per tree, so concurrent writers never share a word.
  std::vector<std::uint8_t> in_bag;
  if (params_.bootstrap) in_bag.assign(n_trees * n, 0);

  const std::size_t tree_grain =
      std::max<std::size_t>(1, n_trees / (pool.size() * 4));
  pool.parallel_chunks(
      0, n_trees, tree_grain, [&](std::size_t begin, std::size_t end) {
        // One sample buffer + tree scratch per chunk, reused across its
        // trees.
        std::vector<std::size_t> sample(n);
        if (!params_.bootstrap)
          std::iota(sample.begin(), sample.end(), std::size_t{0});
        DecisionTree::FitScratch scratch;
        for (std::size_t t = begin; t < end; ++t) {
          if (params_.bootstrap) {
            Rng draw = sample_rng[t];
            std::uint8_t* bag = in_bag.data() + t * n;
            for (std::size_t i = 0; i < n; ++i) {
              sample[i] = static_cast<std::size_t>(draw.next_below(n));
              bag[sample[i]] = 1;
            }
          }
          DecisionTreeParams tree_params;
          tree_params.max_depth = params_.max_depth;
          tree_params.min_samples_split = params_.min_samples_split;
          tree_params.min_samples_leaf = params_.min_samples_leaf;
          tree_params.max_features = max_features;
          tree_params.seed = tree_seeds[t];
          DecisionTree tree(tree_params);
          tree.fit_on(train, sample, scratch);
          trees_[t] = std::move(tree);
        }
      });

  if (params_.bootstrap) {
    // OOB accumulation parallelizes over rows, not trees: each row's
    // votes sum in ascending tree order, which is the exact addition
    // order of the serial loop — bitwise-identical argmax and score.
    std::vector<std::uint8_t> evaluated(n, 0);
    std::vector<std::uint8_t> correct(n, 0);
    pool.parallel_chunks(
        0, n, std::max<std::size_t>(1, n / (pool.size() * 8)),
        [&](std::size_t begin, std::size_t end) {
          std::vector<double> votes(num_classes_);
          for (std::size_t i = begin; i < end; ++i) {
            std::fill(votes.begin(), votes.end(), 0.0);
            bool any = false;
            for (std::size_t t = 0; t < n_trees; ++t) {
              if (in_bag[t * n + i]) continue;
              const ClassProbabilities& p =
                  trees_[t].leaf_distribution(train.row(i));
              for (std::size_t c = 0; c < num_classes_; ++c) votes[c] += p[c];
              any = true;
            }
            if (!any) continue;  // row was in every bag
            evaluated[i] = 1;
            const auto best = std::max_element(votes.begin(), votes.end());
            correct[i] = static_cast<Label>(best - votes.begin()) ==
                         train.label(i);
          }
        });
    std::size_t evaluated_rows = 0;
    std::size_t correct_rows = 0;
    for (std::size_t i = 0; i < n; ++i) {
      evaluated_rows += evaluated[i];
      correct_rows += correct[i];
    }
    oob_score_ = evaluated_rows == 0
                     ? std::numeric_limits<double>::quiet_NaN()
                     : static_cast<double>(correct_rows) /
                           static_cast<double>(evaluated_rows);
  }
}

void RandomForest::predict_proba_into(const FeatureRow& row,
                                      std::span<double> out) const {
  if (trees_.empty())
    throw std::logic_error("RandomForest: predict before fit");
  if (out.size() != num_classes_)
    throw std::invalid_argument(
        "RandomForest::predict_proba_into: output span size mismatch");
  std::fill(out.begin(), out.end(), 0.0);
  for (const DecisionTree& tree : trees_) {
    const ClassProbabilities& p = tree.leaf_distribution(row);
    for (std::size_t c = 0; c < num_classes_; ++c) out[c] += p[c];
  }
  const auto k = static_cast<double>(trees_.size());
  for (double& p : out) p /= k;
}

ClassProbabilities RandomForest::predict_proba(const FeatureRow& row) const {
  ClassProbabilities probs(num_classes_, 0.0);
  predict_proba_into(row, probs);
  return probs;
}

Label RandomForest::predict(const FeatureRow& row) const {
  const ClassProbabilities probs = predict_proba(row);
  return static_cast<Label>(std::max_element(probs.begin(), probs.end()) -
                            probs.begin());
}

std::string RandomForest::serialize() const {
  std::ostringstream os;
  os << "forest " << trees_.size() << ' ' << num_classes_ << '\n';
  os << params_.n_trees << ' ' << params_.max_depth << ' '
     << params_.min_samples_split << ' ' << params_.min_samples_leaf << ' '
     << params_.max_features << ' ' << (params_.bootstrap ? 1 : 0) << ' '
     << params_.seed << '\n';
  for (const DecisionTree& tree : trees_) tree.serialize_to(os);
  return os.str();
}

RandomForest RandomForest::deserialize(std::string_view text) {
  RandomForestParams header;
  return CompiledForest::parse(text, header).reference_forest(header);
}

}  // namespace cgctx::ml

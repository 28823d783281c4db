// Stage-transition modeling and gameplay-activity-pattern inference
// (paper §4.3.2).
//
// As slots are classified, a 3x3 matrix accumulates the per-slot stage
// transitions (including self-retention). Normalized to probabilities,
// its nine cells are the attribute vector of a Random Forest that infers
// whether the session follows the continuous-play or spectate-and-play
// gameplay activity pattern. The inference is emitted once the model's
// confidence clears a threshold (75% balances accuracy against
// time-to-result, §4.4.2).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "ml/compiled_forest.hpp"
#include "ml/random_forest.hpp"

namespace cgctx::core {

/// Pattern label indices used by the inference datasets.
inline constexpr ml::Label kPatternContinuous = 0;
inline constexpr ml::Label kPatternSpectate = 1;
inline constexpr std::size_t kNumPatternLabels = 2;

std::vector<std::string> pattern_class_names();

inline constexpr std::size_t kNumTransitionAttributes = 9;

/// Names of the 9 transition attributes ("active->idle" etc.), in
/// feature-vector order (row = from, column = to; stage order
/// active, passive, idle).
std::vector<std::string> transition_attribute_names();

/// Accumulates per-slot stage transitions for one session.
class TransitionTracker {
 public:
  /// Feeds the stage classified for the next slot (labels as in
  /// stage_classifier.hpp). The first call only sets the starting state.
  void push(ml::Label stage);

  void reset();

  /// Transitions recorded so far (pushes minus one, once started).
  [[nodiscard]] std::size_t transition_count() const { return total_; }

  /// The 9 matrix cells normalized to probabilities over all recorded
  /// transitions (sums to 1; all zeros before any transition).
  [[nodiscard]] ml::FeatureRow probabilities() const;

  /// Allocation-free variant: writes the 9 cells into `out`, whose size
  /// must be kNumTransitionAttributes.
  void probabilities_into(std::span<double> out) const;

  /// Raw counts (row-major, from-stage major).
  [[nodiscard]] const std::array<std::uint64_t, kNumTransitionAttributes>&
  counts() const {
    return counts_;
  }

 private:
  std::array<std::uint64_t, kNumTransitionAttributes> counts_{};
  std::size_t total_ = 0;
  ml::Label previous_ = -1;
};

struct PatternInferrerParams {
  ml::RandomForestParams forest{
      .n_trees = 100, .max_depth = 10, .min_samples_split = 2,
      .min_samples_leaf = 1, .max_features = 0, .bootstrap = true,
      .seed = 0xAC71Fu};
  /// Inference is emitted once confidence reaches this level (paper: 0.75).
  double confidence_threshold = 0.75;
  /// Minimum observed transitions (= slots) before inference is
  /// attempted; two minutes keeps the decision out of the launch window,
  /// matching the paper's ~5-minute average time-to-confident-result.
  std::size_t min_transitions = 120;
};

struct PatternResult {
  ml::Label label = -1;  ///< kPatternContinuous or kPatternSpectate
  double confidence = 0.0;

  friend bool operator==(const PatternResult&, const PatternResult&) = default;
};

class PatternInferrer {
 public:
  explicit PatternInferrer(PatternInferrerParams params = {})
      : params_(params) {}

  /// Trains on a dataset of 9-attribute transition-probability rows
  /// labeled with pattern indices.
  void train(const ml::Dataset& data);

  /// Attempts a confident inference from the tracker's current state;
  /// nullopt while below the transition floor or confidence threshold.
  [[nodiscard]] std::optional<PatternResult> infer(
      const TransitionTracker& tracker) const;

  /// Whether `tracker` has recorded the min_transitions floor infer()
  /// needs before it tries the forest. Monotone over a session.
  [[nodiscard]] bool ready(const TransitionTracker& tracker) const {
    return tracker.transition_count() >= params_.min_transitions;
  }

  /// Unconditional prediction (used at end of session as a last resort
  /// and by evaluation benches).
  [[nodiscard]] PatternResult infer_unchecked(
      const TransitionTracker& tracker) const;

  /// Allocation-free variants: `scratch` (size scratch_size()) is the
  /// probability accumulation buffer, reusable across calls.
  [[nodiscard]] std::optional<PatternResult> infer(
      const TransitionTracker& tracker, std::span<double> scratch) const;
  [[nodiscard]] PatternResult infer_unchecked(
      const TransitionTracker& tracker, std::span<double> scratch) const;

  /// Batch form of infer over n ready() trackers, allocation-free: `rows`
  /// holds their probabilities_into() rows back to back, `scratch` is
  /// n x scratch_size(), and `out` (size n) receives each row's inference,
  /// nullopt below the confidence threshold. Batches of
  /// ml::CompiledForest::kWalkGroup rows or more walk the forest
  /// tree-major.
  void infer_rows(std::span<const double> rows, std::span<double> scratch,
                  std::span<std::optional<PatternResult>> out) const;

  /// Scratch doubles infer needs (= the class count; 0 until trained).
  [[nodiscard]] std::size_t scratch_size() const {
    return compiled_.num_classes();
  }

  /// Rebuilt from the compiled forest on every call (the classifier
  /// keeps no other); for serialize(), evaluation and benches.
  [[nodiscard]] ml::RandomForest reference_forest() const {
    return compiled_.reference_forest(params_.forest);
  }
  /// The compiled engine inference routes through (built by train() and
  /// deserialize()).
  [[nodiscard]] const ml::CompiledForest& compiled() const {
    return compiled_;
  }
  [[nodiscard]] const PatternInferrerParams& params() const { return params_; }

  [[nodiscard]] std::string serialize() const;
  /// Parses serialize()'s form: the forest is read straight off `text`
  /// (no copy), compiled and dropped, and its header becomes
  /// params().forest. Throws std::invalid_argument on anything else.
  static PatternInferrer deserialize(std::string_view text);

 private:
  PatternInferrerParams params_;
  ml::CompiledForest compiled_;
};

}  // namespace cgctx::core

// Reproduces paper Table 5: permutation importance of the nine
// stage-transition attributes in the best-performing Random Forest
// pattern classifier, printed as the 3x3 from/to matrix.
#include <cstdio>

#include "common/bench_support.hpp"
#include "core/training.hpp"
#include "ml/importance.hpp"
#include "ml/metrics.hpp"

using namespace cgctx;

int main() {
  std::puts("== Table 5: transition-attribute importance ==\n");
  const core::ModelSuite& suite = bench::bench_models();

  sim::LabPlanOptions plan;
  plan.seed = 50505;
  plan.scale = 1.0;
  plan.gameplay_seconds = 900.0;
  const auto specs = sim::lab_session_plan(plan);
  const ml::Dataset data = core::build_pattern_dataset(
      specs, suite.stage, {}, /*include_prefix_horizons=*/false);

  ml::Rng rng(55);
  const auto split = ml::stratified_split(data, 0.3, rng);
  core::PatternInferrer inferrer;
  inferrer.train(split.train);
  const ml::RandomForest forest = inferrer.reference_forest();
  std::printf("pattern accuracy on held-out sessions: %.1f%%\n\n",
              100 * forest.score(split.test));

  const auto result =
      ml::permutation_importance(forest, split.test, 10, rng);

  const char* kStages[] = {"Active", "Passive", "Idle"};
  std::printf("%10s", "From \\ To");
  for (const char* s : kStages) std::printf(" %9s", s);
  std::putchar('\n');
  for (std::size_t from = 0; from < 3; ++from) {
    std::printf("%10s", kStages[from]);
    for (std::size_t to = 0; to < 3; ++to)
      std::printf(" %9.3f",
                  std::max(0.0, result.mean_drop[from * 3 + to]));
    std::putchar('\n');
  }

  std::puts("\nShape check (paper Table 5): every cell carries some"
            " predictive power; transitions out of the active stage"
            " (especially active->idle) and passive->idle are the most"
            " important discriminators between the two patterns.");
  return 0;
}

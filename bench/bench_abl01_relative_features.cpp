// Ablation (DESIGN.md §5): the paper's stage attributes are peak-relative
// and EMA-smoothed. This bench quantifies what each design choice buys by
// training the stage classifier with (a) the full design, (b) EMA
// disabled, (c) absolute instead of peak-relative values, and (d) both
// off. Evaluation holds out ENTIRE sessions (not rows), so absolute
// features cannot cheat by memorizing a session's traffic level — the
// honest deployment setting, where unseen titles/settings/paths produce
// absolute levels never seen in training.
#include <cstdio>

#include "core/training.hpp"
#include "ml/metrics.hpp"

using namespace cgctx;

int main() {
  std::puts("== Ablation: peak-relative + EMA stage attributes ==");
  std::puts("(held-out evaluation at session granularity)\n");

  sim::LabPlanOptions train_plan;
  train_plan.seed = 212121;
  train_plan.scale = 0.3;
  train_plan.gameplay_seconds = 240.0;
  const auto train_specs = sim::lab_session_plan(train_plan);
  sim::LabPlanOptions test_plan = train_plan;
  test_plan.seed = 434343;  // disjoint sessions, same config coverage
  test_plan.scale = 0.15;
  const auto test_specs = sim::lab_session_plan(test_plan);

  struct Variant {
    const char* name;
    bool relative;
    bool ema;
  };
  const Variant kVariants[] = {
      {"relative + EMA (paper design)", true, true},
      {"relative, no EMA", true, false},
      {"absolute + EMA", false, true},
      {"absolute, no EMA", false, false},
  };

  std::printf("%-32s %8s %8s %8s %8s\n", "variant", "overall", "active",
              "passive", "idle");
  for (const Variant& variant : kVariants) {
    core::VolumetricTrackerParams params;
    params.relative_to_peak = variant.relative;
    params.enable_ema = variant.ema;
    const ml::Dataset train = core::build_stage_dataset(train_specs, params);
    const ml::Dataset test = core::build_stage_dataset(test_specs, params);
    core::StageClassifier classifier;
    classifier.train(train);
    const auto cm = ml::evaluate(classifier.reference_forest(), test);
    std::printf("%-32s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", variant.name,
                100 * cm.accuracy(),
                100 * cm.per_class_accuracy(core::kStageActive),
                100 * cm.per_class_accuracy(core::kStagePassive),
                100 * cm.per_class_accuracy(core::kStageIdle));
  }

  std::puts("\nShape check: peak-relative normalization is the load-bearing"
            " choice — absolute volumetric levels do not transfer across"
            " titles and streaming settings; EMA adds robustness to"
            " short contradictory bursts, mostly visible in the passive"
            " class.");
  return 0;
}

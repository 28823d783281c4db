#include "core/model_suite.hpp"

#include <algorithm>

#include "ml/metrics.hpp"

namespace cgctx::core {

ModelSuite train_model_suite(const TrainingBudget& budget,
                             double* title_accuracy, double* stage_accuracy,
                             double* pattern_accuracy) {
  ModelSuite suite;
  ml::Rng rng(budget.seed);

  // --- Title classifier: launch windows need packet fidelity but only a
  // short gameplay tail.
  {
    sim::LabPlanOptions plan_options;
    plan_options.seed = rng.next_u64();
    plan_options.scale = budget.lab_scale;
    plan_options.gameplay_seconds = 10.0;
    const auto specs = sim::lab_session_plan(plan_options);
    TitleDatasetOptions dataset_options;
    dataset_options.augment_copies = budget.augment_copies;
    dataset_options.augment_seed = rng.next_u64();
    const ml::Dataset data = build_title_dataset(specs, dataset_options);
    auto split = ml::stratified_split(data, 0.25, rng);
    suite.title.train(split.train);
    if (title_accuracy != nullptr)
      *title_accuracy =
          ml::evaluate(suite.title.reference_forest(), split.test).accuracy();
  }

  // --- Stage classifier + pattern inferrer: slot fidelity, longer
  // gameplay so every stage and transition is represented.
  {
    sim::LabPlanOptions plan_options;
    plan_options.seed = rng.next_u64();
    plan_options.scale = budget.lab_scale;
    plan_options.gameplay_seconds = budget.gameplay_seconds;
    const auto specs = sim::lab_session_plan(plan_options);

    const ml::Dataset stage_data = build_stage_dataset(specs);
    auto stage_split = ml::stratified_split(stage_data, 0.25, rng);
    suite.stage.train(stage_split.train);
    if (stage_accuracy != nullptr)
      *stage_accuracy =
          ml::evaluate(suite.stage.reference_forest(), stage_split.test)
              .accuracy();

    // Pattern dataset runs the *trained* stage classifier over separate
    // sessions with much longer gameplay: transition statistics need to
    // be collected at the horizon the deployment observes (the paper's
    // field sessions run tens of minutes).
    sim::LabPlanOptions pattern_plan = plan_options;
    pattern_plan.seed = rng.next_u64();
    pattern_plan.gameplay_seconds = std::max(1500.0, budget.gameplay_seconds * 4.0);
    // Each session yields a single pattern row, so this dataset needs more
    // sessions than the per-slot stage dataset does examples.
    pattern_plan.scale = std::max(budget.lab_scale, 0.3);
    const auto pattern_specs = sim::lab_session_plan(pattern_plan);
    const ml::Dataset pattern_data =
        build_pattern_dataset(pattern_specs, suite.stage);
    auto pattern_split = ml::stratified_split(pattern_data, 0.25, rng);
    suite.pattern.train(pattern_split.train);
    if (pattern_accuracy != nullptr)
      *pattern_accuracy =
          ml::evaluate(suite.pattern.reference_forest(), pattern_split.test)
              .accuracy();
  }

  return suite;
}

PipelineParams default_pipeline_params() {
  PipelineParams params;
  for (const sim::GameInfo& game : sim::popular_titles())
    params.title_demand_mbps[game.name] = game.peak_demand_mbps;
  return params;
}

}  // namespace cgctx::core

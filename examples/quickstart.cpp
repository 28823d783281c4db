// Quickstart: train the three context models on a synthetic lab
// collection, generate one unseen cloud-gaming session, and run the full
// real-time pipeline over it — title classification from the first five
// seconds of launch traffic, continuous player-activity-stage tracking,
// gameplay-activity-pattern inference, and objective vs effective QoE.
//
//   ./quickstart [seed]
#include <cstdio>
#include <cstdlib>

#include "core/model_suite.hpp"
#include "core/slot_history.hpp"

using namespace cgctx;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2028;

  std::puts("== cgctx quickstart ==");
  std::puts("[1/3] Training models on a synthetic lab collection...");
  core::TrainingBudget budget;
  budget.lab_scale = 0.4;
  budget.gameplay_seconds = 150.0;
  budget.augment_copies = 2;
  double title_acc = 0.0;
  double stage_acc = 0.0;
  double pattern_acc = 0.0;
  const core::ModelSuite suite =
      core::train_model_suite(budget, &title_acc, &stage_acc, &pattern_acc);
  std::printf("    held-out accuracy: title %.1f%%  stage %.1f%%  pattern %.1f%%\n",
              100 * title_acc, 100 * stage_acc, 100 * pattern_acc);

  std::puts("[2/3] Generating an unseen CS:GO session (10 min gameplay)...");
  sim::SessionGenerator generator;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kCsgo;
  spec.gameplay_seconds = 600.0;
  spec.seed = seed;
  const sim::LabeledSession session = generator.generate_slots_only(spec);
  std::printf("    %s | peak %.1f Mbps | %.1f min total\n",
              spec.config.describe().c_str(), session.peak_down_mbps,
              session.duration_seconds() / 60.0);

  std::puts("[3/3] Running the real-time pipeline...");
  // The report holds session aggregates; the per-slot records come
  // through the pipeline's slot hook, collected here.
  core::SlotHistory history;
  core::RealtimePipeline pipeline(suite.models(),
                                  core::default_pipeline_params());
  pipeline.set_slot_hook(history.hook());
  const core::SessionReport report = pipeline.process_session(session);
  const std::vector<core::SlotRecord> slots =
      history.sessions().empty() ? std::vector<core::SlotRecord>{}
                                 : history.sessions().begin()->second;

  std::printf("\n  game title    : %s (confidence %.0f%%)\n",
              report.title.label ? report.title.class_name.c_str()
                                 : "unknown",
              100 * report.title.confidence);
  if (report.pattern) {
    std::printf("  activity type : %s (confidence %.0f%%, decided %.0fs in)\n",
                core::pattern_class_names()[static_cast<std::size_t>(
                                                report.pattern->label)]
                    .c_str(),
                100 * report.pattern->confidence, report.pattern_decided_at_s);
  }
  std::printf("  stage minutes : active %.1f | passive %.1f | idle %.1f\n",
              report.stage_seconds[0] / 60.0, report.stage_seconds[1] / 60.0,
              report.stage_seconds[2] / 60.0);
  std::printf("  mean downlink : %.1f Mbps\n", report.mean_down_mbps);
  std::printf("  QoE           : objective=%s  effective=%s\n",
              core::to_string(report.objective_session),
              core::to_string(report.effective_session));

  // Show the headline correction: why the two QoE labels can differ.
  std::size_t corrected = 0;
  for (const core::SlotRecord& slot : slots)
    if (slot.effective > slot.objective) ++corrected;
  std::printf(
      "  %zu of %zu slots were objectively 'degraded' but effectively fine\n"
      "  (idle/passive stages legitimately need less bandwidth & frame rate).\n",
      corrected, slots.size());
  return 0;
}

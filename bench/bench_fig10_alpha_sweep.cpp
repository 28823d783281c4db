// Reproduces paper Fig. 10: player-activity-stage classification accuracy
// as a function of the EMA current-slot weight alpha (0.1-1.0) and the
// classification slot size I (0.1 / 0.5 / 1 / 2 s). Sessions are rendered
// at packet fidelity once; the raw slot series for each I is cached and
// re-processed per alpha.
#include <cstdio>
#include <map>

#include "core/training.hpp"
#include "ml/metrics.hpp"

using namespace cgctx;

namespace {

const double kSlotSizes[] = {0.1, 0.5, 1.0, 2.0};
const double kAlphas[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

/// Raw per-slot volumetrics plus ground-truth labels for one session at
/// one slot size.
struct RawSeries {
  std::vector<core::RawSlotVolumetrics> slots;
  std::vector<ml::Label> labels;  ///< -1 = launch (prime tracker, no row)
};

ml::Label label_of(const sim::LabeledSession& session, net::Timestamp mid) {
  if (session.in_launch(mid) || mid >= session.end) return -1;
  return static_cast<ml::Label>(session.stage_label_at(mid));
}

}  // namespace

int main() {
  std::puts("== Fig. 10: stage accuracy vs EMA weight alpha and slot I ==\n");

  sim::LabPlanOptions plan;
  plan.seed = 1010;
  plan.scale = 0.12;
  plan.gameplay_seconds = 130.0;
  const auto specs = sim::lab_session_plan(plan);

  // Phase 1: render once, cache raw slot series per slot size.
  std::map<double, std::vector<RawSeries>> series;
  core::for_each_rendered_session(specs, [&](const sim::LabeledSession& s) {
    for (double slot_s : kSlotSizes) {
      const auto slot_duration = net::duration_from_seconds(slot_s);
      const auto slot_count = static_cast<std::size_t>(
          (s.end - s.launch_begin) / slot_duration);
      RawSeries raw;
      raw.slots = core::aggregate_slots(s.packets, s.launch_begin,
                                        slot_duration, slot_count);
      raw.labels.reserve(slot_count);
      for (std::size_t i = 0; i < slot_count; ++i) {
        const net::Timestamp mid = s.launch_begin +
                                   static_cast<net::Timestamp>(i) *
                                       slot_duration +
                                   slot_duration / 2;
        raw.labels.push_back(label_of(s, mid));
      }
      series[slot_s].push_back(std::move(raw));
    }
  });

  // Phase 2: per (I, alpha), run trackers, train, evaluate.
  std::printf("%9s", "alpha \\ I");
  for (double slot_s : kSlotSizes) std::printf(" %7.1fs", slot_s);
  std::putchar('\n');
  for (double alpha : kAlphas) {
    std::printf("%9.1f", alpha);
    for (double slot_s : kSlotSizes) {
      core::VolumetricTrackerParams tracker_params;
      tracker_params.slot_seconds = slot_s;
      tracker_params.alpha = alpha;
      ml::Dataset data(core::volumetric_attribute_names(),
                       core::stage_class_names());
      // Sub-second slots generate 10x the rows; train on a stride so the
      // sweep stays fast (the tracker still processes every slot).
      const std::size_t stride = slot_s < 0.3 ? 5 : slot_s < 0.8 ? 2 : 1;
      for (const RawSeries& raw : series[slot_s]) {
        core::VolumetricTracker tracker(tracker_params);
        for (std::size_t i = 0; i < raw.slots.size(); ++i) {
          const ml::FeatureRow attrs = tracker.push(raw.slots[i]);
          if (raw.labels[i] >= 0 && i % stride == 0)
            data.add(attrs, raw.labels[i]);
        }
      }
      ml::Rng rng(3);
      const auto split = ml::stratified_split(data, 0.3, rng);
      core::StageClassifierParams classifier_params;
      classifier_params.forest.n_trees = 60;  // sweep-sized forest
      core::StageClassifier classifier(classifier_params);
      classifier.train(split.train);
      std::printf("  %6.1f%%",
                  100 * classifier.reference_forest().score(split.test));
    }
    std::putchar('\n');
  }

  std::puts("\nShape check (paper): the 1 s slot performs best (0.1 s is"
            " too granular, 2 s mixes stages); accuracy peaks for alpha"
            " around 0.5-0.6 and degrades toward both extremes.");
  return 0;
}

// Reproduces paper Fig. 8: game-title classification accuracy as a
// function of the observation window N (1-60 s) and the time-slot size T
// (0.1 / 0.5 / 1 / 2 s), for five representative game titles. Sessions
// are rendered once; all (N, T) feature variants are extracted from the
// same packet streams.
#include <cstdio>
#include <map>

#include "core/training.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

using namespace cgctx;

namespace {

// One representative title per genre, as the paper sweeps five titles.
const sim::GameTitle kTitles[] = {
    sim::GameTitle::kFortnite, sim::GameTitle::kGenshinImpact,
    sim::GameTitle::kRocketLeague, sim::GameTitle::kDota2,
    sim::GameTitle::kHearthstone};

const double kWindows[] = {1, 2, 3, 5, 10, 20, 40, 60};
const double kSlots[] = {0.1, 0.5, 1.0, 2.0};

/// A slot longer than the window is not a launch window
/// (core::validate rejects it): that cell prints "-".
bool has_cell(double n_window, double t_slot) { return t_slot <= n_window; }

}  // namespace

int main() {
  std::puts("== Fig. 8: title accuracy vs window N and slot T ==");
  std::puts("(five representative titles, one per genre)\n");

  // Build the session list: the lab plan filtered to the five titles,
  // with a gameplay tail long enough to fill the 60 s window even for the
  // shortest launch animation.
  sim::LabPlanOptions plan;
  plan.seed = 808;
  plan.scale = 1.0;
  plan.gameplay_seconds = 35.0;
  std::vector<sim::SessionSpec> specs;
  for (sim::SessionSpec& spec : sim::lab_session_plan(plan)) {
    for (std::size_t t = 0; t < std::size(kTitles); ++t) {
      if (spec.title == kTitles[t]) {
        // Relabel classes 0..4 by remapping later; keep the spec.
        specs.push_back(spec);
        break;
      }
    }
  }

  // Extract every (N, T) feature set in one rendering pass.
  std::map<std::pair<double, double>, ml::Dataset> datasets;
  std::vector<std::string> class_names;
  for (sim::GameTitle t : kTitles) class_names.push_back(sim::to_string(t));
  for (double t_slot : kSlots)
    for (double n_window : kWindows)
      if (has_cell(n_window, t_slot))
        datasets.emplace(std::make_pair(t_slot, n_window),
                         ml::Dataset(core::launch_attribute_names(), class_names));

  core::for_each_rendered_session(
      specs, [&](const sim::LabeledSession& session) {
        ml::Label label = 0;
        for (std::size_t t = 0; t < std::size(kTitles); ++t)
          if (session.spec.title == kTitles[t])
            label = static_cast<ml::Label>(t);
        for (double t_slot : kSlots) {
          for (double n_window : kWindows) {
            if (!has_cell(n_window, t_slot)) continue;
            core::LaunchAttributeParams params;
            params.window_seconds = n_window;
            params.slot_seconds = t_slot;
            datasets.at({t_slot, n_window})
                .add(core::launch_attributes(session.packets,
                                             session.launch_begin, params),
                     label);
          }
        }
      });

  std::printf("%8s", "N(s) \\ T");
  for (double t_slot : kSlots) std::printf(" %7.1fs", t_slot);
  std::putchar('\n');
  for (double n_window : kWindows) {
    std::printf("%8.0f", n_window);
    for (double t_slot : kSlots) {
      if (!has_cell(n_window, t_slot)) {
        std::printf("  %7s", "-");
        continue;
      }
      const ml::Dataset& data = datasets.at({t_slot, n_window});
      ml::Rng rng(99);
      const auto split = ml::stratified_split(data, 0.3, rng);
      ml::RandomForest forest(
          ml::RandomForestParams{.n_trees = 150, .max_depth = 10, .seed = 5});
      forest.fit(split.train);
      std::printf("  %6.1f%%", 100 * forest.score(split.test));
    }
    std::putchar('\n');
  }

  std::puts("\nShape check (paper): accuracy rises with N and saturates"
            " within the first few seconds (>95% by N=3-5 s at T=1 s);"
            " very small slots (0.1 s) underperform; T=1-2 s is best.");
  return 0;
}

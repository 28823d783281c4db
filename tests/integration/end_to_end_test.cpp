// Whole-system integration tests: simulator -> capture file -> detector ->
// pipeline -> aggregation, the full loop a deployment would run.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/model_suite.hpp"
#include "core/slot_history.hpp"
#include "net/pcap.hpp"
#include "sim/fleet.hpp"
#include "telemetry/aggregator.hpp"

namespace cgctx {
namespace {

const core::ModelSuite& suite() {
  static const core::ModelSuite models = [] {
    core::TrainingBudget budget;
    budget.lab_scale = 0.12;
    budget.gameplay_seconds = 150.0;
    budget.augment_copies = 1;
    return core::train_model_suite(budget);
  }();
  return models;
}

TEST(EndToEnd, PcapRoundTripPreservesClassification) {
  // Render a session, write it to a genuine .pcap file, read it back, and
  // classify from the file's packets: the verdicts must agree.
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kGenshinImpact;
  spec.gameplay_seconds = 45;
  spec.seed = 101;
  const auto session = gen.generate(spec);

  const auto path = std::filesystem::temp_directory_path() /
                    "cgctx_end_to_end_session.pcap";
  net::write_pcap(path, session.packets);
  const auto loaded = net::read_pcap(path, session.client_ip);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.size(), session.packets.size());

  const core::RealtimePipeline pipeline(suite().models(),
                                        core::default_pipeline_params());
  const auto from_memory = pipeline.process_packets(session.packets);
  const auto from_file = pipeline.process_packets(loaded);
  ASSERT_TRUE(from_memory.has_value());
  ASSERT_TRUE(from_file.has_value());
  EXPECT_EQ(from_memory->title.label, from_file->title.label);
  EXPECT_EQ(from_memory->title.class_name, from_file->title.class_name);
  EXPECT_EQ(from_memory->objective_session, from_file->objective_session);
}

TEST(EndToEnd, MiniFleetAggregationShapesHold) {
  // A ~60-session mini-fleet: aggregate by ground-truth pattern and check
  // the §5 shapes (continuous-play sessions longer; QoE correction
  // shrinks the bad fraction).
  const core::RealtimePipeline pipeline(suite().models(),
                                        core::default_pipeline_params());
  sim::FleetOptions options;
  options.seed = 7;
  options.duration_scale = 0.05;  // minutes-scale sessions
  sim::FleetSampler sampler(options);
  const sim::SessionGenerator gen;
  telemetry::FleetAggregator by_pattern;
  std::size_t objective_bad = 0;
  std::size_t effective_bad = 0;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    const auto spec = sampler.sample();
    const auto session = gen.generate_slots_only(spec);
    const auto report = pipeline.process_session(session);
    by_pattern.add(telemetry::summarize(
        report, sim::to_string(sim::info(spec.title).pattern)));
    if (report.objective_session == core::QoeLevel::kBad) ++objective_bad;
    if (report.effective_session == core::QoeLevel::kBad) ++effective_bad;
  }
  EXPECT_EQ(by_pattern.total_sessions(), static_cast<std::size_t>(n));
  // Context calibration can only reduce falsely-bad sessions.
  EXPECT_LE(effective_bad, objective_bad);
  // Both patterns appear in a 60-session popularity-weighted draw.
  EXPECT_EQ(by_pattern.groups().size(), 2u);
}

TEST(EndToEnd, UnknownTitleFallsBackToPatternInference) {
  // A long-tail title outside the trained catalog: the title classifier
  // should often say "unknown", and the pattern inferrer must still give
  // the operator the coarse context.
  const core::RealtimePipeline pipeline(suite().models(),
                                        core::default_pipeline_params());
  const sim::SessionGenerator gen;
  int unknown = 0;
  int pattern_right = 0;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    sim::SessionSpec spec;
    spec.title = sim::GameTitle::kOtherSpectate;
    spec.gameplay_seconds = 1500;
    spec.seed = 300 + static_cast<std::uint64_t>(i);
    const auto report = pipeline.process_session(gen.generate_slots_only(spec));
    if (!report.title.label) ++unknown;
    if (report.pattern && report.pattern->label == core::kPatternSpectate)
      ++pattern_right;
  }
  // The classifier was never trained on this launch signature; most runs
  // should fall below the confidence threshold.
  EXPECT_GE(unknown, n / 2);
  EXPECT_GE(pattern_right, n / 2 + 1);
}

TEST(EndToEnd, SerializedModelsReproduceThePipeline) {
  // Persist all three models, reload them, and verify a session report is
  // byte-for-byte equivalent — the deployment story (train offline, ship
  // model files to the observability platform).
  const core::TitleClassifier title =
      core::TitleClassifier::deserialize(suite().title.serialize());
  const core::StageClassifier stage =
      core::StageClassifier::deserialize(suite().stage.serialize());
  const core::PatternInferrer pattern =
      core::PatternInferrer::deserialize(suite().pattern.serialize());
  core::SlotHistory original_slots;
  core::SlotHistory reloaded_slots;
  core::RealtimePipeline original(suite().models(),
                                  core::default_pipeline_params());
  original.set_slot_hook(original_slots.hook());
  core::RealtimePipeline reloaded(
      core::PipelineModels{&title, &stage, &pattern},
      core::default_pipeline_params());
  reloaded.set_slot_hook(reloaded_slots.hook());

  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kDota2;
  spec.gameplay_seconds = 240;
  spec.seed = 401;
  const auto session = gen.generate_slots_only(spec);
  const auto a = original.process_session(session);
  const auto b = reloaded.process_session(session);
  EXPECT_EQ(a.title.label, b.title.label);
  EXPECT_EQ(a.objective_session, b.objective_session);
  EXPECT_EQ(a.effective_session, b.effective_session);
  const auto a_slots = original_slots.take_all();
  const auto b_slots = reloaded_slots.take_all();
  ASSERT_EQ(a_slots.size(), 1u);
  ASSERT_EQ(b_slots.size(), 1u);
  ASSERT_EQ(a_slots[0].size(), b_slots[0].size());
  for (std::size_t s = 0; s < a_slots[0].size(); ++s)
    EXPECT_EQ(a_slots[0][s].stage, b_slots[0][s].stage);
}

}  // namespace
}  // namespace cgctx

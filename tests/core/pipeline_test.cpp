#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "core/model_suite.hpp"
#include "core/slot_history.hpp"
#include "sim/cross_traffic.hpp"
#include "sim/fleet.hpp"

namespace cgctx::core {
namespace {

/// One shared small model suite for every pipeline test (trained once).
const ModelSuite& suite() {
  static const ModelSuite models = [] {
    TrainingBudget budget;
    budget.lab_scale = 0.12;
    budget.gameplay_seconds = 150.0;
    budget.augment_copies = 1;
    return train_model_suite(budget);
  }();
  return models;
}

RealtimePipeline make_pipeline() {
  return RealtimePipeline(suite().models(), default_pipeline_params());
}

sim::LabeledSession lab_session(sim::GameTitle title, double gameplay_seconds,
                                std::uint64_t seed, bool slots_only = true) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = title;
  spec.gameplay_seconds = gameplay_seconds;
  spec.seed = seed;
  return slots_only ? gen.generate_slots_only(spec) : gen.generate(spec);
}

TEST(Pipeline, RequiresAllModels) {
  PipelineModels incomplete;
  incomplete.title = &suite().title;
  EXPECT_THROW(RealtimePipeline(incomplete, PipelineParams{}),
               std::invalid_argument);
}

TEST(Pipeline, ClassifiesTitleOfKnownSession) {
  const auto pipeline = make_pipeline();
  int correct = 0;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    const auto session =
        lab_session(sim::GameTitle::kGenshinImpact, 200, 500 + i);
    const auto report = pipeline.process_session(session);
    if (report.title.label &&
        report.title.class_name == "Genshin Impact")
      ++correct;
  }
  EXPECT_GE(correct, n - 2);
}

TEST(Pipeline, StageTimelineRoughlyMatchesGroundTruth) {
  auto pipeline = make_pipeline();
  SlotHistory history;
  pipeline.set_slot_hook(history.hook());
  const auto session = lab_session(sim::GameTitle::kCsgo, 400, 42);
  const auto report = pipeline.process_session(session);
  const auto histories = history.take_all();
  ASSERT_EQ(histories.size(), 1u);
  const std::vector<SlotRecord>& slots = histories.front();
  ASSERT_EQ(slots.size(), session.slots.size());
  EXPECT_EQ(report.duration_s, static_cast<double>(slots.size()));
  // Compare classified stages against ground truth over gameplay slots.
  std::size_t correct = 0;
  std::size_t total = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const net::Timestamp mid =
        session.launch_begin + net::duration_from_seconds(s + 0.5);
    if (session.in_launch(mid) || mid >= session.end) continue;
    ++total;
    const auto truth = static_cast<ml::Label>(session.stage_label_at(mid));
    if (slots[s].stage == truth) ++correct;
  }
  ASSERT_GT(total, 300u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.85);
}

TEST(Pipeline, InfersPatternWithinMinutes) {
  const auto pipeline = make_pipeline();
  int correct = 0;
  double decided_sum = 0.0;
  int decided_count = 0;
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    const auto report = pipeline.process_session(
        lab_session(sim::GameTitle::kOverwatch2, 1200, 700 + i));
    ASSERT_TRUE(report.pattern.has_value());
    if (report.pattern->label == kPatternSpectate) ++correct;
    if (report.pattern_decided_at_s > 0) {
      decided_sum += report.pattern_decided_at_s;
      ++decided_count;
    }
  }
  EXPECT_GE(correct, n - 1);
  // The paper reports confident inference ~5 minutes in on average.
  if (decided_count > 0) {
    EXPECT_LT(decided_sum / decided_count, 900.0);
  }
}

TEST(Pipeline, ContinuousPlayPatternInferred) {
  const auto pipeline = make_pipeline();
  int correct = 0;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    const auto report = pipeline.process_session(
        lab_session(sim::GameTitle::kCyberpunk2077, 1200, 600 + i));
    if (report.pattern && report.pattern->label == kPatternContinuous)
      ++correct;
  }
  EXPECT_GE(correct, n - 1);
}

TEST(Pipeline, LabNetworkSessionsHaveGoodEffectiveQoe) {
  const auto pipeline = make_pipeline();
  const auto report = pipeline.process_session(
      lab_session(sim::GameTitle::kFortnite, 300, 11));
  EXPECT_EQ(report.effective_session, QoeLevel::kGood);
}

TEST(Pipeline, LowDemandTitleCorrectedByEffectiveQoe) {
  const auto pipeline = make_pipeline();
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kHearthstone;
  spec.gameplay_seconds = 300;
  spec.seed = 13;
  spec.config.resolution = sim::Resolution::kHd;  // modest setting
  spec.config.fps = 60;
  const auto report = pipeline.process_session(gen.generate_slots_only(spec));
  // Objectively poor (below generic throughput expectations)...
  EXPECT_NE(report.objective_session, QoeLevel::kGood);
  // ...but effectively fine given the title's low demand.
  EXPECT_EQ(report.effective_session, QoeLevel::kGood);
}

TEST(Pipeline, CongestedSessionStaysBadUnderBothMappings) {
  const auto pipeline = make_pipeline();
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kFortnite;
  spec.gameplay_seconds = 300;
  spec.seed = 17;
  spec.network = sim::NetworkConditions::congested();
  const auto report = pipeline.process_session(gen.generate_slots_only(spec));
  EXPECT_EQ(report.objective_session, QoeLevel::kBad);
  EXPECT_EQ(report.effective_session, QoeLevel::kBad);
}

TEST(Pipeline, ProcessPacketsDetectsAndAnalyzes) {
  const auto pipeline = make_pipeline();
  const auto session = lab_session(sim::GameTitle::kCsgo, 60, 19,
                                   /*slots_only=*/false);
  const auto report = pipeline.process_packets(session.packets);
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->detection.has_value());
  EXPECT_EQ(report->detection->platform, Platform::kGeforceNow);
  EXPECT_GT(report->duration_s, 60.0);
  EXPECT_GT(report->mean_down_mbps, 0.5);
}

TEST(Pipeline, ProcessPacketsIgnoresPureCrossTraffic) {
  const auto pipeline = make_pipeline();
  ml::Rng rng(21);
  const auto packets =
      sim::voip_flow(net::Ipv4Addr::from_octets(10, 2, 3, 4), 30.0, rng);
  EXPECT_FALSE(pipeline.process_packets(packets).has_value());
}

TEST(Pipeline, ProcessPacketsSeparatesGamingFromCrossTraffic) {
  const auto pipeline = make_pipeline();
  const auto session = lab_session(sim::GameTitle::kFortnite, 45, 23,
                                   /*slots_only=*/false);
  ml::Rng rng(25);
  auto mixed = session.packets;
  for (const auto& pkt :
       sim::web_browsing_flow(session.client_ip, 60.0, rng))
    mixed.push_back(pkt);
  std::sort(mixed.begin(), mixed.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });
  const auto report = pipeline.process_packets(mixed);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->detection->flow, session.tuple.canonical());
}

TEST(Pipeline, StageSecondsSumToDuration) {
  const auto pipeline = make_pipeline();
  const auto session = lab_session(sim::GameTitle::kDota2, 200, 27);
  const auto report = pipeline.process_session(session);
  const double total = report.stage_seconds[0] + report.stage_seconds[1] +
                       report.stage_seconds[2];
  EXPECT_NEAR(total, report.duration_s, 1e-6);
}

TEST(Pipeline, ReportsPerSlotRecords) {
  auto pipeline = make_pipeline();
  SlotHistory history;
  pipeline.set_slot_hook(history.hook());
  const auto session = lab_session(sim::GameTitle::kRocketLeague, 100, 29);
  const auto report = pipeline.process_session(session);
  const auto histories = history.take_all();
  ASSERT_EQ(histories.size(), 1u);
  ASSERT_FALSE(histories.front().empty());
  EXPECT_EQ(report.duration_s, static_cast<double>(histories.front().size()));
  for (const SlotRecord& slot : histories.front()) {
    EXPECT_GE(slot.stage, 0);
    EXPECT_LT(slot.stage, 3);
    EXPECT_GE(slot.throughput_mbps, 0.0);
    EXPECT_GE(slot.frame_rate, 0.0);
  }
}

}  // namespace
}  // namespace cgctx::core

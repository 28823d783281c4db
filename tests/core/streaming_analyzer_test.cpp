#include "core/streaming_analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/model_suite.hpp"
#include "core/pipeline_metrics.hpp"
#include "core/slot_history.hpp"
#include "sim/cross_traffic.hpp"

namespace cgctx::core {
namespace {

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

sim::LabeledSession packet_session(sim::GameTitle title, double gameplay_s,
                                   std::uint64_t seed) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = title;
  spec.gameplay_seconds = gameplay_s;
  spec.seed = seed;
  return gen.generate(spec);
}

TEST(StreamingAnalyzer, EmitsEventsInOrder) {
  std::vector<obs::TraceEvent> events;
  StreamingAnalyzer analyzer(
      suite().models(), default_pipeline_params(),
      [&](const obs::TraceEvent& e) { events.push_back(e); });

  const auto session = packet_session(sim::GameTitle::kFortnite, 60, 11);
  for (const auto& pkt : session.packets) analyzer.push(pkt);
  const SessionReport report = analyzer.finish();

  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0].type, obs::TraceEventType::kFlowPromoted);
  ASSERT_TRUE(report.detection.has_value());
  EXPECT_EQ(report.detection->flow, session.tuple.canonical());
  EXPECT_EQ(events[0].name_view(), to_string(report.detection->platform));

  // A title verdict arrives shortly after the five-second window.
  const auto title_event = std::find_if(
      events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.type == obs::TraceEventType::kTitleVerdict;
      });
  ASSERT_NE(title_event, events.end());
  EXPECT_GE(title_event->at_seconds, 5.0);
  EXPECT_LT(title_event->at_seconds, 7.0);
  EXPECT_EQ(title_event->label, report.title.label.value_or(-1));
  EXPECT_EQ(title_event->confidence, report.title.confidence);

  // The session's last event is its retirement.
  EXPECT_EQ(events.back().type, obs::TraceEventType::kSessionRetired);
  EXPECT_EQ(events.back().at_seconds, report.duration_s);

  // Stage changes appear, and events are time-ordered.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].at_seconds + 1.5, events[i - 1].at_seconds);

  EXPECT_GT(report.duration_s, 60.0);
}

TEST(StreamingAnalyzer, MatchesBatchPipelineVerdicts) {
  const auto session = packet_session(sim::GameTitle::kGenshinImpact, 90, 13);
  SlotHistory batch_slots;
  RealtimePipeline batch(suite().models(), default_pipeline_params());
  batch.set_slot_hook(batch_slots.hook());
  const auto batch_report = batch.process_packets(session.packets);
  ASSERT_TRUE(batch_report.has_value());

  SlotHistory streamed_slots;
  StreamingAnalyzer analyzer(suite().models(), default_pipeline_params(),
                             {}, streamed_slots.hook());
  for (const auto& pkt : session.packets) analyzer.push(pkt);
  const SessionReport streamed = analyzer.finish();

  // Both drivers advance the same SessionEngine, so the reports and the
  // slot histories are byte-identical — not merely close.
  EXPECT_EQ(streamed, *batch_report);
  const auto batch_history = batch_slots.take_all();
  ASSERT_EQ(batch_history.size(), 1u);
  EXPECT_EQ(streamed_slots.take_all(), batch_history);
}

TEST(StreamingAnalyzer, IgnoresCrossTrafficBeforeAndAfterDetection) {
  std::vector<obs::TraceEvent> events;
  StreamingAnalyzer analyzer(
      suite().models(), default_pipeline_params(),
      [&](const obs::TraceEvent& e) { events.push_back(e); });

  const auto session = packet_session(sim::GameTitle::kCsgo, 40, 15);
  ml::Rng rng(16);
  auto wire = session.packets;
  for (const auto& pkt : sim::voip_flow(session.client_ip, 90.0, rng))
    wire.push_back(pkt);
  std::sort(wire.begin(), wire.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });
  for (const auto& pkt : wire) analyzer.push(pkt);
  const SessionReport report = analyzer.finish();
  ASSERT_TRUE(report.detection.has_value());
  EXPECT_EQ(report.detection->flow, session.tuple.canonical());
  // Throughput must reflect the gaming flow only (VoIP adds ~0.13 Mbps
  // which would be visible in idle slots if mixed in).
  EXPECT_GT(report.mean_down_mbps, 1.0);
}

TEST(StreamingAnalyzer, PureCrossTrafficNeverDetects) {
  std::vector<obs::TraceEvent> events;
  SlotHistory history;
  StreamingAnalyzer analyzer(
      suite().models(), default_pipeline_params(),
      [&](const obs::TraceEvent& e) { events.push_back(e); }, history.hook());
  ml::Rng rng(17);
  for (const auto& pkt :
       sim::web_browsing_flow(net::Ipv4Addr::from_octets(10, 9, 9, 9), 60.0,
                              rng))
    analyzer.push(pkt);
  EXPECT_FALSE(analyzer.flow_detected());
  EXPECT_TRUE(events.empty());
  const SessionReport report = analyzer.finish();
  EXPECT_EQ(report.duration_s, 0.0);
  EXPECT_TRUE(history.sessions().empty());
}

// finish() without a detected flow retires no session: no event, no
// trace record, no finished-session count, and the next session still
// takes the first id.
TEST(StreamingAnalyzer, FinishWithoutDetectionRetiresNothing) {
  std::vector<obs::TraceEvent> events;
  StreamingAnalyzer analyzer(
      suite().models(), default_pipeline_params(),
      [&](const obs::TraceEvent& e) { events.push_back(e); });
  obs::DecisionTraceRing ring(1024);
  constexpr std::uint64_t first_id = 7;
  analyzer.set_trace(&ring, first_id);
  obs::MetricsRegistry registry;
  const PipelineMetrics metrics = PipelineMetrics::create(registry);
  analyzer.set_metrics(&metrics);

  ml::Rng rng(21);
  for (const auto& pkt :
       sim::web_browsing_flow(net::Ipv4Addr::from_octets(10, 9, 9, 8), 60.0,
                              rng))
    analyzer.push(pkt);
  ASSERT_FALSE(analyzer.flow_detected());
  EXPECT_EQ(analyzer.finish(), SessionReport{});
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(metrics.sessions_finished->value(), 0u);

  const auto session = packet_session(sim::GameTitle::kFortnite, 30, 22);
  for (const auto& pkt : session.packets) analyzer.push(pkt);
  ASSERT_TRUE(analyzer.finish().detection.has_value());
  ASSERT_FALSE(events.empty());
  for (const obs::TraceEvent& e : events) EXPECT_EQ(e.session_id, first_id);
  ASSERT_GT(ring.size(), 0u);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring.at(i).session_id, first_id);
  EXPECT_EQ(metrics.sessions_finished->value(), 1u);
}

TEST(StreamingAnalyzer, ReusableAcrossSessions) {
  SlotHistory reused_slots;
  StreamingAnalyzer analyzer(suite().models(), default_pipeline_params(), {},
                             reused_slots.hook());
  const auto first = packet_session(sim::GameTitle::kDota2, 30, 18);
  for (const auto& pkt : first.packets) analyzer.push(pkt);
  const SessionReport report_a = analyzer.finish();
  EXPECT_TRUE(report_a.detection.has_value());

  const auto second = packet_session(sim::GameTitle::kHearthstone, 30, 19);
  for (const auto& pkt : second.packets) analyzer.push(pkt);
  const SessionReport report_b = analyzer.finish();
  ASSERT_TRUE(report_b.detection.has_value());
  EXPECT_EQ(report_b.detection->flow, second.tuple.canonical());
  EXPECT_NE(report_a.detection->flow, report_b.detection->flow);

  // finish() resets the engine in place; the reused analyzer's second
  // report must match a fresh analyzer's byte-for-byte.
  SlotHistory fresh_slots;
  StreamingAnalyzer fresh(suite().models(), default_pipeline_params(), {},
                          fresh_slots.hook());
  for (const auto& pkt : second.packets) fresh.push(pkt);
  EXPECT_EQ(report_b, fresh.finish());
  // Sessions 1 and 2 of the reused analyzer; the second matches.
  const auto reused_history = reused_slots.take_all();
  ASSERT_EQ(reused_history.size(), 2u);
  const auto fresh_history = fresh_slots.take_all();
  ASSERT_EQ(fresh_history.size(), 1u);
  EXPECT_EQ(reused_history[1], fresh_history[0]);
}

TEST(StreamingAnalyzer, LookbackCapBoundsAFloodAndCountsDrops) {
  // A UDP flood on a GeForce NOW port passes is_candidate() but never
  // detects (no RTP), so it fills the lookback faster than 10 s ages it.
  constexpr std::size_t kExcess = 4464;
  constexpr std::size_t kFlood = LaunchFrontEnd::kCap + kExcess;
  net::PacketRecord flood;
  flood.direction = net::Direction::kUpstream;
  flood.tuple = net::FiveTuple{net::Ipv4Addr::from_octets(10, 9, 9, 9),
                               net::Ipv4Addr::from_octets(198, 51, 100, 7),
                               50000, 49003, 17};
  flood.payload_size = 1200;

  StreamingAnalyzer analyzer(suite().models(), default_pipeline_params(), {});
  std::size_t peak = 0;
  for (std::size_t i = 0; i < kFlood; ++i) {  // 10 k pkts/s for 7 s
    flood.timestamp = static_cast<net::Timestamp>(i) * 100'000;
    analyzer.push(flood);
    peak = std::max(peak, analyzer.lookback_size());
  }
  EXPECT_EQ(peak, LaunchFrontEnd::kCap);
  EXPECT_EQ(analyzer.lookback_drops(), kExcess);
  EXPECT_FALSE(analyzer.flow_detected());

  // A gaming session that starts after the flood is reported exactly as
  // on an empty wire.
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kCsgo;
  spec.gameplay_seconds = 30.0;
  spec.seed = 62;
  spec.start_time = net::duration_from_seconds(8.0);
  const sim::LabeledSession session = gen.generate(spec);
  ASSERT_NE(session.tuple.canonical(), flood.tuple.canonical());
  for (const auto& pkt : session.packets) {
    analyzer.push(pkt);
    peak = std::max(peak, analyzer.lookback_size());
  }
  EXPECT_EQ(peak, LaunchFrontEnd::kCap);
  const SessionReport flooded = analyzer.finish();
  ASSERT_TRUE(flooded.detection.has_value());

  StreamingAnalyzer alone(suite().models(), default_pipeline_params(), {});
  for (const auto& pkt : session.packets) alone.push(pkt);
  EXPECT_EQ(flooded, alone.finish());
  EXPECT_EQ(alone.lookback_drops(), 0u);
}

TEST(StreamingAnalyzer, RequiresModels) {
  EXPECT_THROW(StreamingAnalyzer(PipelineModels{}, PipelineParams{}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cgctx::core

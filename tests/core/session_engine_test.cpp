// Batch ≡ streaming ≡ probe equivalence for the unified SessionEngine.
//
// All three entry points — RealtimePipeline::process_packets (offline
// batch), StreamingAnalyzer (event-driven), MultiSessionProbe (vantage
// point with lookback replay and pooled engines) — drive the same
// core::SessionEngine, so their SessionReports must be byte-identical
// (field-wise, doubles bitwise-equal) for every platform, title, and
// seed. The sweep reuses one analyzer and one probe across all combos,
// so the pooled reset path is exercised dozens of times, not once. Each
// front-end also records a decision trace, and the traces must tell the
// same story event for event.
#include "core/session_engine.hpp"

#include <gtest/gtest.h>

#include "core/model_suite.hpp"
#include "core/multi_session_probe.hpp"
#include "core/pipeline.hpp"
#include "core/streaming_analyzer.hpp"
#include "obs/trace.hpp"
#include "probe_test_models.hpp"

namespace cgctx::core {
namespace {

const ModelSuite& suite() { return probe_test_suite(); }

sim::LabeledSession packet_session(sim::CloudPlatform platform,
                                   sim::GameTitle title, std::uint64_t seed,
                                   double start_s = 0.0) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.platform = platform;
  spec.title = title;
  spec.gameplay_seconds = 30.0;
  spec.seed = seed;
  spec.start_time = net::duration_from_seconds(start_s);
  return gen.generate(spec);
}

/// Drains `ring` and zeroes each event's session id: the front-ends
/// number their sessions independently, and everything else must match.
std::vector<obs::TraceEvent> drain_story(obs::DecisionTraceRing& ring) {
  EXPECT_EQ(ring.overwritten(), 0u);
  std::vector<obs::TraceEvent> events;
  ring.append_to(events);
  ring.clear();
  for (obs::TraceEvent& event : events) event.session_id = 0;
  return events;
}

TEST(SessionEngineEquivalence, BatchStreamingProbeByteIdenticalAcrossSweep) {
  constexpr sim::CloudPlatform kPlatforms[] = {
      sim::CloudPlatform::kGeforceNow, sim::CloudPlatform::kXboxCloud,
      sim::CloudPlatform::kAmazonLuna, sim::CloudPlatform::kPsCloudStreaming};
  // Titles spanning the demand/pattern space: a high-demand shooter, a
  // mid-demand RPG, and the low-demand card game whose spectate-heavy
  // profile stresses the effective-QoE calibration.
  constexpr sim::GameTitle kTitles[] = {sim::GameTitle::kFortnite,
                                        sim::GameTitle::kGenshinImpact,
                                        sim::GameTitle::kHearthstone};
  constexpr std::uint64_t kSeeds[] = {101, 202};

  obs::DecisionTraceRing batch_trace(1024);
  obs::DecisionTraceRing streaming_trace(1024);
  obs::DecisionTraceRing probe_trace(1024);
  RealtimePipeline batch(suite().models(), default_pipeline_params());
  batch.set_trace(&batch_trace);
  StreamingAnalyzer streaming(suite().models(), default_pipeline_params(), {});
  streaming.set_trace(&streaming_trace);
  std::vector<SessionReport> probe_reports;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { probe_reports.push_back(r); });
  probe.set_trace(&probe_trace);

  std::size_t combos = 0;
  for (const sim::CloudPlatform platform : kPlatforms) {
    for (const sim::GameTitle title : kTitles) {
      for (const std::uint64_t seed : kSeeds) {
        SCOPED_TRACE(std::string(sim::to_string(platform)) + " / " +
                     sim::to_string(title) + " / seed " +
                     std::to_string(seed));
        // The reused probe needs monotonic wire time: space the combos
        // out past its flow-idle timeout so each one's lookback and
        // flow-table state ages out before the next (the same seed
        // yields the same five-tuple regardless of title, so stale
        // lookback packets would otherwise replay into the next combo).
        const sim::LabeledSession session = packet_session(
            platform, title, seed, static_cast<double>(combos) * 120.0);

        const auto batch_report = batch.process_packets(session.packets);
        ASSERT_TRUE(batch_report.has_value());

        for (const auto& pkt : session.packets) streaming.push(pkt);
        const SessionReport streamed = streaming.finish();

        probe_reports.clear();
        for (const auto& pkt : session.packets) probe.push(pkt);
        probe.flush();
        ASSERT_EQ(probe_reports.size(), 1u);

        ASSERT_TRUE(batch_report->detection.has_value());
        EXPECT_EQ(batch_report->detection->flow, session.tuple.canonical());
        EXPECT_EQ(streamed, *batch_report);
        EXPECT_EQ(probe_reports.front(), *batch_report);

        const std::vector<obs::TraceEvent> story = drain_story(batch_trace);
        ASSERT_GE(story.size(), 3u);
        EXPECT_EQ(story.front().type, obs::TraceEventType::kFlowPromoted);
        EXPECT_EQ(story.back().type, obs::TraceEventType::kSessionRetired);
        EXPECT_EQ(drain_story(streaming_trace), story);
        EXPECT_EQ(drain_story(probe_trace), story);
        ++combos;
      }
    }
  }
  EXPECT_EQ(combos, 24u);
  // One engine served all the probe's sessions via the pool.
  EXPECT_EQ(probe.pooled_engines(), 1u);
}

TEST(SessionEngine, PooledResetReproducesFreshEngineByteIdentically) {
  const PipelineParams params = default_pipeline_params();
  const auto first =
      packet_session(sim::CloudPlatform::kGeforceNow, sim::GameTitle::kCsgo, 7);
  const auto second = packet_session(sim::CloudPlatform::kXboxCloud,
                                     sim::GameTitle::kDota2, 8);

  const SessionObserver observer;
  const auto run = [&](SessionEngine& engine,
                       const sim::LabeledSession& session) {
    engine.start(session.packets.front().timestamp);
    for (const auto& pkt : session.packets) engine.on_packet(pkt, observer);
    return engine.finish(observer);  // copies via the caller's SessionReport
  };

  SessionEngine reused(suite().models(), &params);
  const SessionReport first_report = run(reused, first);
  EXPECT_GT(first_report.slots.size(), 25u);
  reused.reset();
  const SessionReport second_reused = run(reused, second);

  SessionEngine fresh(suite().models(), &params);
  const SessionReport second_fresh = run(fresh, second);
  EXPECT_EQ(second_reused, second_fresh);
  EXPECT_NE(second_reused, first_report);
}

TEST(SessionEngine, TelemetryModeMatchesPipelineProcessSession) {
  const PipelineParams params = default_pipeline_params();
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kFortnite;
  spec.gameplay_seconds = 200.0;
  spec.seed = 9;
  const sim::LabeledSession session = gen.generate_slots_only(spec);

  const RealtimePipeline pipeline(suite().models(), params);
  const SessionReport expected = pipeline.process_session(session);

  SessionEngine engine(suite().models(), &params);
  engine.start(session.launch_begin);
  engine.set_title(suite().models().title->classify(session.packets,
                                                    session.launch_begin));
  const SessionObserver observer;
  for (const sim::SlotSample& sample : session.slots) {
    SlotTelemetry slot;
    slot.volumetrics = RawSlotVolumetrics{sample.down_bytes,
                                          sample.down_packets, sample.up_bytes,
                                          sample.up_packets};
    slot.frames = sample.frames;
    slot.rtt_ms = sample.rtt_ms;
    slot.loss_rate = sample.loss_rate;
    engine.push_slot(slot, observer);
  }
  EXPECT_EQ(engine.finish(observer), expected);
}

TEST(SessionEngine, RequiresModelsAndParams) {
  const PipelineParams params = default_pipeline_params();
  EXPECT_THROW(SessionEngine(PipelineModels{}, &params),
               std::invalid_argument);
  EXPECT_THROW(SessionEngine(suite().models(), nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace cgctx::core

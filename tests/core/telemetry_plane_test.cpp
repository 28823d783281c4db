// The telemetry plane wired through the session pipeline: the
// classification-health counters PipelineMetrics publishes, the decision
// trace the engine emits through its SessionObserver, and the promise that
// instrumentation never changes a report.
#include "core/pipeline_metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/multi_session_probe.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_probe.hpp"
#include "core/slot_history.hpp"
#include "core/streaming_analyzer.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "probe_test_models.hpp"

namespace cgctx::core {
namespace {

const ModelSuite& suite() { return probe_test_suite(); }

sim::LabeledSession packet_session(std::uint64_t seed, double start_s = 0.0) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kFortnite;
  spec.gameplay_seconds = 30.0;
  spec.seed = seed;
  spec.start_time = net::duration_from_seconds(start_s);
  return gen.generate(spec);
}

TEST(TelemetryPlane, PipelineCountsDecisionsAndTimesStages) {
  obs::MetricsRegistry registry;
  PipelineMetrics metrics = PipelineMetrics::create(registry);
  metrics.timer_sample_stride = 1;  // exact timer counts below
  RealtimePipeline pipeline(suite().models(), default_pipeline_params());
  pipeline.set_metrics(&metrics);

  const sim::LabeledSession session = packet_session(11);
  const auto report = pipeline.process_packets(session.packets);
  ASSERT_TRUE(report.has_value());

  // duration_s counts the session's closed slots.
  const auto slots = static_cast<std::uint64_t>(report->duration_s);
  EXPECT_EQ(metrics.title_verdicts->value(), 1u);
  EXPECT_EQ(metrics.sessions_finished->value(), 1u);
  EXPECT_EQ(metrics.slots_processed->value(), slots);
  // A confident pattern verdict either landed (decision) or never did
  // (never-confident); the two tallies must cover the session.
  EXPECT_EQ(metrics.pattern_decisions->value() +
                metrics.never_confident_patterns->value(),
            1u);
  // The stage classifier ran once per slot; the timers saw every run.
  EXPECT_EQ(metrics.stage_classify_ns->count(), slots);
  EXPECT_EQ(metrics.slot_close_ns->count(), slots);
  EXPECT_EQ(metrics.title_classify_ns->count(), 1u);
  EXPECT_GT(metrics.slot_close_ns->sum(), 0u);
}

TEST(TelemetryPlane, ProcessSessionTimesEverySlotOfItsBatches) {
  // process_session classifies in RealtimePipeline::kSlotBatch chunks; a
  // batch records one timer sample per sampled slot (its step time over
  // its slot count), so the counts match the per-slot path's.
  obs::MetricsRegistry registry;
  PipelineMetrics metrics = PipelineMetrics::create(registry);
  metrics.timer_sample_stride = 1;
  RealtimePipeline pipeline(suite().models(), default_pipeline_params());
  pipeline.set_metrics(&metrics);

  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kFortnite;
  spec.gameplay_seconds = 600.0;
  spec.seed = 13;
  const SessionReport report =
      pipeline.process_session(gen.generate_slots_only(spec));
  const auto slots = static_cast<std::uint64_t>(report.duration_s);
  ASSERT_GT(slots, RealtimePipeline::kSlotBatch);
  ASSERT_NE(slots % RealtimePipeline::kSlotBatch, 0u);

  EXPECT_EQ(metrics.slots_processed->value(), slots);
  EXPECT_EQ(metrics.stage_classify_ns->count(), slots);
  EXPECT_EQ(metrics.pattern_infer_ns->count(), slots);
  EXPECT_EQ(metrics.slot_close_ns->count(), slots);
  EXPECT_GT(metrics.stage_classify_ns->sum(), 0u);
  EXPECT_GE(metrics.slot_close_ns->sum(), metrics.stage_classify_ns->sum());
}

TEST(TelemetryPlane, UnknownTitleCountsAsUnknownAndLowConfidence) {
  obs::MetricsRegistry registry;
  const PipelineMetrics metrics = PipelineMetrics::create(registry);

  static const PipelineParams params = default_pipeline_params();
  SessionEngine engine(suite().models(), &params);
  engine.set_metrics(&metrics);
  TitleResult unknown;
  unknown.label.reset();
  unknown.confidence = 0.2;
  engine.set_title(unknown);
  EXPECT_EQ(metrics.title_verdicts->value(), 1u);
  EXPECT_EQ(metrics.unknown_titles->value(), 1u);
  EXPECT_EQ(metrics.low_confidence_titles->value(), 1u);
}

TEST(TelemetryPlane, InstrumentationDoesNotChangeReports) {
  const sim::LabeledSession session = packet_session(23);
  SlotHistory baseline_slots;
  RealtimePipeline plain(suite().models(), default_pipeline_params());
  plain.set_slot_hook(baseline_slots.hook());
  const auto baseline = plain.process_packets(session.packets);
  ASSERT_TRUE(baseline.has_value());

  obs::MetricsRegistry registry;
  const PipelineMetrics metrics = PipelineMetrics::create(registry);
  obs::DecisionTraceRing ring(256);
  SlotHistory traced_slots;
  RealtimePipeline instrumented(suite().models(), default_pipeline_params());
  instrumented.set_metrics(&metrics);
  instrumented.set_trace(&ring);
  instrumented.set_slot_hook(traced_slots.hook());
  const auto traced = instrumented.process_packets(session.packets);
  ASSERT_TRUE(traced.has_value());

  EXPECT_EQ(baseline->title.class_name, traced->title.class_name);
  const auto baseline_history = baseline_slots.take_all();
  const auto traced_history = traced_slots.take_all();
  ASSERT_EQ(baseline_history.size(), 1u);
  ASSERT_EQ(traced_history.size(), 1u);
  EXPECT_EQ(baseline_history[0].size(), traced_history[0].size());
  EXPECT_EQ(baseline->effective_session, traced->effective_session);
  EXPECT_EQ(baseline->mean_down_mbps, traced->mean_down_mbps);
}

TEST(TelemetryPlane, PipelineTraceTellsTheSessionStory) {
  obs::DecisionTraceRing ring(256);
  RealtimePipeline pipeline(suite().models(), default_pipeline_params());
  pipeline.set_trace(&ring);
  const sim::LabeledSession session = packet_session(31);
  ASSERT_TRUE(pipeline.process_packets(session.packets).has_value());

  ASSERT_GT(ring.size(), 0u);
  // First event: the flow promotion; last: retirement. Every event
  // belongs to session 1 (the pipeline's first traced session).
  EXPECT_EQ(ring.at(0).type, obs::TraceEventType::kFlowPromoted);
  EXPECT_EQ(ring.at(ring.size() - 1).type,
            obs::TraceEventType::kSessionRetired);
  bool saw_title = false;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).session_id, 1u);
    saw_title |= ring.at(i).type == obs::TraceEventType::kTitleVerdict;
  }
  EXPECT_TRUE(saw_title);

  // A second session gets the next id.
  ring.clear();
  ASSERT_TRUE(pipeline.process_packets(session.packets).has_value());
  ASSERT_GT(ring.size(), 0u);
  EXPECT_EQ(ring.at(0).session_id, 2u);
}

/// What one front-end run delivered to each event consumer.
struct ObservedRun {
  std::vector<obs::TraceEvent> events;
  std::vector<obs::TraceEvent> trace;
};

/// Events grouped by session id, each session's in arrival order. Only
/// per-session order is common to callback and ring: ShardedProbe keeps
/// one ring per shard, and its shards' callbacks interleave as they run.
std::map<std::uint64_t, std::vector<obs::TraceEvent>> by_session(
    const std::vector<obs::TraceEvent>& events) {
  std::map<std::uint64_t, std::vector<obs::TraceEvent>> out;
  for (const obs::TraceEvent& event : events)
    out[event.session_id].push_back(event);
  return out;
}

/// Runs a front-end with the callback only, the trace only, and both: each
/// consumer must see exactly the same thing whether or not the other one
/// is installed, and with both installed, each session's callback events
/// are its ring events.
template <class RunFn>
void expect_callback_and_trace_independent(const RunFn& run) {
  const ObservedRun callback_only = run(true, false);
  const ObservedRun trace_only = run(false, true);
  const ObservedRun both = run(true, true);
  ASSERT_FALSE(callback_only.events.empty());
  ASSERT_FALSE(trace_only.trace.empty());
  EXPECT_TRUE(callback_only.trace.empty());
  EXPECT_TRUE(trace_only.events.empty());
  EXPECT_EQ(both.trace, trace_only.trace);
  const auto events = by_session(both.events);
  EXPECT_EQ(events, by_session(callback_only.events));
  EXPECT_EQ(events, by_session(both.trace));
}

TEST(TelemetryPlane, CallbackAndTraceAreIndependent) {
  // Two overlapping sessions, so the probe routes interleaved events of
  // two live sessions.
  const sim::LabeledSession first = packet_session(101);
  const sim::LabeledSession second = packet_session(202, 5.0);
  ASSERT_NE(first.tuple.canonical(), second.tuple.canonical());
  std::vector<net::PacketRecord> wire;
  std::merge(first.packets.begin(), first.packets.end(),
             second.packets.begin(), second.packets.end(),
             std::back_inserter(wire),
             [](const net::PacketRecord& a, const net::PacketRecord& b) {
               return a.timestamp < b.timestamp;
             });
  const auto callback = [](ObservedRun& run, bool install) {
    if (!install) return SessionEventCallback{};
    return SessionEventCallback(
        [&run](const obs::TraceEvent& event) { run.events.push_back(event); });
  };

  expect_callback_and_trace_independent([&](bool with_callback,
                                            bool with_trace) {
    ObservedRun run;
    obs::DecisionTraceRing ring(1024);
    std::size_t reports = 0;
    MultiSessionProbe probe(
        suite().models(), MultiSessionProbeParams{default_pipeline_params()},
        [&reports](const SessionReport&) { ++reports; },
        callback(run, with_callback));
    if (with_trace) probe.set_trace(&ring);
    for (const auto& pkt : wire) probe.push(pkt);
    probe.flush();
    EXPECT_EQ(reports, 2u);
    ring.append_to(run.trace);
    return run;
  });

  expect_callback_and_trace_independent([&](bool with_callback,
                                            bool with_trace) {
    ObservedRun run;
    obs::DecisionTraceRing ring(1024);
    StreamingAnalyzer analyzer(suite().models(), default_pipeline_params(),
                               callback(run, with_callback));
    if (with_trace) analyzer.set_trace(&ring);
    for (const auto& pkt : wire) analyzer.push(pkt);
    EXPECT_GT(analyzer.finish().duration_s, 0.0);
    ring.append_to(run.trace);
    return run;
  });

  expect_callback_and_trace_independent([&](bool with_callback,
                                            bool with_trace) {
    ObservedRun run;
    ShardedProbeParams params;
    params.probe = MultiSessionProbeParams{default_pipeline_params()};
    params.num_shards = 2;
    params.trace_capacity = with_trace ? 1024 : 0;
    ShardedProbe probe(suite().models(), params,
                       [](const SessionReport&) {},
                       callback(run, with_callback));
    for (const auto& pkt : wire) probe.push(pkt);
    probe.flush();
    EXPECT_EQ(probe.reports_emitted(), 2u);
    run.trace = probe.drain_trace();
    return run;
  });
}

TEST(TelemetryPlane, ShardedProbePublishesRegistryAndTrace) {
  ShardedProbeParams params;
  params.probe = MultiSessionProbeParams{default_pipeline_params()};
  params.num_shards = 2;
  params.trace_capacity = 256;

  std::size_t reports = 0;
  ShardedProbe probe(suite().models(), params,
                     [&](const SessionReport&) { ++reports; });
  // Two sessions, spaced past the flow-idle timeout so state ages out.
  for (const auto& pkt : packet_session(101).packets) probe.push(pkt);
  for (const auto& pkt : packet_session(202, 120.0).packets) probe.push(pkt);
  probe.flush();
  ASSERT_EQ(reports, 2u);

  // The registry carries per-shard probe series and the shared pipeline
  // counters; the Prometheus page renders them.
  const obs::MetricsSnapshot snapshot = probe.metrics_snapshot();
  bool saw_shard0 = false;
  bool saw_shard1 = false;
  double sessions_finished = 0.0;
  for (const obs::MetricSeries& series : snapshot.series) {
    if (series.name == "cgctx_probe_packets_in_total") {
      for (const auto& [key, value] : series.labels) {
        saw_shard0 |= key == "shard" && value == "0";
        saw_shard1 |= key == "shard" && value == "1";
      }
    }
    if (series.name == "cgctx_session_finished_total")
      sessions_finished = series.value;
  }
  EXPECT_TRUE(saw_shard0);
  EXPECT_TRUE(saw_shard1);
  EXPECT_EQ(sessions_finished, 2.0);
  const std::string page = obs::to_prometheus(snapshot);
  EXPECT_NE(page.find("cgctx_probe_packets_in_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(page.find("cgctx_pipeline_slot_close_ns_bucket"),
            std::string::npos);
  // Title-window gauges: every window is back in a shard's pool.
  EXPECT_NE(page.find("cgctx_probe_title_windows_on_loan{shard=\"0\"} 0"),
            std::string::npos);
  EXPECT_EQ(probe.stats().title_windows_on_loan, 0u);
  EXPECT_GE(probe.stats().title_windows_pooled, 1u);

  // The merged trace holds both sessions' stories with globally unique,
  // shard-interleaved ids (shard i numbers i+1, i+1+N, ...).
  const std::vector<obs::TraceEvent> events = probe.drain_trace();
  ASSERT_GT(events.size(), 0u);
  std::size_t retired = 0;
  for (const obs::TraceEvent& event : events) {
    EXPECT_GE(event.session_id, 1u);
    retired += event.type == obs::TraceEventType::kSessionRetired ? 1 : 0;
  }
  EXPECT_EQ(retired, 2u);
}

}  // namespace
}  // namespace cgctx::core

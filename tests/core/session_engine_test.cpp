// Batch ≡ streaming ≡ probe equivalence for the unified SessionEngine.
//
// All three entry points — RealtimePipeline::process_packets (offline
// batch), StreamingAnalyzer (event-driven), MultiSessionProbe (vantage
// point with lookback replay and pooled engines) — drive the same
// core::SessionEngine, so their SessionReports and the per-slot records
// each hands its slot hook must be byte-identical (field-wise, doubles
// bitwise-equal) for every platform, title, and seed. The sweep reuses one analyzer and one probe across all combos,
// so the pooled reset path is exercised dozens of times, not once. Each
// front-end also records a decision trace, and the traces must tell the
// same story event for event. Every combo runs twice: clean, and
// interleaved with non-candidate cross traffic, which every front-end
// gates out before its demux, so both runs must tell the same story.
#include "core/session_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <utility>

#include "core/launch_front_end.hpp"
#include "core/model_suite.hpp"
#include "core/multi_session_probe.hpp"
#include "core/pipeline.hpp"
#include "core/slot_history.hpp"
#include "core/streaming_analyzer.hpp"
#include "core/transition_model.hpp"
#include "obs/trace.hpp"
#include "probe_test_models.hpp"
#include "sim/cross_traffic.hpp"

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

/// `session`'s packets interleaved with two other subscribers' flows over
/// its whole span: a VoIP call (RTP over UDP) and web browsing (TCP),
/// neither on a platform port.
std::vector<net::PacketRecord> with_cross_traffic(
    const sim::LabeledSession& session, std::uint64_t seed) {
  ml::Rng rng(seed);
  const net::Timestamp begin = session.packets.front().timestamp;
  const double span_s =
      net::duration_to_seconds(session.packets.back().timestamp - begin);
  std::vector<net::PacketRecord> wire = session.packets;
  const auto add = [&](std::vector<net::PacketRecord> flow) {
    for (net::PacketRecord& pkt : flow) {
      pkt.timestamp += begin;
      wire.push_back(pkt);
    }
  };
  add(sim::voip_flow(net::Ipv4Addr::from_octets(10, 200, 0, 1), span_s, rng));
  add(sim::web_browsing_flow(net::Ipv4Addr::from_octets(10, 200, 0, 2),
                             span_s, rng));
  std::stable_sort(wire.begin(), wire.end(),
                   [](const net::PacketRecord& a, const net::PacketRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  return wire;
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
  SlotHistory batch_slots;
  SlotHistory streaming_slots;
  SlotHistory probe_slots;
  RealtimePipeline batch(suite().models(), default_pipeline_params());
  batch.set_trace(&batch_trace);
  batch.set_slot_hook(batch_slots.hook());
  StreamingAnalyzer streaming(suite().models(), default_pipeline_params(), {},
                              streaming_slots.hook());
  streaming.set_trace(&streaming_trace);
  std::vector<SessionReport> probe_reports;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { probe_reports.push_back(r); }, {},
      probe_slots.hook());
  probe.set_trace(&probe_trace);
  // The cross-traffic runs use their own streaming front-ends, so each
  // probe sees monotonic wire time.
  obs::DecisionTraceRing mixed_streaming_trace(1024);
  obs::DecisionTraceRing mixed_probe_trace(1024);
  SlotHistory mixed_streaming_slots;
  SlotHistory mixed_probe_slots;
  StreamingAnalyzer mixed_streaming(suite().models(), default_pipeline_params(),
                                    {}, mixed_streaming_slots.hook());
  mixed_streaming.set_trace(&mixed_streaming_trace);
  std::vector<SessionReport> mixed_probe_reports;
  MultiSessionProbe mixed_probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { mixed_probe_reports.push_back(r); }, {},
      mixed_probe_slots.hook());
  mixed_probe.set_trace(&mixed_probe_trace);
  std::uint64_t cross_packets = 0;

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
        const std::vector<std::vector<SlotRecord>> slots =
            batch_slots.take_all();
        ASSERT_EQ(slots.size(), 1u);
        ASSERT_FALSE(slots.front().empty());
        EXPECT_EQ(streaming_slots.take_all(), slots);
        EXPECT_EQ(probe_slots.take_all(), slots);

        const std::vector<obs::TraceEvent> story = drain_story(batch_trace);
        ASSERT_GE(story.size(), 3u);
        EXPECT_EQ(story.front().type, obs::TraceEventType::kFlowPromoted);
        EXPECT_EQ(story.back().type, obs::TraceEventType::kSessionRetired);
        EXPECT_EQ(drain_story(streaming_trace), story);
        EXPECT_EQ(drain_story(probe_trace), story);

        const std::vector<net::PacketRecord> mixed =
            with_cross_traffic(session, seed + combos);
        ASSERT_GT(mixed.size(), session.packets.size());
        cross_packets += mixed.size() - session.packets.size();

        const auto batch_mixed = batch.process_packets(mixed);
        ASSERT_TRUE(batch_mixed.has_value());
        EXPECT_EQ(*batch_mixed, *batch_report);
        EXPECT_EQ(batch_slots.take_all(), slots);
        EXPECT_EQ(drain_story(batch_trace), story);

        for (const auto& pkt : mixed) mixed_streaming.push(pkt);
        EXPECT_EQ(mixed_streaming.finish(), *batch_report);
        EXPECT_EQ(mixed_streaming_slots.take_all(), slots);
        EXPECT_EQ(drain_story(mixed_streaming_trace), story);

        mixed_probe_reports.clear();
        for (const auto& pkt : mixed) mixed_probe.push(pkt);
        mixed_probe.flush();
        ASSERT_EQ(mixed_probe_reports.size(), 1u);
        EXPECT_EQ(mixed_probe_reports.front(), *batch_report);
        EXPECT_EQ(mixed_probe_slots.take_all(), slots);
        EXPECT_EQ(drain_story(mixed_probe_trace), story);
        ++combos;
      }
    }
  }
  EXPECT_EQ(combos, 24u);
  // One engine served all the probe's sessions via the pool.
  EXPECT_EQ(probe.pooled_engines(), 1u);
  EXPECT_EQ(mixed_probe.pooled_engines(), 1u);
  // Every cross-traffic packet was gated, and no clean one.
  EXPECT_EQ(streaming.gated_packets(), 0u);
  EXPECT_EQ(probe.gated_packets(), 0u);
  EXPECT_EQ(mixed_streaming.gated_packets(), cross_packets);
  EXPECT_EQ(mixed_probe.gated_packets(), cross_packets);
}

/// Runs `wire` through fresh batch, streaming and probe front-ends and
/// expects one report, one slot history and one decision trace from all
/// three; returns them through `report`, `slots` and `story`.
void expect_front_ends_agree(std::span<const net::PacketRecord> wire,
                             SessionReport& report,
                             std::vector<SlotRecord>& slots,
                             std::vector<obs::TraceEvent>& story) {
  obs::DecisionTraceRing batch_trace(1024);
  SlotHistory batch_slots;
  RealtimePipeline batch(suite().models(), default_pipeline_params());
  batch.set_trace(&batch_trace);
  batch.set_slot_hook(batch_slots.hook());
  const auto batch_report = batch.process_packets(wire);
  ASSERT_TRUE(batch_report.has_value());
  report = *batch_report;
  const auto batch_history = batch_slots.take_all();
  ASSERT_EQ(batch_history.size(), 1u);
  slots = batch_history.front();
  story = drain_story(batch_trace);
  ASSERT_FALSE(story.empty());

  obs::DecisionTraceRing streaming_trace(1024);
  SlotHistory streaming_slots;
  StreamingAnalyzer streaming(suite().models(), default_pipeline_params(), {},
                              streaming_slots.hook());
  streaming.set_trace(&streaming_trace);
  for (const net::PacketRecord& pkt : wire) streaming.push(pkt);
  EXPECT_EQ(streaming.finish(), report);
  EXPECT_EQ(streaming_slots.take_all(), batch_history);
  EXPECT_EQ(drain_story(streaming_trace), story);

  obs::DecisionTraceRing probe_trace(1024);
  SlotHistory probe_slots;
  std::vector<SessionReport> probe_reports;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { probe_reports.push_back(r); }, {},
      probe_slots.hook());
  probe.set_trace(&probe_trace);
  for (const net::PacketRecord& pkt : wire) probe.push(pkt);
  probe.flush();
  ASSERT_EQ(probe_reports.size(), 1u);
  EXPECT_EQ(probe_reports.front(), report);
  EXPECT_EQ(probe_slots.take_all(), batch_history);
  EXPECT_EQ(drain_story(probe_trace), story);
}

// Off the happy path (detection later than the lookback span, flow
// packets out of order) the front-ends still agree: they share one
// launch front-end and one rule, the session starts at the flow's oldest
// buffered packet and replays in wire order.
TEST(SessionEngineEquivalence, FrontEndsAgreeOffTheHappyPath) {
  const sim::LabeledSession session = packet_session(
      sim::CloudPlatform::kXboxCloud, sim::GameTitle::kGenshinImpact, 202,
      20.0);
  const net::Timestamp begin = session.packets.front().timestamp;
  SessionReport report;
  std::vector<SlotRecord> slots;
  std::vector<obs::TraceEvent> story;

  {
    SCOPED_TRACE("slow detection");
    // 12 s of 20 pkt/s, 160 B downstream RTP on the session's tuple and
    // SSRC dilute the flow's mean rate, so the detector fires more than
    // the lookback span after the flow's first packet.
    const auto down = std::find_if(
        session.packets.begin(), session.packets.end(),
        [](const net::PacketRecord& pkt) {
          return pkt.direction == net::Direction::kDownstream && pkt.rtp;
        });
    ASSERT_NE(down, session.packets.end());
    constexpr int kPrelude = 240;
    std::vector<net::PacketRecord> wire;
    for (int i = 0; i < kPrelude; ++i) {
      net::PacketRecord pkt = *down;
      pkt.timestamp = begin - (kPrelude - i) * (net::kNanosPerSecond / 20);
      pkt.payload_size = 160;
      pkt.rtp->sequence = static_cast<std::uint16_t>(down->rtp->sequence -
                                                     (kPrelude - i));
      wire.push_back(pkt);
    }
    wire.insert(wire.end(), session.packets.begin(), session.packets.end());

    // Where the detector fires, and the oldest flow packet still in the
    // lookback then: the session must start there.
    net::FlowTable table;
    const CloudGamingFlowDetector detector;
    const auto detected =
        std::find_if(wire.begin(), wire.end(), [&](const auto& pkt) {
          return detector.detect(table.add(pkt)).has_value();
        });
    ASSERT_NE(detected, wire.end());
    const net::Timestamp detected_at = detected->timestamp;
    ASSERT_GT(detected_at - wire.front().timestamp, LaunchFrontEnd::kSpan);
    const net::Timestamp oldest =
        std::find_if(wire.begin(), wire.end(), [&](const auto& pkt) {
          return detected_at - pkt.timestamp <= LaunchFrontEnd::kSpan;
        })->timestamp;

    ASSERT_NO_FATAL_FAILURE(expect_front_ends_agree(wire, report, slots, story));
    EXPECT_EQ(story.front().type, obs::TraceEventType::kFlowPromoted);
    EXPECT_EQ(story.front().at_seconds,
              net::duration_to_seconds(detected_at - oldest));
    EXPECT_EQ(slots.size(),
              static_cast<std::size_t>((wire.back().timestamp - oldest) /
                                       net::kNanosPerSecond) +
                  1);
  }
  {
    SCOPED_TRACE("reordered flow packets");
    // Swap the two packets that straddle each slot boundary after slot 8,
    // so the later one arrives first.
    std::vector<net::PacketRecord> wire = session.packets;
    std::size_t swaps = 0;
    for (std::size_t i = 1; i < wire.size(); ++i) {
      const net::Timestamp prev = wire[i - 1].timestamp - begin;
      const net::Timestamp cur = wire[i].timestamp - begin;
      if (prev / net::kNanosPerSecond == cur / net::kNanosPerSecond ||
          cur < 9 * net::kNanosPerSecond)
        continue;
      std::swap(wire[i - 1], wire[i]);
      ++swaps;
      ++i;  // the swapped pair is done
    }
    ASSERT_GT(swaps, 60u);

    ASSERT_NO_FATAL_FAILURE(expect_front_ends_agree(wire, report, slots, story));
    EXPECT_EQ(story.front().type, obs::TraceEventType::kFlowPromoted);
  }
  {
    SCOPED_TRACE("stale flow on the session's tuple");
    // 100 downstream RTP packets on the session's tuple under another
    // SSRC, the last one 70 s (past the flow idle timeout) before the
    // session: the flow restarts at the session's first packet in every
    // front-end, whenever each one last swept its flow table.
    const sim::LabeledSession later = packet_session(
        sim::CloudPlatform::kXboxCloud, sim::GameTitle::kGenshinImpact, 202,
        90.0);
    const auto down = std::find_if(
        later.packets.begin(), later.packets.end(),
        [](const net::PacketRecord& pkt) {
          return pkt.direction == net::Direction::kDownstream && pkt.rtp;
        });
    ASSERT_NE(down, later.packets.end());
    constexpr int kStale = 100;
    const net::Timestamp stale_end =
        later.packets.front().timestamp - 70 * net::kNanosPerSecond;
    std::vector<net::PacketRecord> wire;
    for (int i = 0; i < kStale; ++i) {
      net::PacketRecord pkt = *down;
      pkt.timestamp =
          stale_end - (kStale - 1 - i) * (net::kNanosPerSecond / 20);
      pkt.rtp->ssrc = down->rtp->ssrc + 1;
      pkt.rtp->sequence = static_cast<std::uint16_t>(i);
      wire.push_back(pkt);
    }
    ASSERT_GT(wire.front().timestamp, 0);
    wire.insert(wire.end(), later.packets.begin(), later.packets.end());

    ASSERT_NO_FATAL_FAILURE(expect_front_ends_agree(wire, report, slots, story));
    EXPECT_EQ(story.front().type, obs::TraceEventType::kFlowPromoted);
  }
}

TEST(SessionEngine, PooledResetReproducesFreshEngineByteIdentically) {
  const PipelineParams params = default_pipeline_params();
  const auto first =
      packet_session(sim::CloudPlatform::kGeforceNow, sim::GameTitle::kCsgo, 7);
  const auto second = packet_session(sim::CloudPlatform::kXboxCloud,
                                     sim::GameTitle::kDota2, 8);

  SlotHistory history;
  const auto run = [&](SessionEngine& engine,
                       const sim::LabeledSession& session,
                       std::uint64_t id) {
    const SessionObserver observer{nullptr, nullptr, id, &history.hook()};
    engine.start(session.packets.front().timestamp);
    for (const auto& pkt : session.packets) engine.on_packet(pkt, observer);
    return engine.finish(observer);  // copies via the caller's SessionReport
  };

  SessionEngine reused(suite().models(), &params);
  const SessionReport first_report = run(reused, first, 1);
  EXPECT_GT(history.sessions().at(1).size(), 25u);
  reused.reset();
  const SessionReport second_reused = run(reused, second, 2);

  SessionEngine fresh(suite().models(), &params);
  const SessionReport second_fresh = run(fresh, second, 3);
  EXPECT_EQ(second_reused, second_fresh);
  EXPECT_EQ(history.sessions().at(2), history.sessions().at(3));
  EXPECT_NE(second_reused, first_report);
}

TEST(SessionEngine, TelemetryModeMatchesPipelineProcessSession) {
  // process_session pushes slots in RealtimePipeline::kSlotBatch chunks;
  // a push_slot loop must produce the same report and the same decision
  // trace. The short session fits in one chunk. The long one spans more
  // than two, and its first pattern row (slot min_transitions) lands
  // mid-chunk, so the stage, pattern and per-slot steps all cross chunk
  // boundaries.
  const PipelineParams params = default_pipeline_params();
  const sim::SessionGenerator gen;
  struct Case {
    double gameplay_seconds;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{200.0, 9}, Case{700.0, 12}}) {
    SCOPED_TRACE(std::to_string(c.gameplay_seconds) + " s of gameplay");
    sim::SessionSpec spec;
    spec.title = sim::GameTitle::kFortnite;
    spec.gameplay_seconds = c.gameplay_seconds;
    spec.seed = c.seed;
    const sim::LabeledSession session = gen.generate_slots_only(spec);

    obs::DecisionTraceRing batch_trace(4096);
    SlotHistory batch_slots;
    RealtimePipeline pipeline(suite().models(), params);
    pipeline.set_trace(&batch_trace);
    pipeline.set_slot_hook(batch_slots.hook());
    const SessionReport expected = pipeline.process_session(session);
    const auto batch_history = batch_slots.take_all();
    ASSERT_EQ(batch_history.size(), 1u);

    obs::DecisionTraceRing step_trace(4096);
    SlotHistory step_slots;
    const SessionObserver observer{nullptr, &step_trace, 1,
                                   &step_slots.hook()};
    SessionEngine engine(suite().models(), &params);
    engine.start(session.launch_begin);
    engine.set_title(suite().models().title->classify(session.packets,
                                                      session.launch_begin));
    for (const sim::SlotSample& sample : session.slots) {
      SlotTelemetry slot;
      slot.volumetrics = RawSlotVolumetrics{sample.down_bytes,
                                            sample.down_packets,
                                            sample.up_bytes,
                                            sample.up_packets};
      slot.frames = sample.frames;
      slot.rtt_ms = sample.rtt_ms;
      slot.loss_rate = sample.loss_rate;
      engine.push_slot(slot, observer);
    }
    EXPECT_EQ(engine.finish(observer), expected);
    EXPECT_EQ(step_slots.take_all(), batch_history);
    EXPECT_EQ(drain_story(step_trace), drain_story(batch_trace));
    if (c.gameplay_seconds > 600.0) {
      EXPECT_GT(batch_history.front().size(),
                2 * RealtimePipeline::kSlotBatch);
      EXPECT_NE(params.pattern.min_transitions % RealtimePipeline::kSlotBatch,
                0u);
      EXPECT_GT(expected.pattern_decided_at_s, 0.0)
          << "want a confident pattern verdict inside the batched span";
    }
  }
}

/// Runs `wire` through a fresh standalone engine started at `begin`;
/// returns the report and its slot history.
std::pair<SessionReport, std::vector<SlotRecord>> run_engine(
    std::span<const net::PacketRecord> wire, net::Timestamp begin) {
  static const PipelineParams params = default_pipeline_params();
  SlotHistory history;
  const SessionObserver observer{nullptr, nullptr, 1, &history.hook()};
  SessionEngine engine(suite().models(), &params);
  engine.start(begin);
  for (const net::PacketRecord& pkt : wire) engine.on_packet(pkt, observer);
  SessionReport report = engine.finish(observer);
  EXPECT_EQ(engine.slots_closed(), static_cast<std::size_t>(report.duration_s));
  auto sessions = history.take_all();
  EXPECT_EQ(sessions.size(), 1u);
  return {std::move(report), sessions.empty() ? std::vector<SlotRecord>{}
                                              : std::move(sessions.front())};
}

void expect_well_defined(const SessionReport& report,
                         const std::vector<SlotRecord>& slots) {
  EXPECT_EQ(report.duration_s, static_cast<double>(slots.size()));
  EXPECT_TRUE(std::isfinite(report.mean_down_mbps));
  EXPECT_NEAR(report.stage_seconds[0] + report.stage_seconds[1] +
                  report.stage_seconds[2],
              report.duration_s, 1e-9);
  for (const SlotRecord& slot : slots) {
    EXPECT_GE(slot.stage, 0);
    EXPECT_LT(slot.stage, 3);
    EXPECT_LE(slot.objective, QoeLevel::kGood);
    EXPECT_LE(slot.effective, QoeLevel::kGood);
    EXPECT_TRUE(std::isfinite(slot.throughput_mbps));
    EXPECT_GE(slot.throughput_mbps, 0.0);
    EXPECT_GE(slot.frame_rate, 0.0);
    EXPECT_GE(slot.loss_rate, 0.0);
    EXPECT_LE(slot.loss_rate, 1.0);
  }
}

// The late-packet rule (SessionEngine::on_packet): a packet whose slot
// has closed is tallied into the open slot and counted by the QoE
// estimator as received but reordered; a duplicate only lowers the
// slot's loss estimate. Neither reopens a slot, so the slot count is the
// clean stream's.
TEST(SessionEngine, LateAndDuplicatePacketsFoldIntoTheOpenSlot) {
  const auto session = packet_session(sim::CloudPlatform::kGeforceNow,
                                      sim::GameTitle::kFortnite, 31);
  const std::vector<net::PacketRecord>& clean = session.packets;
  const net::Timestamp begin = clean.front().timestamp;
  const auto slot_of = [begin](const net::PacketRecord& pkt) {
    return static_cast<std::size_t>((pkt.timestamp - begin) /
                                    net::kNanosPerSecond);
  };
  const auto [clean_report, clean_slots] = run_engine(clean, begin);
  ASSERT_GT(clean_slots.size(), 20u);
  expect_well_defined(clean_report, clean_slots);

  // Late: past the title window, each slot's last packet arrives after
  // the next slot's first three, when its own slot has closed. Its
  // downstream bytes move to the slot open when it arrives.
  std::vector<double> moved_mbps(clean_slots.size(), 0.0);
  std::vector<net::PacketRecord> late;
  std::optional<net::PacketRecord> held;
  int hold_for = 0;
  std::size_t late_packets = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (!held && slot_of(clean[i]) >= 8 && i + 1 < clean.size() &&
        slot_of(clean[i + 1]) == slot_of(clean[i]) + 1) {
      held = clean[i];
      hold_for = 3;
      continue;
    }
    late.push_back(clean[i]);
    if (held && --hold_for == 0) {
      const std::size_t open = slot_of(late.back());
      ASSERT_GT(open, slot_of(*held));
      if (held->direction == net::Direction::kDownstream) {
        const double mbps = held->payload_size * 8.0 / 1e6;
        moved_mbps[slot_of(*held)] -= mbps;
        moved_mbps[open] += mbps;
      }
      late.push_back(*held);
      held.reset();
      ++late_packets;
    }
  }
  ASSERT_FALSE(held.has_value());
  ASSERT_GT(late_packets, 15u);
  const auto [late_report, late_slots] = run_engine(late, begin);
  expect_well_defined(late_report, late_slots);
  ASSERT_EQ(late_slots.size(), clean_slots.size());
  for (std::size_t s = 0; s < clean_slots.size(); ++s)
    EXPECT_NEAR(late_slots[s].throughput_mbps,
                clean_slots[s].throughput_mbps + moved_mbps[s], 1e-9)
        << "slot " << s;

  // Duplicated and late: every 25th downstream RTP packet arrives twice.
  std::vector<net::PacketRecord> duplicated;
  std::size_t downstream = 0;
  for (const net::PacketRecord& pkt : late) {
    duplicated.push_back(pkt);
    if (pkt.direction == net::Direction::kDownstream && pkt.rtp &&
        ++downstream % 25 == 0)
      duplicated.push_back(pkt);
  }
  const auto [dup_report, dup_slots] = run_engine(duplicated, begin);
  expect_well_defined(dup_report, dup_slots);
  ASSERT_EQ(dup_slots.size(), clean_slots.size());
  for (std::size_t s = 0; s < dup_slots.size(); ++s) {
    EXPECT_GE(dup_slots[s].throughput_mbps, late_slots[s].throughput_mbps);
    EXPECT_LE(dup_slots[s].loss_rate, late_slots[s].loss_rate);
  }
}

std::vector<SlotTelemetry> telemetry_of(const sim::LabeledSession& session) {
  std::vector<SlotTelemetry> slots;
  for (const sim::SlotSample& sample : session.slots) {
    SlotTelemetry& slot = slots.emplace_back();
    slot.volumetrics =
        RawSlotVolumetrics{sample.down_bytes, sample.down_packets,
                           sample.up_bytes, sample.up_packets};
    slot.frames = sample.frames;
    slot.rtt_ms = sample.rtt_ms;
    slot.loss_rate = sample.loss_rate;
  }
  return slots;
}

/// Every slot's pattern verdict, replayed one slot at a time from the
/// stages the engine recorded: nullopt below the transition floor or the
/// confidence threshold.
std::vector<std::optional<PatternResult>> slot_verdicts(
    const std::vector<SlotRecord>& slots) {
  const PatternInferrer& pattern = *suite().models().pattern;
  std::vector<double> scratch(pattern.scratch_size());
  TransitionTracker transitions;
  std::vector<std::optional<PatternResult>> verdicts;
  for (const SlotRecord& slot : slots) {
    transitions.push(slot.stage);
    verdicts.push_back(pattern.infer(transitions, scratch));
  }
  return verdicts;
}

// Without events or metrics, push_slots walks the pattern forest only
// over the rows a report reads (the span's first confident row while the
// session is undecided, and its last confident row). The report must
// not depend on that: every span length and every observer gives the
// report of the every-row walk, which the test also derives from a
// slot-by-slot replay of the recorded stages.
TEST(SessionEngine, PatternWalkLeavesReportsIndependentOfSpanAndObserver) {
  const PipelineParams params = default_pipeline_params();
  const sim::SessionGenerator gen;
  struct Case {
    sim::GameTitle title;
    std::uint64_t seed;
  };
  // Never confident; first confident at slot 338 and lapsed from 418 on;
  // confident from 149, lapsed over slots 191-498, confident again.
  constexpr Case kCases[] = {{sim::GameTitle::kHonkaiStarRail, 2},
                             {sim::GameTitle::kBaldursGate3, 1},
                             {sim::GameTitle::kFortnite, 1}};
  constexpr std::size_t kWhole = 0;
  constexpr std::size_t kSpans[] = {1, 15, 16, 17, 256, kWhole};
  enum Mode { kEmpty, kEvents, kMetrics };

  // What the chosen sessions show, per span length (index into kSpans).
  bool never_confident = false;
  std::array<bool, std::size(kSpans)> first_mid_span{};
  std::array<bool, std::size(kSpans)> last_far_from_end{};
  std::array<bool, std::size(kSpans)> lapse_across_boundary{};

  for (const Case& c : kCases) {
    sim::SessionSpec spec;
    spec.title = c.title;
    spec.gameplay_seconds = 600.0;
    spec.seed = c.seed;
    const sim::LabeledSession session = gen.generate_slots_only(spec);
    const std::vector<SlotTelemetry> slots = telemetry_of(session);
    const TitleResult title = suite().models().title->classify(
        session.packets, session.launch_begin);

    std::vector<obs::TraceEvent> events;
    const SessionEventCallback record = [&](const obs::TraceEvent& event) {
      events.push_back(event);
    };
    SlotHistory history;
    const auto run = [&](std::size_t span, Mode mode) {
      obs::MetricsRegistry registry;
      const PipelineMetrics metrics = PipelineMetrics::create(registry);
      SessionObserver observer;
      if (mode == kEvents) observer = {&record, nullptr, 1, &history.hook()};
      SessionEngine engine(suite().models(), &params);
      if (mode == kMetrics) engine.set_metrics(&metrics);
      engine.start(session.launch_begin);
      engine.set_title(title);
      const std::span<const SlotTelemetry> all(slots);
      if (span == kWhole) span = all.size();
      for (std::size_t at = 0; at < all.size(); at += span)
        engine.push_slots(all.subspan(at, std::min(span, all.size() - at)),
                          observer);
      return engine.finish(observer);
    };

    // The every-row walk, one slot at a time, and its slot-by-slot replay.
    const SessionReport expected = run(1, kEvents);
    const std::vector<obs::TraceEvent> expected_events =
        std::exchange(events, {});
    const std::vector<SlotRecord> records = history.take_all().at(0);
    ASSERT_EQ(records.size(), slots.size());
    const auto verdicts = slot_verdicts(records);
    const auto confident = [&](std::size_t i) {
      return verdicts[i].has_value();
    };
    std::optional<std::size_t> first;
    std::optional<std::size_t> last;
    for (std::size_t i = 0; i < verdicts.size(); ++i)
      if (confident(i)) {
        if (!first) first = i;
        last = i;
      }
    if (first) {
      EXPECT_EQ(expected.pattern_decided_at_s, static_cast<double>(*first + 1));
      EXPECT_EQ(expected.pattern, verdicts[*last]);
    } else {
      never_confident = true;
      EXPECT_LT(expected.pattern_decided_at_s, 0.0);
      TransitionTracker transitions;
      for (const SlotRecord& slot : records) transitions.push(slot.stage);
      EXPECT_EQ(expected.pattern, suite().models().pattern->infer_unchecked(
                                      transitions));
    }

    for (std::size_t k = 0; k < std::size(kSpans); ++k) {
      const std::size_t span = kSpans[k] == kWhole ? slots.size() : kSpans[k];
      SCOPED_TRACE("span " + std::to_string(span));
      for (const Mode mode : {kEmpty, kEvents, kMetrics}) {
        SCOPED_TRACE("mode " + std::to_string(mode));
        EXPECT_EQ(run(span, mode), expected);
      }
      EXPECT_EQ(std::exchange(events, {}), expected_events);
      EXPECT_EQ(history.take_all().at(0), records);

      if (first && *first % span != 0 && *first % span != span - 1)
        first_mid_span[k] = true;
      for (std::size_t begin = 0; begin < slots.size(); begin += span) {
        const std::size_t end = std::min(begin + span, slots.size());
        for (std::size_t i = end; i-- > begin;)
          if (confident(i)) {
            if (end - 1 - i > ml::CompiledForest::kWalkGroup)
              last_far_from_end[k] = true;
            break;
          }
        if (begin > 0 && first && *first < begin - 1 &&
            !confident(begin - 1) && !confident(begin))
          lapse_across_boundary[k] = true;
      }
    }
  }

  // Each case the walk plan distinguishes shows up in some session.
  EXPECT_TRUE(never_confident);
  for (std::size_t k = 0; k < std::size(kSpans); ++k) {
    SCOPED_TRACE("span index " + std::to_string(k));
    if (kSpans[k] != 1) {
      EXPECT_TRUE(first_mid_span[k]);
    }
    if (kSpans[k] == kWhole ||
        kSpans[k] > ml::CompiledForest::kWalkGroup + 1) {
      EXPECT_TRUE(last_far_from_end[k]);
    }
    if (kSpans[k] != kWhole) {
      EXPECT_TRUE(lapse_across_boundary[k]);
    }
  }
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

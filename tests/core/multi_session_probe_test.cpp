#include "core/multi_session_probe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/model_suite.hpp"
#include "core/streaming_analyzer.hpp"
#include "probe_test_models.hpp"
#include "sim/cross_traffic.hpp"
#include "sim/fleet.hpp"

namespace cgctx::core {
namespace {

const ModelSuite& suite() { return probe_test_suite(); }

sim::LabeledSession make_session(sim::GameTitle title, double start_s,
                                 std::uint64_t seed) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = title;
  spec.gameplay_seconds = 40;
  spec.seed = seed;
  spec.start_time = net::duration_from_seconds(start_s);
  return gen.generate(spec);
}

std::vector<net::PacketRecord> interleave(
    std::initializer_list<const std::vector<net::PacketRecord>*> streams) {
  std::vector<net::PacketRecord> wire;
  for (const auto* stream : streams)
    wire.insert(wire.end(), stream->begin(), stream->end());
  std::sort(wire.begin(), wire.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });
  return wire;
}

TEST(MultiSessionProbe, SeparatesTwoConcurrentSubscribers) {
  const auto a = make_session(sim::GameTitle::kGenshinImpact, 0.0, 51);
  const auto b = make_session(sim::GameTitle::kFortnite, 12.0, 52);
  const auto wire = interleave({&a.packets, &b.packets});

  std::vector<SessionReport> reports;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { reports.push_back(r); });
  for (const auto& pkt : wire) probe.push(pkt);
  EXPECT_EQ(probe.live_sessions(), 2u);
  probe.flush();
  EXPECT_EQ(probe.live_sessions(), 0u);
  ASSERT_EQ(reports.size(), 2u);

  // Each report maps to exactly one of the two sessions by flow tuple.
  std::set<net::FiveTuple> flows;
  for (const auto& report : reports) {
    ASSERT_TRUE(report.detection.has_value());
    flows.insert(report.detection->flow);
    EXPECT_GT(report.slots.size(), 40u);
  }
  EXPECT_TRUE(flows.count(a.tuple.canonical()));
  EXPECT_TRUE(flows.count(b.tuple.canonical()));
}

TEST(MultiSessionProbe, IdleTimeoutRetiresFinishedSessions) {
  // Session A ends long before B starts; B's traffic should trigger A's
  // retirement via the idle sweep.
  const auto a = make_session(sim::GameTitle::kCsgo, 0.0, 53);
  const auto b = make_session(sim::GameTitle::kDota2, 200.0, 54);
  const auto wire = interleave({&a.packets, &b.packets});

  std::size_t live_when_b_active = 0;
  std::vector<SessionReport> reports;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { reports.push_back(r); });
  for (const auto& pkt : wire) {
    probe.push(pkt);
    if (pkt.timestamp > net::duration_from_seconds(260.0))
      live_when_b_active = probe.live_sessions();
  }
  // A was retired mid-stream once it idled out.
  EXPECT_EQ(live_when_b_active, 1u);
  EXPECT_GE(reports.size(), 1u);
  probe.flush();
  EXPECT_EQ(reports.size(), 2u);
}

TEST(MultiSessionProbe, IgnoresPureCrossTraffic) {
  ml::Rng rng(55);
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      {});
  for (const auto& pkt : sim::voip_flow(
           net::Ipv4Addr::from_octets(10, 7, 7, 7), 40.0, rng))
    probe.push(pkt);
  EXPECT_EQ(probe.live_sessions(), 0u);
  probe.flush();
  EXPECT_EQ(probe.reports_emitted(), 0u);
}

TEST(MultiSessionProbe, ReportsMatchSingleSessionAnalysis) {
  const auto session = make_session(sim::GameTitle::kOverwatch2, 0.0, 56);
  SessionReport probe_report;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { probe_report = r; });
  for (const auto& pkt : session.packets) probe.push(pkt);
  probe.flush();

  StreamingAnalyzer single(suite().models(), default_pipeline_params(), {});
  for (const auto& pkt : session.packets) single.push(pkt);
  const SessionReport single_report = single.finish();

  EXPECT_EQ(probe_report.title.label, single_report.title.label);
  EXPECT_EQ(probe_report.slots.size(), single_report.slots.size());
}

TEST(MultiSessionProbe, RetireThenResumeSameTupleRedetects) {
  // The same five-tuple carries two sessions separated by a long idle
  // gap (client reconnects to the same server from the same port). The
  // first session's flow-table entry must not survive its retirement:
  // stale cumulative stats dilute the lifetime-mean downstream rate below
  // the detector's threshold and the resumed session never re-fires.
  const auto first = make_session(sim::GameTitle::kFortnite, 0.0, 57);
  sim::SessionSpec resumed_spec = first.spec;
  resumed_spec.start_time = net::duration_from_seconds(200.0);
  const auto resumed = sim::SessionGenerator().generate(resumed_spec);
  ASSERT_EQ(first.tuple.canonical(), resumed.tuple.canonical());

  std::vector<SessionReport> reports;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { reports.push_back(r); });
  for (const auto& pkt : first.packets) probe.push(pkt);
  for (const auto& pkt : resumed.packets) probe.push(pkt);
  // First session was retired by the idle sweep when the resume began.
  EXPECT_EQ(reports.size(), 1u);
  probe.flush();
  ASSERT_EQ(reports.size(), 2u);
  // Both sessions were fully analyzed, not just the first.
  for (const auto& report : reports) {
    ASSERT_TRUE(report.detection.has_value());
    EXPECT_EQ(report.detection->flow, first.tuple.canonical());
    EXPECT_GT(report.slots.size(), 35u);
  }
}

TEST(MultiSessionProbe, FlowTableStaysBoundedUnderSustainedCrossTraffic) {
  // A vantage point sees an endless churn of short non-gaming flows; the
  // shared table must evict them instead of growing monotonically.
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      {});
  ml::Rng rng(58);
  constexpr std::size_t kFlows = 120;
  std::size_t peak_table = 0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const auto client = net::Ipv4Addr::from_octets(
        10, 50, static_cast<std::uint8_t>(i / 250 + 1),
        static_cast<std::uint8_t>(i % 250 + 1));
    auto flow = sim::voip_flow(client, 4.0, rng);
    const net::Duration offset =
        static_cast<net::Duration>(i) * 2 * net::kNanosPerSecond;
    for (auto& pkt : flow) pkt.timestamp += offset;
    for (const auto& pkt : flow) probe.push(pkt);
    peak_table = std::max(peak_table, probe.flow_table_size());
  }
  // 120 distinct flows entered over ~240 s of wire time; with a 60 s idle
  // timeout only a recent window can be live at once.
  EXPECT_LT(peak_table, 60u);
  EXPECT_GT(probe.flow_evictions(), 60u);
  EXPECT_EQ(probe.live_sessions(), 0u);
}

TEST(MultiSessionProbe, LookbackReplayReproducesSingleAnalyzerExactly) {
  // Promotion replays the flow's lookback packets into the new analyzer,
  // so the probe's report must match a dedicated StreamingAnalyzer fed
  // the same wire field-for-field — including the earliest launch slots.
  const auto session = make_session(sim::GameTitle::kGenshinImpact, 3.0, 59);
  SessionReport probe_report;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { probe_report = r; });
  for (const auto& pkt : session.packets) probe.push(pkt);
  probe.flush();

  StreamingAnalyzer single(suite().models(), default_pipeline_params(), {});
  for (const auto& pkt : session.packets) single.push(pkt);
  EXPECT_EQ(probe_report, single.finish());
}

TEST(MultiSessionProbe, FlushMidStreamStartsTheNextSessionAfterTheFlush) {
  // flush() retires a live session. Its flow keeps sending and promotes
  // again; the new session must start from post-flush packets only, not
  // replay the retired session's launch packets still within 10 s.
  const auto session = make_session(sim::GameTitle::kFortnite, 0.0, 60);
  const net::Timestamp flush_at =
      session.packets.front().timestamp + 5 * net::kNanosPerSecond;

  std::vector<SessionReport> reports;
  net::Timestamp now = 0;
  std::vector<std::pair<net::Timestamp, double>> detections;  // (at, age s)
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { reports.push_back(r); },
      [&](const StreamEvent& event) {
        if (event.type == StreamEventType::kFlowDetected)
          detections.emplace_back(now, event.at_seconds);
      });
  net::Timestamp first_after_flush = 0;
  for (const auto& pkt : session.packets) {
    if (first_after_flush == 0 && pkt.timestamp >= flush_at) {
      probe.flush();
      ASSERT_EQ(reports.size(), 1u);
      first_after_flush = pkt.timestamp;
    }
    now = pkt.timestamp;
    probe.push(pkt);
  }
  probe.flush();

  ASSERT_EQ(reports.size(), 2u);
  ASSERT_EQ(detections.size(), 2u);
  // The second session's clock starts at or after the first post-flush
  // packet: detected at `at`, it is no older than `at - first_after_flush`.
  const auto [at, age_s] = detections[1];
  EXPECT_LE(age_s, net::duration_to_seconds(at - first_after_flush));
  EXPECT_LE(reports[1].duration_s,
            std::ceil(net::duration_to_seconds(session.packets.back().timestamp -
                                               first_after_flush)));
}

TEST(MultiSessionProbe, CrossTrafficChangesNeitherReportNorLookback) {
  // One gaming session among 102 VoIP/web/video flows. None of the cross
  // flows can ever promote, so none of their packets enters the lookback,
  // and the session's report is exactly its report on an empty wire.
  sim::FleetReplayOptions options;
  options.sessions = 1;
  options.seed = 61;
  options.gameplay_seconds = 20.0;
  options.start_spread_s = 5.0;
  options.cross_traffic_flows = 102;
  options.cross_traffic_duration_s = 12.0;
  const sim::FleetReplay replay = sim::build_fleet_replay(options);
  const net::FiveTuple gaming = replay.session_flows.front();
  const auto in_session = [&](const net::PacketRecord& pkt) {
    return pkt.tuple.canonical() == gaming;
  };
  std::vector<net::PacketRecord> alone;
  std::copy_if(replay.wire.begin(), replay.wire.end(),
               std::back_inserter(alone), in_session);
  ASSERT_LT(alone.size(), replay.wire.size() / 2);

  const auto run = [&](const std::vector<net::PacketRecord>& wire,
                       std::size_t& lookback_excess) {
    std::vector<SessionReport> reports;
    MultiSessionProbe probe(
        suite().models(), MultiSessionProbeParams{default_pipeline_params()},
        [&](const SessionReport& r) { reports.push_back(r); });
    std::size_t session_packets = 0;
    lookback_excess = 0;
    for (const auto& pkt : wire) {
      probe.push(pkt);
      if (in_session(pkt)) ++session_packets;
      if (probe.live_sessions() == 0 &&
          probe.lookback_size() > session_packets)
        lookback_excess = std::max(lookback_excess,
                                   probe.lookback_size() - session_packets);
    }
    probe.flush();
    EXPECT_EQ(probe.lookback_drops(), 0u);
    return reports;
  };
  std::size_t excess = 0;
  const std::vector<SessionReport> mixed = run(replay.wire, excess);
  EXPECT_EQ(excess, 0u) << "cross-traffic packets entered the lookback";
  const std::vector<SessionReport> single = run(alone, excess);
  ASSERT_EQ(mixed.size(), 1u);
  EXPECT_EQ(mixed, single);
}

TEST(MultiSessionProbe, LookbackCapBoundsAFloodAndCountsDrops) {
  // A UDP flood on a platform port passes is_candidate() but never
  // promotes (no RTP), so it fills the lookback faster than 10 s ages it.
  constexpr std::size_t kExcess = 4464;
  constexpr std::size_t kFlood = LaunchLookback::kCap + kExcess;
  net::PacketRecord flood;
  flood.direction = net::Direction::kUpstream;
  flood.tuple = net::FiveTuple{net::Ipv4Addr::from_octets(10, 9, 9, 9),
                               net::Ipv4Addr::from_octets(198, 51, 100, 7),
                               50000, 49003, 17};
  flood.payload_size = 1200;

  ProbeStats stats;
  std::vector<SessionReport> reports;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { reports.push_back(r); });
  probe.set_stats(&stats);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < kFlood; ++i) {  // 10 k pkts/s for 7 s
    flood.timestamp = static_cast<net::Timestamp>(i) * 100'000;
    probe.push(flood);
    peak = std::max(peak, probe.lookback_size());
  }
  EXPECT_EQ(peak, LaunchLookback::kCap);
  EXPECT_EQ(probe.lookback_drops(), kExcess);
  const ProbeStatsSnapshot snapshot = stats.snapshot();
  EXPECT_EQ(snapshot.lookback_dropped, kExcess);
  const ProbeStatsSnapshot shards[] = {snapshot, snapshot};
  EXPECT_EQ(ProbeStats::aggregate(shards).lookback_dropped, 2 * kExcess);
  EXPECT_EQ(probe.live_sessions(), 0u);
  EXPECT_TRUE(reports.empty());

  // A gaming session that starts after the flood is reported exactly as
  // on an empty wire.
  const auto session = make_session(sim::GameTitle::kCsgo, 8.0, 62);
  for (const auto& pkt : session.packets) probe.push(pkt);
  probe.flush();
  EXPECT_LE(probe.lookback_size(), LaunchLookback::kCap);
  ASSERT_EQ(reports.size(), 1u);

  SessionReport alone;
  MultiSessionProbe reference(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { alone = r; });
  for (const auto& pkt : session.packets) reference.push(pkt);
  reference.flush();
  EXPECT_EQ(reports.front(), alone);
}

TEST(MultiSessionProbe, RequiresModels) {
  EXPECT_THROW(
      MultiSessionProbe(PipelineModels{}, MultiSessionProbeParams{}, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace cgctx::core

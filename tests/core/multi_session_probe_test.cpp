#include "core/multi_session_probe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/model_suite.hpp"
#include "core/slot_history.hpp"
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
  SlotHistory history;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { reports.push_back(r); }, {},
      history.hook());
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
    EXPECT_GT(report.duration_s, 40.0);
  }
  // Each session's slots reached the hook under its own id.
  ASSERT_EQ(history.sessions().size(), 2u);
  for (const auto& [id, slots] : history.sessions())
    EXPECT_GT(slots.size(), 40u);
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
  SlotHistory probe_slots;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { probe_report = r; }, {},
      probe_slots.hook());
  for (const auto& pkt : session.packets) probe.push(pkt);
  probe.flush();

  SlotHistory single_slots;
  StreamingAnalyzer single(suite().models(), default_pipeline_params(), {},
                           single_slots.hook());
  for (const auto& pkt : session.packets) single.push(pkt);
  const SessionReport single_report = single.finish();

  EXPECT_EQ(probe_report.title.label, single_report.title.label);
  const auto probe_history = probe_slots.take_all();
  const auto single_history = single_slots.take_all();
  ASSERT_EQ(probe_history.size(), 1u);
  ASSERT_EQ(single_history.size(), 1u);
  EXPECT_EQ(probe_history[0].size(), single_history[0].size());
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
    EXPECT_GT(report.duration_s, 35.0);
  }
}

TEST(MultiSessionProbe, TitleWindowsAreLentFromStartToVerdict) {
  // B starts 12 s after A, when A's 5 s title window has long closed: A
  // gives its window back at its verdict and B borrows that same one, so
  // the probe never holds more than one window.
  const auto a = make_session(sim::GameTitle::kGenshinImpact, 0.0, 51);
  const auto b = make_session(sim::GameTitle::kFortnite, 12.0, 52);
  const auto wire = interleave({&a.packets, &b.packets});
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      {});
  std::size_t most_on_loan = 0;
  std::size_t most_windows = 0;
  bool idle_between = false;  // A past its verdict, B not yet started
  for (const auto& pkt : wire) {
    probe.push(pkt);
    most_on_loan = std::max(most_on_loan, probe.title_windows_on_loan());
    most_windows = std::max(most_windows, probe.title_windows_on_loan() +
                                              probe.title_windows_pooled());
    if (probe.live_sessions() == 1 && probe.title_windows_on_loan() == 0)
      idle_between = true;
  }
  EXPECT_TRUE(idle_between);
  EXPECT_EQ(most_on_loan, 1u);
  EXPECT_EQ(most_windows, 1u);
  EXPECT_EQ(probe.live_sessions(), 2u);
  EXPECT_EQ(probe.title_windows_on_loan(), 0u);
  probe.flush();
  EXPECT_EQ(probe.title_windows_on_loan(), 0u);
  EXPECT_EQ(probe.title_windows_pooled(), 1u);

  // A session retired inside its launch window still hands its window
  // back (its verdict comes at retire, from what arrived).
  MultiSessionProbe early(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      {});
  for (const auto& pkt : a.packets) {
    early.push(pkt);
    if (early.title_windows_on_loan() == 1) break;
  }
  ASSERT_EQ(early.live_sessions(), 1u);
  early.flush();
  EXPECT_EQ(early.reports_emitted(), 1u);
  EXPECT_EQ(early.title_windows_on_loan(), 0u);
  EXPECT_EQ(early.title_windows_pooled(), 1u);
}

/// Moves `flow` onto server port `port` and strips its RTP headers:
/// candidate-port traffic the detector can never promote.
void move_to_candidate_port(std::vector<net::PacketRecord>& flow,
                            std::uint16_t port) {
  for (net::PacketRecord& pkt : flow) {
    if (pkt.direction == net::Direction::kUpstream) {
      pkt.tuple.dst_port = port;
    } else {
      pkt.tuple.src_port = port;
    }
    pkt.rtp.reset();
  }
}

TEST(MultiSessionProbe, FlowTableStaysBoundedUnderSustainedCrossTraffic) {
  // A vantage point sees an endless churn of short non-gaming flows. Off
  // the platform ports they are gated and never reach the shared table;
  // on them they enter it, and it must evict them instead of growing
  // monotonically.
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      {});
  ml::Rng rng(58);
  constexpr std::size_t kFlows = 120;
  // Flow i: a 4 s VoIP call starting at 2i seconds of wire time.
  const auto churn_flow = [&rng](std::size_t i, std::uint8_t subnet) {
    const auto client = net::Ipv4Addr::from_octets(
        10, subnet, static_cast<std::uint8_t>(i / 250 + 1),
        static_cast<std::uint8_t>(i % 250 + 1));
    auto flow = sim::voip_flow(client, 4.0, rng);
    const net::Duration offset =
        static_cast<net::Duration>(i) * 2 * net::kNanosPerSecond;
    for (auto& pkt : flow) pkt.timestamp += offset;
    return flow;
  };

  // Ordinary VoIP churn (server ports 10000-19999): gated, no table entry.
  std::uint64_t voip_packets = 0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const auto flow = churn_flow(i, 50);
    for (const auto& pkt : flow) {
      probe.push(pkt);
      ASSERT_EQ(probe.flow_table_size(), 0u);
    }
    voip_packets += flow.size();
  }
  EXPECT_EQ(probe.gated_packets(), voip_packets);

  // The same churn on GeForce NOW and Xbox ports, without RTP so that it
  // never promotes, over the next ~240 s.
  std::size_t peak_table = 0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    auto flow = churn_flow(kFlows + i, 60);
    move_to_candidate_port(
        flow, static_cast<std::uint16_t>(i % 2 == 0 ? 49003 + (i / 2) % 4
                                                    : 9002 + (i / 2) % 29));
    for (const auto& pkt : flow) probe.push(pkt);
    peak_table = std::max(peak_table, probe.flow_table_size());
  }
  // 120 distinct flows entered over ~240 s of wire time; with a 60 s idle
  // timeout only a recent window can be live at once.
  EXPECT_LT(peak_table, 60u);
  EXPECT_GT(probe.flow_evictions(), 60u);
  EXPECT_EQ(probe.live_sessions(), 0u);
  EXPECT_EQ(probe.gated_packets(), voip_packets);
}

TEST(MultiSessionProbe, GatedTrafficDoesNotAdvanceTheRetireClock) {
  // The idle sweep runs on candidate packet time. A session whose flow
  // goes silent, followed by 40 s of gated traffic only, stays live past
  // its 30 s idle timeout. It retires at the next candidate packet, or at
  // flush(), with the report it gets on an otherwise empty wire.
  const auto session = make_session(sim::GameTitle::kFortnite, 0.0, 63);
  SessionReport alone;
  SlotHistory alone_slots;
  {
    MultiSessionProbe reference(
        suite().models(), MultiSessionProbeParams{default_pipeline_params()},
        [&](const SessionReport& r) { alone = r; }, {}, alone_slots.hook());
    for (const auto& pkt : session.packets) reference.push(pkt);
    reference.flush();
  }
  const auto alone_history = alone_slots.take_all();

  const net::Timestamp silent_from = session.packets.back().timestamp;
  ml::Rng rng(64);
  auto voip =
      sim::voip_flow(net::Ipv4Addr::from_octets(10, 7, 7, 8), 40.0, rng);
  for (auto& pkt : voip)
    pkt.timestamp += silent_from + net::kNanosPerSecond / 10;
  ASSERT_GT(voip.back().timestamp - silent_from,
            MultiSessionProbeParams{}.session_idle_timeout +
                5 * net::kNanosPerSecond);

  // A candidate packet that can never promote: one small non-RTP datagram.
  net::PacketRecord candidate;
  candidate.direction = net::Direction::kUpstream;
  candidate.tuple = net::FiveTuple{net::Ipv4Addr::from_octets(10, 9, 9, 9),
                                   net::Ipv4Addr::from_octets(198, 51, 100, 7),
                                   50000, 49003, 17};
  candidate.payload_size = 100;
  candidate.timestamp = voip.back().timestamp + net::kNanosPerSecond / 1000;

  for (const bool candidate_follows : {true, false}) {
    SCOPED_TRACE(candidate_follows ? "retired by a candidate packet"
                                   : "retired by flush()");
    ProbeStats stats;
    std::vector<SessionReport> reports;
    SlotHistory history;
    MultiSessionProbe probe(
        suite().models(), MultiSessionProbeParams{default_pipeline_params()},
        [&](const SessionReport& r) { reports.push_back(r); }, {},
        history.hook());
    probe.set_stats(&stats);
    for (const auto& pkt : session.packets) probe.push(pkt);
    for (const auto& pkt : voip) probe.push(pkt);
    EXPECT_EQ(probe.live_sessions(), 1u);
    EXPECT_TRUE(reports.empty());
    EXPECT_EQ(probe.gated_packets(), voip.size());
    // The gated tally is local until a candidate packet or flush().
    EXPECT_EQ(stats.snapshot().packets_gated, 0u);
    if (candidate_follows) {
      probe.push(candidate);
      EXPECT_EQ(probe.live_sessions(), 0u);
      EXPECT_EQ(reports.size(), 1u);
      EXPECT_EQ(stats.snapshot().packets_gated, voip.size());
    }
    probe.flush();
    EXPECT_EQ(stats.snapshot().packets_gated, voip.size());
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports.front(), alone);
    EXPECT_EQ(history.take_all(), alone_history);
  }
}

TEST(MultiSessionProbe, LookbackReplayReproducesSingleAnalyzerExactly) {
  // Promotion replays the flow's lookback packets into the new analyzer,
  // so the probe's report must match a dedicated StreamingAnalyzer fed
  // the same wire field-for-field — including the earliest launch slots.
  const auto session = make_session(sim::GameTitle::kGenshinImpact, 3.0, 59);
  SessionReport probe_report;
  SlotHistory probe_slots;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { probe_report = r; }, {},
      probe_slots.hook());
  for (const auto& pkt : session.packets) probe.push(pkt);
  probe.flush();

  SlotHistory single_slots;
  StreamingAnalyzer single(suite().models(), default_pipeline_params(), {},
                           single_slots.hook());
  for (const auto& pkt : session.packets) single.push(pkt);
  EXPECT_EQ(probe_report, single.finish());
  const auto probe_history = probe_slots.take_all();
  ASSERT_EQ(probe_history.size(), 1u);
  EXPECT_EQ(probe_history, single_slots.take_all());
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
      [&](const obs::TraceEvent& event) {
        if (event.type == obs::TraceEventType::kFlowPromoted)
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
                       std::size_t& lookback_excess,
                       std::vector<std::vector<SlotRecord>>& slots) {
    std::vector<SessionReport> reports;
    SlotHistory history;
    MultiSessionProbe probe(
        suite().models(), MultiSessionProbeParams{default_pipeline_params()},
        [&](const SessionReport& r) { reports.push_back(r); }, {},
        history.hook());
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
    slots = history.take_all();
    return reports;
  };
  std::size_t excess = 0;
  std::vector<std::vector<SlotRecord>> mixed_slots;
  std::vector<std::vector<SlotRecord>> single_slots;
  const std::vector<SessionReport> mixed =
      run(replay.wire, excess, mixed_slots);
  EXPECT_EQ(excess, 0u) << "cross-traffic packets entered the lookback";
  const std::vector<SessionReport> single = run(alone, excess, single_slots);
  ASSERT_EQ(mixed.size(), 1u);
  EXPECT_EQ(mixed, single);
  ASSERT_EQ(mixed_slots.size(), 1u);
  EXPECT_EQ(mixed_slots, single_slots);
}

TEST(MultiSessionProbe, LookbackCapBoundsAFloodAndCountsDrops) {
  // A UDP flood on a platform port passes is_candidate() but never
  // promotes (no RTP), so it fills the lookback faster than 10 s ages it.
  constexpr std::size_t kExcess = 4464;
  constexpr std::size_t kFlood = LaunchFrontEnd::kCap + kExcess;
  net::PacketRecord flood;
  flood.direction = net::Direction::kUpstream;
  flood.tuple = net::FiveTuple{net::Ipv4Addr::from_octets(10, 9, 9, 9),
                               net::Ipv4Addr::from_octets(198, 51, 100, 7),
                               50000, 49003, 17};
  flood.payload_size = 1200;

  ProbeStats stats;
  std::vector<SessionReport> reports;
  SlotHistory history;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { reports.push_back(r); }, {},
      history.hook());
  probe.set_stats(&stats);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < kFlood; ++i) {  // 10 k pkts/s for 7 s
    flood.timestamp = static_cast<net::Timestamp>(i) * 100'000;
    probe.push(flood);
    peak = std::max(peak, probe.lookback_size());
  }
  EXPECT_EQ(peak, LaunchFrontEnd::kCap);
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
  EXPECT_LE(probe.lookback_size(), LaunchFrontEnd::kCap);
  ASSERT_EQ(reports.size(), 1u);

  SessionReport alone;
  SlotHistory alone_slots;
  MultiSessionProbe reference(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { alone = r; }, {}, alone_slots.hook());
  for (const auto& pkt : session.packets) reference.push(pkt);
  reference.flush();
  EXPECT_EQ(reports.front(), alone);
  const auto alone_history = alone_slots.take_all();
  ASSERT_EQ(alone_history.size(), 1u);
  EXPECT_EQ(history.take_all(), alone_history);
}

/// Rewrites `session`'s flow onto client `client` and server `server`.
void move_session(sim::LabeledSession& session, net::Ipv4Addr client,
                  net::Ipv4Addr server) {
  for (net::PacketRecord& pkt : session.packets) {
    const bool up = pkt.direction == net::Direction::kUpstream;
    (up ? pkt.tuple.src_ip : pkt.tuple.dst_ip) = client;
    (up ? pkt.tuple.dst_ip : pkt.tuple.src_ip) = server;
  }
  session.tuple.src_ip = client;
  session.tuple.dst_ip = server;
}

TEST(MultiSessionProbe, SweepAndFlushRetireInCanonicalKeyOrder) {
  // Two groups of four sessions, each promoted in descending tuple order.
  // Group A goes idle; group B's first packet sweeps it out, and flush()
  // retires group B. Both report in ascending canonical-tuple order, the
  // order of a sorted map, whatever the live-session table's layout.
  const auto server = net::Ipv4Addr::from_octets(198, 51, 100, 7);
  std::vector<std::vector<net::FiveTuple>> groups(2);
  std::vector<net::PacketRecord> wire;
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::uint8_t k = 0; k < 4; ++k) {
      auto session = make_session(sim::GameTitle::kFortnite,
                                  200.0 * static_cast<double>(g) + 3.0 * k,
                                  70 + 4 * g + k);
      move_session(session,
                   net::Ipv4Addr::from_octets(10, 0, 0,
                                              static_cast<std::uint8_t>(
                                                  100 - 10 * g - k)),
                   server);
      groups[g].push_back(session.tuple.canonical());
      wire.insert(wire.end(), session.packets.begin(), session.packets.end());
    }
  }
  std::stable_sort(wire.begin(), wire.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });

  std::vector<net::FiveTuple> promoted;
  std::vector<net::FiveTuple> retired;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { retired.push_back(r.detection->flow); });
  const net::Timestamp group_b_start = net::duration_from_seconds(200.0);
  std::size_t retired_by_sweep = 0;
  for (const auto& pkt : wire) {
    // Sessions ever promoted = live + retired; a push that grows it
    // promoted the pushed packet's flow.
    const std::size_t sessions_before = probe.live_sessions() + retired.size();
    probe.push(pkt);
    if (probe.live_sessions() + retired.size() > sessions_before)
      promoted.push_back(pkt.tuple.canonical());
    // Group B's first packet runs the sweep that retires group A.
    if (pkt.timestamp >= group_b_start && retired_by_sweep == 0)
      retired_by_sweep = retired.size();
  }
  probe.flush();

  // Promotion followed start order, which is descending tuple order.
  std::vector<net::FiveTuple> expected_promotion;
  for (const auto& group : groups)
    expected_promotion.insert(expected_promotion.end(), group.begin(),
                              group.end());
  ASSERT_EQ(promoted, expected_promotion);
  ASSERT_FALSE(std::is_sorted(groups[0].begin(), groups[0].end()));
  ASSERT_FALSE(std::is_sorted(groups[1].begin(), groups[1].end()));

  EXPECT_EQ(retired_by_sweep, 4u);
  std::vector<net::FiveTuple> expected;
  for (auto group : groups) {
    std::sort(group.begin(), group.end());
    expected.insert(expected.end(), group.begin(), group.end());
  }
  EXPECT_EQ(retired, expected);
}

TEST(MultiSessionProbe, StatsMatchAccessorsAfterSweepAndFlush) {
  // Stats are published at the idle sweep and at flush(), not per live
  // packet. Right after either, the ProbeStats snapshot must agree with
  // the probe's own accessors.
  const auto session = make_session(sim::GameTitle::kGenshinImpact, 0.0, 65);
  ml::Rng rng(66);
  std::vector<net::PacketRecord> wire = session.packets;
  const auto voip =
      sim::voip_flow(net::Ipv4Addr::from_octets(10, 7, 7, 9), 20.0, rng);
  wire.insert(wire.end(), voip.begin(), voip.end());
  // Non-promoting candidate flows: early ones idle out and are evicted,
  // late ones are still in the flow table at the end.
  for (const double start_s : {0.0, 2.0, 60.0, 62.0}) {
    auto flow = sim::voip_flow(
        net::Ipv4Addr::from_octets(10, 8, 0,
                                   static_cast<std::uint8_t>(start_s + 1)),
        4.0, rng);
    for (auto& pkt : flow)
      pkt.timestamp += net::duration_from_seconds(start_s);
    move_to_candidate_port(flow, 49004);
    wire.insert(wire.end(), flow.begin(), flow.end());
  }
  std::stable_sort(wire.begin(), wire.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });
  ASSERT_GT(wire.back().timestamp, net::duration_from_seconds(70.0));

  const auto expect_stats_match = [](const MultiSessionProbe& probe,
                                     const ProbeStats& stats) {
    const ProbeStatsSnapshot snapshot = stats.snapshot();
    EXPECT_EQ(snapshot.live_flows, probe.flow_table_size());
    EXPECT_EQ(snapshot.live_sessions, probe.live_sessions());
    EXPECT_EQ(snapshot.flow_evictions, probe.flow_evictions());
    EXPECT_EQ(snapshot.lookback_dropped, probe.lookback_drops());
    EXPECT_EQ(snapshot.packets_gated, probe.gated_packets());
    EXPECT_EQ(snapshot.reports_emitted, probe.reports_emitted());
    EXPECT_EQ(snapshot.title_windows_on_loan, probe.title_windows_on_loan());
    EXPECT_EQ(snapshot.title_windows_pooled, probe.title_windows_pooled());
  };

  ProbeStats stats;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      {});
  probe.set_stats(&stats);
  for (const auto& pkt : wire) probe.push(pkt);
  ASSERT_EQ(probe.live_sessions(), 1u);

  // One more packet of the live session, 6 s on: it runs a sweep first.
  net::PacketRecord late = session.packets.back();
  late.timestamp = wire.back().timestamp + 6 * net::kNanosPerSecond;
  probe.push(late);
  EXPECT_EQ(probe.live_sessions(), 1u);
  EXPECT_GT(probe.flow_evictions(), 0u);
  EXPECT_GT(probe.flow_table_size(), 0u);
  EXPECT_EQ(probe.gated_packets(), voip.size());
  {
    SCOPED_TRACE("after a sweep");
    expect_stats_match(probe, stats);
  }

  probe.flush();
  EXPECT_EQ(probe.live_sessions(), 0u);
  EXPECT_EQ(probe.reports_emitted(), 1u);
  {
    SCOPED_TRACE("after flush()");
    expect_stats_match(probe, stats);
  }
}

TEST(MultiSessionProbe, RequiresModels) {
  EXPECT_THROW(
      MultiSessionProbe(PipelineModels{}, MultiSessionProbeParams{}, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace cgctx::core

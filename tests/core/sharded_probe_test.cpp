#include "core/sharded_probe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string_view>
#include <thread>

#include "core/model_suite.hpp"
#include "core/slot_history.hpp"
#include "probe_test_models.hpp"
#include "sim/fleet.hpp"

namespace cgctx::core {
namespace {

const ModelSuite& suite() { return probe_test_suite(); }

sim::FleetReplay small_fleet(std::size_t sessions, std::size_t cross_flows,
                             std::uint64_t seed) {
  sim::FleetReplayOptions options;
  options.sessions = sessions;
  options.seed = seed;
  options.gameplay_seconds = 30.0;
  options.start_spread_s = 15.0;
  options.cross_traffic_flows = cross_flows;
  options.cross_traffic_duration_s = 20.0;
  return sim::build_fleet_replay(options);
}

/// The wire's packets that belong to one of its gaming sessions. The
/// fleet's cross traffic never uses a platform port, so these are exactly
/// the packets the candidate gate lets through.
std::vector<net::PacketRecord> session_packets(const sim::FleetReplay& replay) {
  const std::set<net::FiveTuple> flows(replay.session_flows.begin(),
                                       replay.session_flows.end());
  std::vector<net::PacketRecord> out;
  for (const net::PacketRecord& pkt : replay.wire)
    if (flows.count(pkt.tuple.canonical()) != 0) out.push_back(pkt);
  return out;
}

/// Exact capture-side accounting after flush(): every session packet went
/// through a ring and was processed, and every other packet was gated.
void expect_gated_accounting(const ProbeStatsSnapshot& stats,
                             const sim::FleetReplay& replay) {
  const std::uint64_t candidates = session_packets(replay).size();
  ASSERT_LT(candidates, replay.wire.size());  // the wire has cross traffic
  EXPECT_EQ(stats.packets_in, candidates);
  EXPECT_EQ(stats.packets_gated, replay.wire.size() - candidates);
  EXPECT_EQ(stats.packets_processed, stats.packets_in);
}

/// Slot histories by session id, as a SlotHistory collected them.
using Histories = std::map<std::uint64_t, std::vector<SlotRecord>>;

std::vector<SessionReport> run_sharded(
    const std::vector<net::PacketRecord>& wire, std::size_t shards,
    ProbeStatsSnapshot* stats_out = nullptr, Histories* slots_out = nullptr) {
  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = shards;
  std::vector<SessionReport> reports;
  SlotHistory history;
  ShardedProbe probe(suite().models(), params,
                     [&](const SessionReport& r) { reports.push_back(r); },
                     {}, history.hook());
  for (const auto& pkt : wire) probe.push(pkt);
  probe.flush();
  if (stats_out != nullptr) *stats_out = probe.stats();
  if (slots_out != nullptr) *slots_out = history.sessions();
  return reports;
}

TEST(ShardedProbe, SingleShardMatchesMultiSessionProbeExactly) {
  const sim::FleetReplay replay = small_fleet(3, 9, 71);
  const std::vector<net::PacketRecord> clean = session_packets(replay);

  const auto run_direct = [](const std::vector<net::PacketRecord>& wire,
                             std::uint64_t& gated, Histories& slots) {
    std::vector<SessionReport> reports;
    SlotHistory history;
    MultiSessionProbe probe(
        suite().models(), MultiSessionProbeParams{default_pipeline_params()},
        [&](const SessionReport& r) { reports.push_back(r); }, {},
        history.hook());
    for (const auto& pkt : wire) probe.push(pkt);
    probe.flush();
    gated = probe.gated_packets();
    slots = history.sessions();
    return reports;
  };
  std::uint64_t gated = 0;
  Histories direct_slots;
  const std::vector<SessionReport> direct =
      run_direct(replay.wire, gated, direct_slots);
  EXPECT_EQ(gated, replay.wire.size() - clean.size());
  ASSERT_EQ(direct.size(), replay.session_flows.size());
  ASSERT_EQ(direct_slots.size(), direct.size());

  ProbeStatsSnapshot stats;
  Histories sharded_slots;
  const std::vector<SessionReport> sharded =
      run_sharded(replay.wire, 1, &stats, &sharded_slots);
  // One shard preserves global packet order, so the engine must be a
  // behavior-preserving wrapper: same reports, same order, every field,
  // and the same slots under the same session ids.
  EXPECT_EQ(sharded, direct);
  EXPECT_EQ(sharded_slots, direct_slots);
  expect_gated_accounting(stats, replay);
  // Cross traffic changes nothing: both match the session-only wire.
  Histories clean_slots;
  EXPECT_EQ(run_direct(clean, gated, clean_slots), direct);
  EXPECT_EQ(clean_slots, direct_slots);
  EXPECT_EQ(gated, 0u);
  EXPECT_EQ(run_sharded(clean, 1, nullptr, &clean_slots), direct);
  EXPECT_EQ(clean_slots, direct_slots);
}

TEST(ShardedProbe, MultiShardReportsAreComplete) {
  const sim::FleetReplay replay = small_fleet(5, 3, 72);
  ProbeStatsSnapshot stats;
  Histories slots;
  const std::vector<SessionReport> reports =
      run_sharded(replay.wire, 4, &stats, &slots);

  // Every gaming session surfaces exactly once; nothing was dropped.
  ASSERT_EQ(reports.size(), replay.session_flows.size());
  std::set<net::FiveTuple> reported;
  for (const auto& report : reports) {
    ASSERT_TRUE(report.detection.has_value());
    reported.insert(report.detection->flow);
    EXPECT_GT(report.duration_s, 25.0);
  }
  // Session ids are unique across shards: one history per session.
  ASSERT_EQ(slots.size(), reports.size());
  for (const auto& [id, history] : slots) EXPECT_GT(history.size(), 25u);
  const std::set<net::FiveTuple> expected(replay.session_flows.begin(),
                                          replay.session_flows.end());
  EXPECT_EQ(reported, expected);
  EXPECT_EQ(stats.packets_dropped, 0u);
  EXPECT_EQ(stats.lookback_dropped, 0u);
  expect_gated_accounting(stats, replay);
  EXPECT_EQ(stats.reports_emitted, reports.size());
  EXPECT_EQ(stats.sessions_started, reports.size());
  EXPECT_GE(stats.queue_depth_hwm, 1u);
}

/// Sum over shards of a registry series: counter/gauge value, or the
/// sample count of a histogram.
double metric_total(const ShardedProbe& probe, std::string_view name) {
  double total = 0.0;
  for (const obs::MetricSeries& series : probe.metrics_snapshot().series) {
    if (series.name != name) continue;
    total += series.kind == obs::MetricKind::kHistogram
                 ? static_cast<double>(series.count)
                 : series.value;
  }
  return total;
}

net::PacketRecord flood_packet() {
  net::PacketRecord pkt;
  pkt.tuple = net::FiveTuple{net::Ipv4Addr::from_octets(10, 9, 9, 9),
                             net::Ipv4Addr::from_octets(119, 81, 2, 2),
                             50555, 49004, 17};
  pkt.payload_size = 1200;
  return pkt;
}

TEST(ShardedProbe, TinyRingWrapsThousandsOfTimesWithoutChangingReports) {
  const sim::FleetReplay replay = small_fleet(3, 2, 74);

  std::vector<SessionReport> direct;
  SlotHistory direct_slots;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { direct.push_back(r); }, {},
      direct_slots.hook());
  for (const auto& pkt : replay.wire) probe.push(pkt);
  probe.flush();

  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = 1;
  params.queue_capacity = 8;
  params.overflow = OverflowPolicy::kBackpressure;
  // Generous, so a descheduled worker on a loaded host cannot force a
  // drop: this test is about slot reuse, not about the timeout.
  params.backpressure_timeout = std::chrono::seconds(30);
  std::vector<SessionReport> sharded;
  SlotHistory sharded_slots;
  ShardedProbe engine(suite().models(), params,
                      [&](const SessionReport& r) { sharded.push_back(r); },
                      {}, sharded_slots.hook());
  for (const auto& pkt : replay.wire) ASSERT_TRUE(engine.push(pkt));
  engine.flush();

  // >= 1000 wraps of the ring (only gate-passing packets enter it).
  ASSERT_GT(session_packets(replay).size(), 8u * 1000u);
  EXPECT_EQ(sharded, direct);
  EXPECT_EQ(sharded_slots.sessions(), direct_slots.sessions());
  const ProbeStatsSnapshot stats = engine.stats();
  expect_gated_accounting(stats, replay);
  EXPECT_EQ(stats.packets_dropped, 0u);
  EXPECT_LE(stats.queue_depth_hwm, 8u);
}

// A worker descheduled for 150 ms (a loaded host was seen stalling single
// pushes for that long) must not cost packets under the default
// backpressure timeout: the capture thread waits it out.
TEST(ShardedProbe, DefaultBackpressureRidesOutAStalledWorker) {
  const sim::FleetReplay replay = small_fleet(2, 2, 76);

  std::vector<SessionReport> direct;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) { direct.push_back(r); });
  for (const auto& pkt : replay.wire) probe.push(pkt);
  probe.flush();

  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.queue_capacity = 8;
  bool stalled = false;
  std::vector<SessionReport> sharded;
  ShardedProbe engine(
      suite().models(), params,
      [&](const SessionReport& r) { sharded.push_back(r); },
      [&](const obs::TraceEvent&) {
        if (stalled) return;
        stalled = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      });
  for (const auto& pkt : replay.wire) EXPECT_TRUE(engine.push(pkt));
  engine.flush();

  EXPECT_TRUE(stalled);
  EXPECT_EQ(engine.stats().packets_dropped, 0u);
  EXPECT_EQ(sharded, direct);
}

TEST(ShardedProbe, ParkedWorkersWakeForPacketsWithoutAFlush) {
  const sim::FleetReplay replay = small_fleet(2, 2, 75);
  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = 2;
  ShardedProbe probe(suite().models(), params, {});

  // Short bursts separated by pauses long enough for both workers to
  // finish spinning and park, so every burst has to wake one of them.
  constexpr std::size_t kBurst = 64;
  constexpr std::size_t kPushed = 40 * kBurst;
  ASSERT_GE(replay.wire.size(), kPushed);
  for (std::size_t i = 0; i < kPushed; ++i) {
    ASSERT_TRUE(probe.push(replay.wire[i]));
    if ((i + 1) % kBurst == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // No flush(): a wakeup lost on the last burst would leave it unprocessed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (probe.stats().packets_processed < kPushed &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(probe.stats().packets_processed, kPushed);
  probe.flush();
  EXPECT_EQ(probe.stats().packets_in, kPushed);
}

TEST(ShardedProbe, BackpressureTimeoutCountsEveryPacketAndRecordsWaits) {
  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = 1;
  params.queue_capacity = 1;
  params.overflow = OverflowPolicy::kBackpressure;
  params.backpressure_timeout = std::chrono::milliseconds(1);
  ShardedProbe probe(suite().models(), params, {});

  net::PacketRecord pkt = flood_packet();
  constexpr std::size_t kPackets = 20000;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    pkt.timestamp = static_cast<net::Timestamp>(i) * 1'000'000;
    if (probe.push(pkt)) ++accepted;
  }
  probe.flush();
  const ProbeStatsSnapshot stats = probe.stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_in + stats.packets_dropped, kPackets);
  EXPECT_EQ(stats.packets_processed, stats.packets_in);
  EXPECT_EQ(stats.queue_depth_hwm, 1u);
  // A capacity-1 ring is full whenever the worker holds a packet, so
  // some pushes took the waiting slow path, and each one was timed.
  EXPECT_GE(metric_total(probe, "cgctx_probe_backpressure_wait_ns"), 1.0);
}

TEST(ShardedProbe, PushAfterFlushIsDroppedAndCounted) {
  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = 2;
  ShardedProbe probe(suite().models(), params, {});
  net::PacketRecord pkt = flood_packet();
  ASSERT_TRUE(probe.push(pkt));
  probe.flush();

  EXPECT_FALSE(probe.push(pkt));
  EXPECT_FALSE(probe.push(pkt));
  // A packet the gate would pass over is still a drop after flush().
  net::PacketRecord web = pkt;
  web.tuple.dst_port = 443;
  EXPECT_FALSE(probe.push(web));
  const ProbeStatsSnapshot stats = probe.stats();
  EXPECT_EQ(stats.packets_in, 1u);
  EXPECT_EQ(stats.packets_dropped, 3u);
  EXPECT_EQ(stats.packets_gated, 0u);
  EXPECT_EQ(stats.packets_processed, 1u);
}

TEST(ShardedProbe, ExportsTraceOverwritesPerShard) {
  const sim::FleetReplay replay = small_fleet(2, 1, 76);
  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = 1;
  params.trace_capacity = 4;
  ShardedProbe probe(suite().models(), params, {});
  for (const auto& pkt : replay.wire) probe.push(pkt);
  const std::vector<obs::TraceEvent> held = probe.drain_trace();

  // Two sessions tell far more than four events, so the ring wrapped and
  // the shard's gauge must report the events it lost.
  ASSERT_EQ(held.size(), 4u);
  EXPECT_GT(metric_total(probe, "cgctx_probe_trace_overwritten"), 0.0);
}

TEST(ShardedProbe, FlowsKeepShardAffinity) {
  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = 4;
  ShardedProbe probe(suite().models(), params, {});
  const net::FiveTuple tuple{net::Ipv4Addr::from_octets(10, 1, 2, 3),
                             net::Ipv4Addr::from_octets(119, 81, 1, 9),
                             50123, 49004, 17};
  // Both orientations of one conversation land on one shard.
  EXPECT_EQ(probe.shard_of(tuple.canonical()),
            probe.shard_of(tuple.reversed().canonical()));
  probe.flush();
}

TEST(ShardedProbe, DropNewestPolicyCountsDropsInsteadOfBlocking) {
  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = 1;
  params.queue_capacity = 1;
  params.overflow = OverflowPolicy::kDropNewest;
  ShardedProbe probe(suite().models(), params, {});

  // Flood one shard faster than its worker can possibly drain a
  // capacity-1 queue; the capture path must never wedge and every
  // rejected packet must be counted.
  net::PacketRecord pkt = flood_packet();
  constexpr std::size_t kPackets = 20000;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    pkt.timestamp = static_cast<net::Timestamp>(i) * 1'000'000;
    if (probe.push(pkt)) ++accepted;
  }
  probe.flush();
  const ProbeStatsSnapshot stats = probe.stats();
  EXPECT_EQ(stats.packets_in, accepted);
  EXPECT_EQ(stats.packets_in + stats.packets_dropped, kPackets);
  EXPECT_EQ(stats.packets_processed, accepted);
}

TEST(ShardedProbe, StatsSnapshotReadableWhileRunning) {
  const sim::FleetReplay replay = small_fleet(2, 1, 73);
  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = 2;
  ShardedProbe probe(suite().models(), params, {});
  const std::size_t mid = replay.wire.size() / 2;
  ProbeStatsSnapshot mid_run;
  for (std::size_t i = 0; i < replay.wire.size(); ++i) {
    probe.push(replay.wire[i]);
    if (i == mid) mid_run = probe.stats();
  }
  probe.flush();
  EXPECT_GT(mid_run.packets_in, 0u);
  // The capture thread publishes its gated tally every 256 packets.
  const std::set<net::FiveTuple> flows(replay.session_flows.begin(),
                                       replay.session_flows.end());
  const auto gated_by_mid = static_cast<std::uint64_t>(std::count_if(
      replay.wire.begin(), replay.wire.begin() + mid + 1,
      [&](const net::PacketRecord& pkt) {
        return flows.count(pkt.tuple.canonical()) == 0;
      }));
  ASSERT_GT(gated_by_mid, 256u);
  EXPECT_LE(mid_run.packets_gated, gated_by_mid);
  EXPECT_GT(mid_run.packets_gated + 256, gated_by_mid);
  const ProbeStatsSnapshot stats = probe.stats();
  expect_gated_accounting(stats, replay);
  EXPECT_EQ(stats.packets_dropped, 0u);
  // The registry export carries the same gated total.
  EXPECT_EQ(metric_total(probe, "cgctx_probe_packets_gated_total"),
            static_cast<double>(stats.packets_gated));
  EXPECT_GT(stats.latency().samples, 0u);
}

TEST(ShardedProbe, RejectsZeroShards) {
  ShardedProbeParams params;
  params.probe.pipeline = default_pipeline_params();
  params.num_shards = 0;
  EXPECT_THROW(ShardedProbe(suite().models(), params, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cgctx::core

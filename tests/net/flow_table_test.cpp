#include "net/flow_table.hpp"

#include <gtest/gtest.h>

namespace cgctx::net {
namespace {

FiveTuple tuple_a() {
  return FiveTuple{Ipv4Addr{0x0a000001}, Ipv4Addr{0x77510101}, 50000, 49004, 17};
}

PacketRecord packet(const FiveTuple& t, Direction dir, Timestamp ts,
                    std::uint32_t payload) {
  PacketRecord pkt;
  pkt.tuple = dir == Direction::kUpstream ? t : t.reversed();
  pkt.direction = dir;
  pkt.timestamp = ts;
  pkt.payload_size = payload;
  return pkt;
}

TEST(FlowTable, BothDirectionsShareOneFlow) {
  FlowTable table;
  table.add(packet(tuple_a(), Direction::kUpstream, 0, 100));
  table.add(packet(tuple_a(), Direction::kDownstream, kNanosPerSecond, 1432));
  EXPECT_EQ(table.size(), 1u);
  const FlowState* flow = table.find(tuple_a());
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->up.packets, 1u);
  EXPECT_EQ(flow->down.packets, 1u);
  EXPECT_EQ(flow->total_packets(), 2u);
  EXPECT_EQ(flow->age(), kNanosPerSecond);
}

TEST(FlowTable, FindWorksWithEitherOrientation) {
  FlowTable table;
  table.add(packet(tuple_a(), Direction::kUpstream, 0, 10));
  EXPECT_NE(table.find(tuple_a()), nullptr);
  EXPECT_NE(table.find(tuple_a().reversed()), nullptr);
}

TEST(FlowTable, DistinctTuplesAreDistinctFlows) {
  FlowTable table;
  table.add(packet(tuple_a(), Direction::kUpstream, 0, 10));
  FiveTuple other = tuple_a();
  other.src_port = 50001;
  table.add(packet(other, Direction::kUpstream, 0, 10));
  EXPECT_EQ(table.size(), 2u);
}

TEST(DirectionStats, TracksPayloadExtremesAndBytes) {
  FlowTable table;
  table.add(packet(tuple_a(), Direction::kDownstream, 0, 700));
  table.add(packet(tuple_a(), Direction::kDownstream, 1, 1432));
  table.add(packet(tuple_a(), Direction::kDownstream, 2, 60));
  const FlowState* flow = table.find(tuple_a());
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->down.min_payload, 60u);
  EXPECT_EQ(flow->down.max_payload, 1432u);
  EXPECT_EQ(flow->down.bytes, 700u + 1432u + 60u);
}

TEST(DirectionStats, RtpConsistencyCountsSameSsrc) {
  FlowTable table;
  for (int i = 0; i < 8; ++i) {
    auto pkt = packet(tuple_a(), Direction::kDownstream, i, 1000);
    pkt.rtp = RtpHeader{.payload_type = 98, .marker = false,
                        .sequence = static_cast<std::uint16_t>(i),
                        .rtp_timestamp = 0,
                        .ssrc = i < 6 ? 0x11u : 0x22u};
    table.add(pkt);
  }
  // Two non-RTP packets.
  table.add(packet(tuple_a(), Direction::kDownstream, 8, 1000));
  table.add(packet(tuple_a(), Direction::kDownstream, 9, 1000));
  const FlowState* flow = table.find(tuple_a());
  EXPECT_EQ(flow->down.rtp_packets, 8u);
  EXPECT_EQ(flow->down.rtp_same_ssrc, 6u);
  EXPECT_DOUBLE_EQ(flow->downstream_rtp_consistency(), 0.6);
}

TEST(FlowState, DownstreamBpsFromBytesAndAge) {
  FlowTable table;
  table.add(packet(tuple_a(), Direction::kDownstream, 0, 125000));
  table.add(packet(tuple_a(), Direction::kDownstream, kNanosPerSecond, 125000));
  const FlowState* flow = table.find(tuple_a());
  // 250 kB over 1 s = 2 Mbps.
  EXPECT_NEAR(flow->downstream_bps(), 2e6, 1.0);
}

TEST(FlowState, ZeroAgeHasZeroBps) {
  FlowTable table;
  table.add(packet(tuple_a(), Direction::kDownstream, 5, 1000));
  EXPECT_DOUBLE_EQ(table.find(tuple_a())->downstream_bps(), 0.0);
}

TEST(FlowTable, EvictIdleRemovesOnlyStaleFlows) {
  FlowTable table(10 * kNanosPerSecond);
  table.add(packet(tuple_a(), Direction::kUpstream, 0, 10));
  FiveTuple fresh = tuple_a();
  fresh.src_port = 50002;
  table.add(packet(fresh, Direction::kUpstream, 9 * kNanosPerSecond, 10));
  const auto evicted = table.evict_idle(15 * kNanosPerSecond);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, tuple_a().canonical());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_NE(table.find(fresh), nullptr);
}

TEST(FlowTable, EvictIdleCountsEvictions) {
  FlowTable table(10 * kNanosPerSecond);
  table.add(packet(tuple_a(), Direction::kUpstream, 0, 10));
  EXPECT_EQ(table.evictions(), 0u);
  table.evict_idle(15 * kNanosPerSecond);
  EXPECT_EQ(table.evictions(), 1u);
}

TEST(FlowTable, AddEvictsIdleFlowsLazily) {
  // The documented behavior: add() itself sweeps idle flows every
  // kLazyEvictStride calls, so an owner that never sweeps explicitly
  // still gets a bounded table.
  FlowTable table(10 * kNanosPerSecond);
  table.add(packet(tuple_a(), Direction::kUpstream, 0, 10));

  FiveTuple busy = tuple_a();
  busy.src_port = 50010;
  const Timestamp late = 60 * kNanosPerSecond;
  for (std::uint64_t i = 0; i <= FlowTable::kLazyEvictStride; ++i)
    table.add(packet(busy, Direction::kUpstream,
                     late + static_cast<Timestamp>(i), 10));

  // The idle flow was discarded by the lazy sweep; the busy one remains.
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(tuple_a()), nullptr);
  EXPECT_NE(table.find(busy), nullptr);
  EXPECT_EQ(table.evictions(), 1u);
}

TEST(FlowTable, AddRestartsAFlowSilentPastTheTimeout) {
  // No sweep runs between the two bursts, yet the flow restarts at its
  // own next packet: fresh statistics, counted as one eviction.
  FlowTable table(10 * kNanosPerSecond);
  table.add(packet(tuple_a(), Direction::kUpstream, 0, 10));
  table.add(packet(tuple_a(), Direction::kDownstream, kNanosPerSecond, 900));
  const Timestamp back = 12 * kNanosPerSecond;
  const FlowState& flow =
      table.add(packet(tuple_a(), Direction::kDownstream, back, 700));
  EXPECT_EQ(flow.key, tuple_a().canonical());
  EXPECT_EQ(flow.first_seen, back);
  EXPECT_EQ(flow.last_seen, back);
  EXPECT_EQ(flow.total_packets(), 1u);
  EXPECT_EQ(flow.up.packets, 0u);
  EXPECT_EQ(flow.down.min_payload, 700u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.evictions(), 1u);

  // A gap of exactly the timeout is not idle: the flow carries on.
  table.add(packet(tuple_a(), Direction::kUpstream,
                   back + 10 * kNanosPerSecond, 10));
  EXPECT_EQ(table.find(tuple_a())->total_packets(), 2u);
  EXPECT_EQ(table.evictions(), 1u);
}

TEST(FlowTable, FlowFirstSeenBeforeTimeZeroKeepsItsOwnClock) {
  // Capture clocks may sit before the epoch: a flow whose packets all
  // carry negative timestamps is last seen at its newest packet, not at
  // 0, so its age, idle restart and idle eviction read its own clock.
  FlowTable table(10 * kNanosPerSecond);
  const Timestamp t0 = -100 * kNanosPerSecond;
  const FlowState& flow =
      table.add(packet(tuple_a(), Direction::kUpstream, t0, 10));
  EXPECT_EQ(flow.first_seen, t0);
  EXPECT_EQ(flow.last_seen, t0);
  table.add(packet(tuple_a(), Direction::kDownstream, t0 + kNanosPerSecond,
                   900));
  EXPECT_EQ(table.find(tuple_a())->last_seen, t0 + kNanosPerSecond);
  EXPECT_EQ(table.find(tuple_a())->age(), kNanosPerSecond);

  // Silent past the timeout, still before 0: the flow restarts.
  const Timestamp back = t0 + 50 * kNanosPerSecond;
  const FlowState& restarted =
      table.add(packet(tuple_a(), Direction::kDownstream, back, 700));
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(restarted.first_seen, back);
  EXPECT_EQ(restarted.last_seen, back);
  EXPECT_EQ(restarted.total_packets(), 1u);
  EXPECT_EQ(restarted.age(), 0);

  // A sweep past the timeout, still before 0, evicts it; one within the
  // timeout keeps it.
  EXPECT_TRUE(table.evict_idle(back + 5 * kNanosPerSecond).empty());
  EXPECT_EQ(table.evict_idle(back + 11 * kNanosPerSecond).size(), 1u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.evictions(), 2u);
}

TEST(FlowTable, EraseDropsFlowWithoutCountingEviction) {
  FlowTable table;
  table.add(packet(tuple_a(), Direction::kUpstream, 0, 10));
  EXPECT_TRUE(table.erase(tuple_a().reversed()));  // either orientation
  EXPECT_FALSE(table.erase(tuple_a()));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.evictions(), 0u);

  // A re-added tuple starts from fresh statistics.
  table.add(packet(tuple_a(), Direction::kUpstream, 5 * kNanosPerSecond, 10));
  const FlowState* flow = table.find(tuple_a());
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->first_seen, 5 * kNanosPerSecond);
  EXPECT_EQ(flow->total_packets(), 1u);
}

TEST(FlowTable, FlowsSnapshotIsOrderedAndComplete) {
  FlowTable table;
  for (std::uint16_t port = 50005; port > 50000; --port) {
    FiveTuple t = tuple_a();
    t.src_port = port;
    table.add(packet(t, Direction::kUpstream, 0, 1));
  }
  const auto flows = table.flows();
  ASSERT_EQ(flows.size(), 5u);
  for (std::size_t i = 1; i < flows.size(); ++i)
    EXPECT_LT(flows[i - 1]->key, flows[i]->key);
}

}  // namespace
}  // namespace cgctx::net

#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace cgctx::sim {
namespace {

TEST(Fleet, TitleMixFollowsPopularity) {
  FleetOptions options;
  options.seed = 1;
  FleetSampler sampler(options);
  std::map<GameTitle, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample().title];
  // Fortnite ~37.8%, Genshin ~20.1%, Hearthstone ~0.04%.
  EXPECT_NEAR(counts[GameTitle::kFortnite] / static_cast<double>(n), 0.378,
              0.02);
  EXPECT_NEAR(counts[GameTitle::kGenshinImpact] / static_cast<double>(n), 0.201,
              0.02);
  EXPECT_LT(counts[GameTitle::kHearthstone], 50);
  // Long tail present (~31%).
  const double tail =
      (counts[GameTitle::kOtherContinuous] + counts[GameTitle::kOtherSpectate]) /
      static_cast<double>(n);
  EXPECT_NEAR(tail, 0.31, 0.02);
}

TEST(Fleet, NetworkMixFollowsOptions) {
  FleetOptions options;
  options.seed = 2;
  FleetSampler sampler(options);
  int congested = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (sampler.sample().network.loss_rate >=
        NetworkConditions::congested().loss_rate)
      ++congested;
  EXPECT_NEAR(congested / static_cast<double>(n), options.fraction_congested,
              0.01);
}

TEST(Fleet, DurationsScaleWithOption) {
  FleetOptions short_options;
  short_options.seed = 3;
  short_options.duration_scale = 0.1;
  FleetOptions long_options = short_options;
  long_options.duration_scale = 1.0;
  FleetSampler short_sampler(short_options);
  FleetSampler long_sampler(long_options);
  double short_sum = 0.0;
  double long_sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    short_sum += short_sampler.sample().gameplay_seconds;
    long_sum += long_sampler.sample().gameplay_seconds;
  }
  EXPECT_NEAR(long_sum / short_sum, 10.0, 1.5);
}

TEST(Fleet, DurationsHaveAFloor) {
  FleetOptions options;
  options.seed = 4;
  options.duration_scale = 1.0;
  FleetSampler sampler(options);
  for (int i = 0; i < 2000; ++i)
    EXPECT_GE(sampler.sample().gameplay_seconds, 120.0);
}

TEST(Fleet, SeedsAreUniquePerSession) {
  FleetOptions options;
  options.seed = 5;
  FleetSampler sampler(options);
  std::set<std::uint64_t> seeds;
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(seeds.insert(sampler.sample().seed).second);
}

TEST(Fleet, LongSessionTitlesYieldLongerDurations) {
  FleetOptions options;
  options.seed = 6;
  FleetSampler sampler(options);
  std::map<GameTitle, std::pair<double, int>> sums;
  for (int i = 0; i < 30000; ++i) {
    const auto spec = sampler.sample();
    auto& [sum, count] = sums[spec.title];
    sum += spec.gameplay_seconds;
    ++count;
  }
  const auto& bg3 = sums[GameTitle::kBaldursGate3];
  const auto& rl = sums[GameTitle::kRocketLeague];
  ASSERT_GT(bg3.second, 50);
  ASSERT_GT(rl.second, 50);
  EXPECT_GT(bg3.first / bg3.second, 1.5 * rl.first / rl.second);
}

TEST(FleetReplay, WireIsSortedWithDistinctSessionFlows) {
  FleetReplayOptions options;
  options.sessions = 4;
  options.seed = 7;
  options.gameplay_seconds = 12.0;
  options.cross_traffic_flows = 3;
  options.cross_traffic_duration_s = 8.0;
  const FleetReplay replay = build_fleet_replay(options);

  ASSERT_EQ(replay.session_flows.size(), 4u);
  const std::set<net::FiveTuple> distinct(replay.session_flows.begin(),
                                          replay.session_flows.end());
  EXPECT_EQ(distinct.size(), 4u);

  ASSERT_FALSE(replay.wire.empty());
  std::set<net::FiveTuple> wire_flows;
  for (std::size_t i = 0; i < replay.wire.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(replay.wire[i].timestamp, replay.wire[i - 1].timestamp);
    }
    wire_flows.insert(replay.wire[i].tuple.canonical());
  }
  // The wire interleaves the gaming flows with the cross traffic.
  for (const auto& flow : replay.session_flows)
    EXPECT_TRUE(wire_flows.count(flow));
  EXPECT_GE(wire_flows.size(), 4u + 3u);
}

TEST(FleetReplay, DeterministicForASeed) {
  FleetReplayOptions options;
  options.sessions = 2;
  options.seed = 8;
  options.gameplay_seconds = 10.0;
  const FleetReplay a = build_fleet_replay(options);
  const FleetReplay b = build_fleet_replay(options);
  ASSERT_EQ(a.wire.size(), b.wire.size());
  EXPECT_EQ(a.session_flows, b.session_flows);
  for (std::size_t i = 0; i < a.wire.size(); ++i) {
    EXPECT_EQ(a.wire[i].timestamp, b.wire[i].timestamp);
    EXPECT_EQ(a.wire[i].tuple, b.wire[i].tuple);
  }
}

/// FNV-1a over every field of the wire's records and of session_flows.
class WireDigest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const net::FiveTuple& t) {
    add(t.src_ip.value);
    add(t.dst_ip.value);
    add(t.src_port);
    add(t.dst_port);
    add(t.protocol);
  }
  void add(const net::PacketRecord& pkt) {
    add(static_cast<std::uint64_t>(pkt.timestamp));
    add(static_cast<std::uint64_t>(pkt.direction));
    add(pkt.tuple);
    add(pkt.payload_size);
    add(pkt.rtp.has_value());
    if (pkt.rtp) {
      add(pkt.rtp->payload_type);
      add(pkt.rtp->marker);
      add(pkt.rtp->sequence);
      add(pkt.rtp->rtp_timestamp);
      add(pkt.rtp->ssrc);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t wire_digest(const FleetReplay& replay) {
  WireDigest d;
  d.add(replay.wire.size());
  for (const net::PacketRecord& pkt : replay.wire) d.add(pkt);
  d.add(replay.session_flows.size());
  for (const net::FiveTuple& flow : replay.session_flows) d.add(flow);
  return d.value();
}

// The wire perfbench replays, pinned field by field: its wire_mixed and
// pcap_mixed option sets at seeds 1-3, and the defaults. The merge that
// builds the wire may change only how fast it runs.
TEST(FleetReplay, WireDigestIsPinned) {
  const auto mixed = [](std::uint64_t seed) {
    FleetReplayOptions o;
    o.seed = seed;
    o.sessions = 16;
    o.gameplay_seconds = 40.0;
    o.start_spread_s = 20.0;
    o.cross_traffic_flows = 150;
    o.cross_traffic_duration_s = 50.0;
    return o;
  };
  const auto capture = [](std::uint64_t seed) {
    FleetReplayOptions o;
    o.seed = seed;
    o.sessions = 4;
    o.gameplay_seconds = 15.0;
    o.start_spread_s = 8.0;
    o.cross_traffic_flows = 36;
    o.cross_traffic_duration_s = 15.0;
    return o;
  };
  const struct {
    const char* name;
    FleetReplayOptions options;
    std::size_t packets;
    std::uint64_t digest;
  } cases[] = {
      {"wire_mixed seed 1", mixed(1), 1939895, 0x02aef1e488ec3783ULL},
      {"wire_mixed seed 2", mixed(2), 2062201, 0x56a8bede08e9b79bULL},
      {"wire_mixed seed 3", mixed(3), 1878529, 0xf3452461579fa0eeULL},
      {"pcap_mixed seed 1", capture(1), 161842, 0x26ec2225ece80ff6ULL},
      {"pcap_mixed seed 2", capture(2), 198279, 0x00c09b67b227006dULL},
      {"pcap_mixed seed 3", capture(3), 152025, 0xbf6cabeb662846cbULL},
      {"defaults", FleetReplayOptions{}, 127590, 0xad2b733f9a61b1c5ULL},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const FleetReplay replay = build_fleet_replay(c.options);
    EXPECT_EQ(replay.wire.size(), c.packets);
    EXPECT_EQ(wire_digest(replay), c.digest);
  }
}

/// A packet whose payload size tags where it came from.
net::PacketRecord tagged(net::Timestamp t, std::uint32_t tag) {
  net::PacketRecord pkt;
  pkt.timestamp = t;
  pkt.payload_size = tag;
  return pkt;
}

/// (timestamp, tag) of each packet, in wire order.
using Order = std::vector<std::pair<net::Timestamp, std::uint32_t>>;

Order order(const std::vector<net::PacketRecord>& wire) {
  Order out;
  for (const net::PacketRecord& pkt : wire)
    out.emplace_back(pkt.timestamp, pkt.payload_size);
  return out;
}

TEST(MergeByTime, TiesAcrossRunsKeepRunOrder) {
  std::vector<std::vector<net::PacketRecord>> runs = {
      {tagged(5, 10), tagged(9, 11)},
      {tagged(1, 20), tagged(5, 21), tagged(9, 22)},
      {tagged(5, 30)}};
  EXPECT_EQ(order(merge_by_time(std::move(runs))),
            (Order{{1, 20}, {5, 10}, {5, 21}, {5, 30}, {9, 11}, {9, 22}}));
}

TEST(MergeByTime, TiesInsideARunKeepTheirOrder) {
  std::vector<std::vector<net::PacketRecord>> runs = {
      {tagged(2, 10), tagged(2, 11), tagged(2, 12), tagged(3, 13)},
      {tagged(1, 20), tagged(2, 21), tagged(2, 22)}};
  EXPECT_EQ(order(merge_by_time(std::move(runs))),
            (Order{{1, 20}, {2, 10}, {2, 11}, {2, 12}, {2, 21}, {2, 22},
                   {3, 13}}));
}

TEST(MergeByTime, EmptyAndSingleRuns) {
  EXPECT_TRUE(merge_by_time({}).empty());
  EXPECT_TRUE(merge_by_time({{}, {}}).empty());
  std::vector<std::vector<net::PacketRecord>> runs = {
      {}, {tagged(1, 10), tagged(1, 11), tagged(4, 12)}, {}};
  EXPECT_EQ(order(merge_by_time(std::move(runs))),
            (Order{{1, 10}, {1, 11}, {4, 12}}));
}

TEST(MergeByTime, MatchesAStableSortOfTheConcatenation) {
  ml::Rng rng(11);
  std::vector<std::vector<net::PacketRecord>> runs(9);
  std::vector<net::PacketRecord> concatenated;
  std::uint32_t tag = 0;
  for (auto& run : runs) {
    net::Timestamp t = static_cast<net::Timestamp>(rng.next_below(5));
    const std::size_t n = rng.next_below(40);
    for (std::size_t i = 0; i < n; ++i) {
      t += static_cast<net::Timestamp>(rng.next_below(3));  // many ties
      run.push_back(tagged(t, tag++));
    }
    concatenated.insert(concatenated.end(), run.begin(), run.end());
  }
  std::stable_sort(concatenated.begin(), concatenated.end(),
                   [](const net::PacketRecord& a, const net::PacketRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  EXPECT_EQ(order(merge_by_time(std::move(runs))), order(concatenated));
}

TEST(MergeByTime, UnsortedRunThrows) {
  std::vector<std::vector<net::PacketRecord>> runs = {
      {tagged(1, 10), tagged(2, 11)}, {tagged(3, 20), tagged(2, 21)}};
  EXPECT_THROW((void)merge_by_time(std::move(runs)), std::logic_error);
}

}  // namespace
}  // namespace cgctx::sim

#include "core/flow_detector.hpp"

#include <gtest/gtest.h>

#include "sim/cross_traffic.hpp"
#include "sim/session.hpp"

namespace cgctx::core {
namespace {

const net::Ipv4Addr kClient = net::Ipv4Addr::from_octets(10, 8, 8, 8);

/// Runs all packets through a flow table and returns the detector's first
/// positive verdict, if any.
std::optional<DetectionResult> detect_over(
    const std::vector<net::PacketRecord>& packets) {
  net::FlowTable table;
  const CloudGamingFlowDetector detector;
  for (const auto& pkt : packets) {
    const auto& flow = table.add(pkt);
    if (auto result = detector.detect(flow)) return result;
  }
  return std::nullopt;
}

TEST(FlowDetector, DetectsGeforceNowSession) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kFortnite;
  spec.gameplay_seconds = 5;
  spec.seed = 1;
  const auto session = gen.generate(spec);
  const auto result = detect_over(session.packets);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->platform, Platform::kGeforceNow);
  EXPECT_EQ(result->flow, session.tuple.canonical());
}

TEST(FlowDetector, DetectsEveryPopularTitleQuickly) {
  const sim::SessionGenerator gen;
  for (std::size_t t = 0; t < sim::kNumPopularTitles; ++t) {
    sim::SessionSpec spec;
    spec.title = static_cast<sim::GameTitle>(t);
    spec.gameplay_seconds = 2;
    spec.seed = 100 + t;
    const auto session = gen.generate(spec);
    // Feed only the first five seconds: detection must be early.
    std::vector<net::PacketRecord> head;
    for (const auto& pkt : session.packets) {
      if (pkt.timestamp > net::duration_from_seconds(5.0)) break;
      head.push_back(pkt);
    }
    EXPECT_TRUE(detect_over(head).has_value()) << "title " << t;
  }
}

TEST(FlowDetector, RejectsVoip) {
  ml::Rng rng(2);
  EXPECT_FALSE(detect_over(sim::voip_flow(kClient, 30.0, rng)).has_value());
}

TEST(FlowDetector, RejectsWebBrowsing) {
  ml::Rng rng(3);
  EXPECT_FALSE(
      detect_over(sim::web_browsing_flow(kClient, 30.0, rng)).has_value());
}

TEST(FlowDetector, RejectsVideoStreaming) {
  ml::Rng rng(4);
  EXPECT_FALSE(
      detect_over(sim::video_streaming_flow(kClient, 30.0, rng)).has_value());
}

TEST(FlowDetector, FindsGamingFlowInMixedTraffic) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kCsgo;
  spec.gameplay_seconds = 5;
  spec.seed = 5;
  const auto session = gen.generate(spec);
  ml::Rng rng(6);
  std::vector<net::PacketRecord> mixed = session.packets;
  for (const auto& pkt : sim::voip_flow(session.client_ip, 30.0, rng))
    mixed.push_back(pkt);
  for (const auto& pkt : sim::web_browsing_flow(session.client_ip, 30.0, rng))
    mixed.push_back(pkt);
  std::sort(mixed.begin(), mixed.end(),
            [](const auto& a, const auto& b) { return a.timestamp < b.timestamp; });
  const auto result = detect_over(mixed);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->flow, session.tuple.canonical());
}

TEST(FlowDetector, RequiresObservationFloor) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kDota2;
  spec.gameplay_seconds = 2;
  spec.seed = 7;
  const auto session = gen.generate(spec);
  net::FlowTable table;
  const CloudGamingFlowDetector detector;
  // The first 50 packets are below the floor.
  for (std::size_t i = 0; i < 50; ++i) {
    const auto& flow = table.add(session.packets[i]);
    EXPECT_FALSE(detector.detect(flow).has_value()) << "packet " << i;
  }
}

TEST(FlowDetector, PortRangesMapToPlatforms) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kOverwatch2;
  spec.gameplay_seconds = 3;
  spec.seed = 8;
  auto session = gen.generate(spec);
  // Rewrite the server port to each platform's range and re-detect.
  const struct {
    std::uint16_t port;
    Platform platform;
  } kCases[] = {{49004, Platform::kGeforceNow},
                {9002, Platform::kXboxCloud},
                {44353, Platform::kAmazonLuna},
                {9295, Platform::kPsCloudStreaming}};
  for (const auto& test_case : kCases) {
    std::vector<net::PacketRecord> rewritten = session.packets;
    for (auto& pkt : rewritten) {
      if (pkt.direction == net::Direction::kUpstream) {
        pkt.tuple.dst_port = test_case.port;
      } else {
        pkt.tuple.src_port = test_case.port;
      }
    }
    const auto result = detect_over(rewritten);
    ASSERT_TRUE(result.has_value()) << test_case.port;
    EXPECT_EQ(result->platform, test_case.platform);
  }
}

TEST(FlowDetector, UnknownPortIsRejected) {
  const sim::SessionGenerator gen;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kFortnite;
  spec.gameplay_seconds = 3;
  spec.seed = 9;
  auto session = gen.generate(spec);
  for (auto& pkt : session.packets) {
    if (pkt.direction == net::Direction::kUpstream) {
      pkt.tuple.dst_port = 12345;
    } else {
      pkt.tuple.src_port = 12345;
    }
  }
  EXPECT_FALSE(detect_over(session.packets).has_value());
}

TEST(FlowDetector, IsCandidateMatchesDetectAtEveryPortBoundary) {
  // A flow that meets every criterion except the tuple test: detect() must
  // then accept exactly the tuples is_candidate() admits, or the probe's
  // candidate-only lookback would miss packets of a flow it promotes.
  net::FlowState flow;
  flow.first_seen = 0;
  flow.last_seen = 2 * net::kNanosPerSecond;
  flow.down.packets = 1000;
  flow.down.bytes = 1'000'000;  // 4 Mbps over 2 s
  flow.down.max_payload = 1432;
  flow.down.rtp_ssrc = 7;
  flow.down.rtp_packets = 1000;
  flow.down.rtp_same_ssrc = 1000;
  flow.up.packets = 100;
  flow.up.bytes = 10'000;

  // {last port outside, first port inside} of every platform range edge.
  const std::uint16_t kEdges[][2] = {
      {9001, 9002},   {9031, 9030},   {9294, 9295},   {9305, 9304},
      {44299, 44300}, {44381, 44380}, {49002, 49003}, {49007, 49006}};
  // The canonical tuple leads with the lower address, so these servers put
  // the platform port on its destination and its source side respectively.
  const net::Ipv4Addr kServers[] = {net::Ipv4Addr::from_octets(203, 0, 113, 9),
                                    net::Ipv4Addr::from_octets(1, 0, 0, 9)};
  const CloudGamingFlowDetector detector;
  for (const auto& edge : kEdges) {
    for (int inside = 0; inside < 2; ++inside) {
      for (const std::uint8_t protocol : {std::uint8_t{6}, std::uint8_t{17}}) {
        for (const net::Ipv4Addr server : kServers) {
          flow.key = net::FiveTuple{kClient, server, 12345, edge[inside],
                                    protocol}.canonical();
          SCOPED_TRACE(net::to_string(flow.key));
          const bool candidate = CloudGamingFlowDetector::is_candidate(flow.key);
          EXPECT_EQ(candidate, inside == 1 && protocol == 17);
          EXPECT_EQ(detector.detect(flow).has_value(), candidate);
        }
      }
    }
  }
}

TEST(FlowDetector, IsCandidateIsOrientationIndependentAtRangeEdges) {
  // The front-ends gate on the wire tuple before canonicalising it, so
  // the verdict must not depend on which endpoint sent the packet.
  static_assert(CloudGamingFlowDetector::is_candidate(
      net::FiveTuple{net::Ipv4Addr{1}, net::Ipv4Addr{2}, 49003, 50000, 17}));
  struct Range {
    int lo, hi;
  };
  const Range kRanges[] = {{49003, 49006}, {9002, 9030}, {44300, 44380},
                           {9295, 9304}};
  const net::Ipv4Addr kServers[] = {net::Ipv4Addr::from_octets(203, 0, 113, 9),
                                    net::Ipv4Addr::from_octets(1, 0, 0, 9)};
  for (const Range& range : kRanges) {
    for (const int edge : {range.lo - 1, range.lo, range.lo + 1, range.hi - 1,
                           range.hi, range.hi + 1}) {
      const auto port = static_cast<std::uint16_t>(edge);
      const bool in_range = port >= range.lo && port <= range.hi;
      for (const std::uint8_t protocol : {std::uint8_t{6}, std::uint8_t{17}}) {
        for (const net::Ipv4Addr server : kServers) {
          const net::FiveTuple up{kClient, server, 12345, port, protocol};
          for (const net::FiveTuple& t : {up, up.reversed()}) {
            SCOPED_TRACE(net::to_string(t));
            const bool candidate = CloudGamingFlowDetector::is_candidate(t);
            EXPECT_EQ(candidate, in_range && protocol == 17);
            EXPECT_EQ(CloudGamingFlowDetector::is_candidate(t.reversed()),
                      candidate);
            EXPECT_EQ(CloudGamingFlowDetector::is_candidate(t.canonical()),
                      candidate);
          }
        }
      }
    }
  }
}

TEST(FlowDetector, PlatformNames) {
  EXPECT_STREQ(to_string(Platform::kGeforceNow), "GeForce NOW");
  EXPECT_STREQ(to_string(Platform::kXboxCloud), "Xbox Cloud Gaming");
  EXPECT_STREQ(to_string(Platform::kAmazonLuna), "Amazon Luna");
  EXPECT_STREQ(to_string(Platform::kPsCloudStreaming), "PS5 Cloud Streaming");
}

}  // namespace
}  // namespace cgctx::core

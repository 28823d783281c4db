#include "net/framing.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/byte_io.hpp"

namespace cgctx::net {
namespace {

FiveTuple test_tuple() {
  return FiveTuple{Ipv4Addr::from_octets(10, 0, 0, 5),
                   Ipv4Addr::from_octets(119, 81, 1, 9), 50123, 49004, 17};
}

TEST(Framing, EncodeDecodeRoundTrip) {
  const std::vector<std::uint8_t> payload(100, 0x42);
  const auto frame = encode_udp_frame(test_tuple(), payload);
  const auto decoded = decode_udp_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->tuple, test_tuple());
  EXPECT_TRUE(std::ranges::equal(decoded->payload, payload));
}

TEST(Framing, FrameSizeIsHeadersPlusPayload) {
  const std::vector<std::uint8_t> payload(64, 0);
  const auto frame = encode_udp_frame(test_tuple(), payload);
  EXPECT_EQ(frame.size(), 14u + 20u + 8u + 64u);
}

TEST(Framing, EmptyPayloadRoundTrips) {
  const auto frame = encode_udp_frame(test_tuple(), {});
  const auto decoded = decode_udp_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(Framing, RejectsCorruptedIpChecksum) {
  const std::vector<std::uint8_t> payload(10, 1);
  auto frame = encode_udp_frame(test_tuple(), payload);
  frame[14 + 12] ^= 0xff;  // corrupt source IP without fixing checksum
  EXPECT_FALSE(decode_udp_frame(frame).has_value());
}

TEST(Framing, RejectsNonIpv4Ethertype) {
  auto frame = encode_udp_frame(test_tuple(), {});
  frame[12] = 0x86;  // IPv6 ethertype
  frame[13] = 0xdd;
  EXPECT_FALSE(decode_udp_frame(frame).has_value());
}

TEST(Framing, RejectsTruncatedFrame) {
  const std::vector<std::uint8_t> payload(50, 9);
  auto frame = encode_udp_frame(test_tuple(), payload);
  frame.resize(frame.size() - 20);
  EXPECT_FALSE(decode_udp_frame(frame).has_value());
}

TEST(Framing, RejectsNonUdpProtocol) {
  auto frame = encode_udp_frame(test_tuple(), {});
  frame[14 + 9] = 6;  // TCP
  // Fix the checksum so only the protocol check fires.
  frame[14 + 10] = 0;
  frame[14 + 11] = 0;
  const std::uint16_t csum = internet_checksum(
      std::span<const std::uint8_t>(frame.data() + 14, 20));
  frame[14 + 10] = static_cast<std::uint8_t>(csum >> 8);
  frame[14 + 11] = static_cast<std::uint8_t>(csum & 0xff);
  EXPECT_FALSE(decode_udp_frame(frame).has_value());
}

TEST(Framing, BuildPayloadEmbedsRtpHeader) {
  PacketRecord pkt;
  pkt.payload_size = 300;
  pkt.rtp = RtpHeader{.payload_type = 98, .marker = true, .sequence = 7,
                      .rtp_timestamp = 90000, .ssrc = 0x1234};
  const auto payload = build_payload(pkt);
  EXPECT_EQ(payload.size(), 300u);
  const auto rtp = parse_rtp(payload);
  ASSERT_TRUE(rtp.has_value());
  EXPECT_EQ(rtp->sequence, 7);
  EXPECT_TRUE(rtp->marker);
}

TEST(Framing, BuildPayloadWithoutRtpIsFiller) {
  PacketRecord pkt;
  pkt.payload_size = 48;
  const auto payload = build_payload(pkt);
  EXPECT_EQ(payload.size(), 48u);
}

TEST(Framing, RecordFromFrameAssignsDirectionByClientIp) {
  const auto client = Ipv4Addr::from_octets(10, 0, 0, 5);
  const std::vector<std::uint8_t> payload(20, 0);

  DecodedFrame up_frame{test_tuple(), payload};
  const auto up = record_from_frame(up_frame, 123, client);
  EXPECT_EQ(up.direction, Direction::kUpstream);
  EXPECT_EQ(up.timestamp, 123);
  EXPECT_EQ(up.payload_size, 20u);

  DecodedFrame down_frame{test_tuple().reversed(), payload};
  const auto down = record_from_frame(down_frame, 456, client);
  EXPECT_EQ(down.direction, Direction::kDownstream);
}

TEST(Framing, RecordFromFrameParsesRtpOpportunistically) {
  PacketRecord source;
  source.payload_size = 64;
  source.rtp = RtpHeader{.payload_type = 98, .marker = false, .sequence = 99,
                         .rtp_timestamp = 1, .ssrc = 2};
  const auto payload = build_payload(source);  // the frame views it
  DecodedFrame frame{test_tuple(), payload};
  const auto record =
      record_from_frame(frame, 0, Ipv4Addr::from_octets(10, 0, 0, 5));
  ASSERT_TRUE(record.rtp.has_value());
  EXPECT_EQ(record.rtp->sequence, 99);
}

}  // namespace
}  // namespace cgctx::net

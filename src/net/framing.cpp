#include "net/framing.hpp"

#include "net/byte_io.hpp"

namespace cgctx::net {

namespace {

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::size_t kEthernetHeaderSize = 14;
constexpr std::size_t kIpv4HeaderSize = 20;
constexpr std::size_t kUdpHeaderSize = 8;

}  // namespace

std::vector<std::uint8_t> encode_udp_frame(const FiveTuple& tuple,
                                           std::span<const std::uint8_t> payload) {
  ByteWriter w;
  // Ethernet II. Destination first. Direction on the wire is implied by
  // the IP addresses; MACs are cosmetic.
  w.write_bytes(std::span<const std::uint8_t>(kServerMac, 6));
  w.write_bytes(std::span<const std::uint8_t>(kClientMac, 6));
  w.write_u16_be(kEtherTypeIpv4);

  // IPv4 header, built separately so its checksum can be patched in.
  ByteWriter ip;
  const auto total_len =
      static_cast<std::uint16_t>(kIpv4HeaderSize + kUdpHeaderSize + payload.size());
  ip.write_u8(0x45);  // version 4, IHL 5
  ip.write_u8(0x00);  // DSCP/ECN
  ip.write_u16_be(total_len);
  ip.write_u16_be(0x0000);  // identification
  ip.write_u16_be(0x4000);  // flags: DF
  ip.write_u8(64);          // TTL
  ip.write_u8(tuple.protocol);
  ip.write_u16_be(0);  // checksum placeholder
  ip.write_u32_be(tuple.src_ip.value);
  ip.write_u32_be(tuple.dst_ip.value);
  auto ip_bytes = ip.take();
  const std::uint16_t csum = internet_checksum(ip_bytes);
  ip_bytes[10] = static_cast<std::uint8_t>(csum >> 8);
  ip_bytes[11] = static_cast<std::uint8_t>(csum & 0xff);
  w.write_bytes(ip_bytes);

  // UDP header. Checksum 0 = "not computed", valid for UDP/IPv4.
  w.write_u16_be(tuple.src_port);
  w.write_u16_be(tuple.dst_port);
  w.write_u16_be(static_cast<std::uint16_t>(kUdpHeaderSize + payload.size()));
  w.write_u16_be(0);

  w.write_bytes(payload);
  return w.take();
}

std::optional<DecodedFrame> decode_udp_frame(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  r.skip(12);  // MACs
  const std::uint16_t ethertype = r.read_u16_be();
  if (!r.ok() || ethertype != kEtherTypeIpv4) return std::nullopt;

  const std::size_t ip_start = r.offset();
  const std::uint8_t ver_ihl = r.read_u8();
  if (!r.ok() || (ver_ihl >> 4) != 4) return std::nullopt;
  const std::size_t ihl_bytes = static_cast<std::size_t>(ver_ihl & 0x0f) * 4;
  if (ihl_bytes < kIpv4HeaderSize) return std::nullopt;
  r.skip(1);  // DSCP/ECN
  const std::uint16_t total_len = r.read_u16_be();
  r.skip(2);  // identification
  const std::uint16_t flags_frag = r.read_u16_be();
  if ((flags_frag & 0x2000) != 0 || (flags_frag & 0x1fff) != 0)
    return std::nullopt;  // fragmented
  r.skip(1);  // TTL
  const std::uint8_t protocol = r.read_u8();
  r.skip(2);  // checksum (verified over the whole header below)
  const std::uint32_t src_ip = r.read_u32_be();
  const std::uint32_t dst_ip = r.read_u32_be();
  if (!r.ok() || protocol != 17) return std::nullopt;
  if (frame.size() < ip_start + ihl_bytes) return std::nullopt;
  if (internet_checksum(frame.subspan(ip_start, ihl_bytes)) != 0)
    return std::nullopt;
  r.skip(ihl_bytes - kIpv4HeaderSize);  // IPv4 options, if any

  const std::uint16_t src_port = r.read_u16_be();
  const std::uint16_t dst_port = r.read_u16_be();
  const std::uint16_t udp_len = r.read_u16_be();
  r.skip(2);  // UDP checksum
  if (!r.ok() || udp_len < kUdpHeaderSize) return std::nullopt;
  const std::size_t payload_len = udp_len - kUdpHeaderSize;
  // Cross-check IP total length.
  if (total_len != ihl_bytes + udp_len) return std::nullopt;

  if (r.remaining() < payload_len) return std::nullopt;
  return DecodedFrame{
      FiveTuple{Ipv4Addr{src_ip}, Ipv4Addr{dst_ip}, src_port, dst_port, 17},
      frame.subspan(r.offset(), payload_len)};
}

std::vector<std::uint8_t> build_payload(const PacketRecord& pkt) {
  ByteWriter w;
  std::size_t header_bytes = 0;
  if (pkt.rtp.has_value()) {
    auto rtp_bytes = pkt.rtp->serialize();
    header_bytes = rtp_bytes.size();
    w.write_bytes(rtp_bytes);
  }
  if (pkt.payload_size > header_bytes) {
    const std::size_t fill = pkt.payload_size - header_bytes;
    const std::uint8_t seed =
        pkt.rtp ? static_cast<std::uint8_t>(pkt.rtp->sequence & 0xff) : 0xa5;
    w.write_fill(fill, seed);
  }
  return w.take();
}

PacketRecord record_from_frame(const DecodedFrame& frame, Timestamp timestamp,
                               Ipv4Addr client_ip) {
  PacketRecord pkt;
  pkt.timestamp = timestamp;
  pkt.tuple = frame.tuple;
  pkt.payload_size = static_cast<std::uint32_t>(frame.payload.size());
  pkt.direction = frame.tuple.src_ip == client_ip ? Direction::kUpstream
                                                  : Direction::kDownstream;
  pkt.rtp = parse_rtp(frame.payload);
  return pkt;
}

}  // namespace cgctx::net

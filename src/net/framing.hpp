// Ethernet/IPv4/UDP framing for capture-file interchange.
//
// The simulator produces PacketRecords; to write genuine .pcap files (and
// to prove the parse path works on real capture bytes) we frame each
// record as Ethernet II + IPv4 + UDP (+ RTP header when present) and can
// decode such frames back into PacketRecords.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.hpp"

namespace cgctx::net {

/// Fixed synthetic MAC addresses used when framing generated traffic; the
/// classification pipeline never looks at layer 2.
inline constexpr std::uint8_t kClientMac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
inline constexpr std::uint8_t kServerMac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};

/// A decoded Ethernet/IPv4/UDP frame. `payload` views the UDP payload
/// bytes inside the decoded frame, so it is valid only while that frame's
/// bytes live and are not modified.
struct DecodedFrame {
  FiveTuple tuple;
  std::span<const std::uint8_t> payload;
};

/// Builds a full Ethernet II + IPv4 + UDP frame around `payload`.
/// The IPv4 header checksum is computed; the UDP checksum is left 0
/// (legal for UDP over IPv4).
std::vector<std::uint8_t> encode_udp_frame(const FiveTuple& tuple,
                                           std::span<const std::uint8_t> payload);

/// Decodes an Ethernet II + IPv4 + UDP frame without copying it: the
/// result's payload views `frame`. Returns nullopt for non-IPv4
/// ethertypes, non-UDP protocols, truncated headers, fragmented datagrams,
/// or a bad IPv4 header checksum.
std::optional<DecodedFrame> decode_udp_frame(std::span<const std::uint8_t> frame);

/// Builds the UDP payload for a PacketRecord: the serialized RTP header
/// (when present) followed by deterministic filler bytes up to
/// `payload_size`. Filler content is a function of the RTP sequence number
/// so captures are reproducible byte-for-byte.
std::vector<std::uint8_t> build_payload(const PacketRecord& pkt);

/// Reconstructs a PacketRecord from a decoded frame. `client_ip` tells the
/// decoder which endpoint is the subscriber so it can assign Direction.
/// RTP is parsed opportunistically from the payload head.
PacketRecord record_from_frame(const DecodedFrame& frame, Timestamp timestamp,
                               Ipv4Addr client_ip);

}  // namespace cgctx::net

// Real-time Transport Protocol (RFC 3550) fixed-header model.
//
// Cloud gaming platforms stream rendered video downstream and user inputs
// upstream inside RTP over UDP (paper §3.2). The pipeline needs the header
// fields for flow detection (version/SSRC consistency), frame-rate
// estimation (marker bit + RTP timestamp), and loss estimation (sequence
// numbers).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace cgctx::net {

/// Parsed RTP fixed header (12 bytes, no CSRC/extension support needed for
/// the synthetic flows in this repo; packets carrying either are rejected
/// by parse and treated as non-RTP).
struct RtpHeader {
  std::uint8_t payload_type = 0;   ///< 7-bit PT
  bool marker = false;             ///< set on the last packet of a video frame
  std::uint16_t sequence = 0;      ///< increments per packet
  std::uint32_t rtp_timestamp = 0; ///< media clock; constant within a frame
  std::uint32_t ssrc = 0;          ///< stream source identifier

  static constexpr std::size_t kWireSize = 12;

  /// Serializes the 12-byte fixed header (V=2, P=0, X=0, CC=0).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Writes serialize()'s bytes in place at the front of `out`.
  void write_to(std::span<std::uint8_t, kWireSize> out) const;
};

/// Parses an RTP fixed header from the start of a UDP payload. Returns
/// nullopt when the bytes cannot be a plain RTP v2 fixed header (wrong
/// version, padding/extension/CSRC present, or fewer than 12 bytes).
std::optional<RtpHeader> parse_rtp(std::span<const std::uint8_t> payload);

}  // namespace cgctx::net

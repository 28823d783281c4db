#include "net/rtp.hpp"

#include "net/byte_io.hpp"

namespace cgctx::net {

std::vector<std::uint8_t> RtpHeader::serialize() const {
  std::vector<std::uint8_t> bytes(kWireSize);
  write_to(std::span<std::uint8_t, kWireSize>(bytes.data(), kWireSize));
  return bytes;
}

void RtpHeader::write_to(std::span<std::uint8_t, kWireSize> out) const {
  out[0] = 0x80;  // V=2, P=0, X=0, CC=0
  out[1] = static_cast<std::uint8_t>((marker ? 0x80 : 0x00) |
                                     (payload_type & 0x7f));
  store_u16_be(out, 2, sequence);
  store_u32_be(out, 4, rtp_timestamp);
  store_u32_be(out, 8, ssrc);
}

std::optional<RtpHeader> parse_rtp(std::span<const std::uint8_t> payload) {
  if (payload.size() < RtpHeader::kWireSize) return std::nullopt;
  ByteReader r(payload);
  const std::uint8_t b0 = r.read_u8();
  if ((b0 >> 6) != 2) return std::nullopt;       // version must be 2
  if ((b0 & 0x20) != 0) return std::nullopt;     // padding unsupported
  if ((b0 & 0x10) != 0) return std::nullopt;     // extension unsupported
  if ((b0 & 0x0f) != 0) return std::nullopt;     // CSRC list unsupported
  const std::uint8_t b1 = r.read_u8();
  RtpHeader h;
  h.marker = (b1 & 0x80) != 0;
  h.payload_type = b1 & 0x7f;
  h.sequence = r.read_u16_be();
  h.rtp_timestamp = r.read_u32_be();
  h.ssrc = r.read_u32_be();
  if (!r.ok()) return std::nullopt;
  return h;
}

}  // namespace cgctx::net

#include "net/byte_io.hpp"

#include <algorithm>

namespace cgctx::net {

std::uint16_t ByteReader::read_u16_le() {
  if (!require(2)) return 0;
  const auto lo = static_cast<std::uint16_t>(data_[offset_]);
  const auto hi = static_cast<std::uint16_t>(data_[offset_ + 1]);
  offset_ += 2;
  return static_cast<std::uint16_t>(hi << 8 | lo);
}

std::uint32_t ByteReader::read_u32_le() {
  if (!require(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | data_[offset_ + static_cast<std::size_t>(i)];
  offset_ += 4;
  return v;
}

void ByteWriter::write_u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::write_u16_be(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void ByteWriter::write_u32_be(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift & 0xff));
}

void ByteWriter::write_u16_le(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::write_u32_le(std::uint32_t v) {
  for (int shift = 0; shift <= 24; shift += 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift & 0xff));
}

void ByteWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::write_fill(std::size_t n, std::uint8_t fill) {
  buf_.insert(buf_.end(), n, fill);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < bytes.size(); i += 2)
    sum += static_cast<std::uint32_t>(bytes[i]) << 8 | bytes[i + 1];
  if (i < bytes.size()) sum += static_cast<std::uint32_t>(bytes[i]) << 8;
  while (sum >> 16 != 0) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

}  // namespace cgctx::net

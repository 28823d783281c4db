// Bounds-checked byte-buffer readers and writers.
//
// Network formats (Ethernet/IPv4/UDP/RTP headers, PCAP records) are
// serialized through these helpers so that every parse is explicitly
// bounds-checked and byte order is spelled out at each access. No struct
// punning, no reinterpret_cast of wire bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cgctx::net {

/// Reads integers from a byte span with explicit endianness and bounds
/// checks. All read_* calls advance the cursor; a failed read (not enough
/// bytes) sets the error flag and returns 0, after which ok() is false and
/// further reads also fail. Callers check ok() once after a parse sequence.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const {
    return failed_ ? 0 : data_.size() - offset_;
  }

  std::uint8_t read_u8() {
    if (!require(1)) return 0;
    return data_[offset_++];
  }

  std::uint16_t read_u16_be() {
    if (!require(2)) return 0;
    const auto hi = static_cast<std::uint16_t>(data_[offset_]);
    const auto lo = static_cast<std::uint16_t>(data_[offset_ + 1]);
    offset_ += 2;
    return static_cast<std::uint16_t>(hi << 8 | lo);
  }

  std::uint32_t read_u32_be() {
    if (!require(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = v << 8 | data_[offset_ + i];
    offset_ += 4;
    return v;
  }

  std::uint16_t read_u16_le();
  std::uint32_t read_u32_le();

  /// Skips `n` bytes.
  void skip(std::size_t n) {
    if (require(n)) offset_ += n;
  }

 private:
  [[nodiscard]] bool require(std::size_t n) {
    if (failed_ || data_.size() - offset_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

/// Appends integers to a growable byte buffer with explicit endianness.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v);
  void write_u16_be(std::uint16_t v);
  void write_u32_be(std::uint32_t v);
  void write_u16_le(std::uint16_t v);
  void write_u32_le(std::uint32_t v);
  void write_bytes(std::span<const std::uint8_t> bytes);
  /// Appends `n` copies of `fill`.
  void write_fill(std::size_t n, std::uint8_t fill);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// RFC 1071 Internet checksum over a byte span (used by the IPv4 header).
std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes);

}  // namespace cgctx::net

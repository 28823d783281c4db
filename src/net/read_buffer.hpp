// Sequential binary-file input through one bounded buffer.
//
// Both capture readers (pcap, pcapng) pull their records through this
// class. The file is read in large chunks into one 64 KiB buffer and each
// record is handed out as a view of the buffered bytes, so parsing a
// record header costs no read call per field and no allocation. A record
// that straddles the end of the buffered bytes is carried over to the
// front of the buffer on refill; a record larger than the buffer grows it
// to fit, so callers bound record lengths before asking for them.
//
// The file is deliberately not memory-mapped: resident file-backed pages
// count in the process's RSS, so mapping a capture would charge the whole
// file to the probe's memory footprint.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

namespace cgctx::net {

class ReadBuffer {
 public:
  static constexpr std::size_t kCapacity = 64 * 1024;

  /// Opens `path` for reading; is_open() reports whether that worked.
  explicit ReadBuffer(const std::filesystem::path& path);

  [[nodiscard]] bool is_open() const { return in_.is_open(); }

  /// Consumes the next `n` bytes and returns a view of them. The view is
  /// shorter than `n` only at end of file (empty when no byte was left).
  /// It stays valid until the next take() or skip().
  std::span<const std::uint8_t> take(std::size_t n) {
    if (end_ - begin_ < n) refill(n);
    const std::size_t got = std::min(n, end_ - begin_);
    const std::span<const std::uint8_t> out(buf_.data() + begin_, got);
    begin_ += got;
    return out;
  }

  /// Discards the next `n` bytes without growing the buffer. Returns the
  /// number discarded, which is less than `n` only at end of file.
  std::uint64_t skip(std::uint64_t n);

 private:
  /// Moves the unconsumed bytes to the front, grows the buffer to hold at
  /// least `n` bytes, and reads until `n` bytes are buffered or the file
  /// ends.
  void refill(std::size_t n);

  std::ifstream in_;
  std::vector<std::uint8_t> buf_;
  std::size_t begin_ = 0;  ///< first unconsumed byte in buf_
  std::size_t end_ = 0;    ///< one past the last buffered byte
};

/// Decodes the 16-bit field at `at` in a capture file's byte order:
/// little-endian, or big-endian when `big_endian`. The caller has checked
/// that `bytes` holds the field.
inline std::uint16_t load_u16(std::span<const std::uint8_t> bytes,
                              std::size_t at, bool big_endian) {
  const std::uint16_t b0 = bytes[at];
  const std::uint16_t b1 = bytes[at + 1];
  return static_cast<std::uint16_t>(big_endian ? b0 << 8 | b1 : b1 << 8 | b0);
}

/// 32-bit counterpart of load_u16.
inline std::uint32_t load_u32(std::span<const std::uint8_t> bytes,
                              std::size_t at, bool big_endian) {
  const std::uint32_t b0 = bytes[at];
  const std::uint32_t b1 = bytes[at + 1];
  const std::uint32_t b2 = bytes[at + 2];
  const std::uint32_t b3 = bytes[at + 3];
  return big_endian ? b0 << 24 | b1 << 16 | b2 << 8 | b3
                    : b3 << 24 | b2 << 16 | b1 << 8 | b0;
}

}  // namespace cgctx::net

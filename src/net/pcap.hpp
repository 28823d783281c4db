// Minimal libpcap capture-file reader/writer (no external dependency).
//
// Supports the classic pcap format (magic 0xa1b2c3d4 microsecond and
// 0xa1b23c4d nanosecond variants, both byte orders on read; nanosecond
// little-endian on write) with LINKTYPE_ETHERNET. This is what Wireshark
// and tcpdump produced for the paper's lab dataset; regenerated synthetic
// sessions round-trip through genuine .pcap bytes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/read_buffer.hpp"
#include "net/time.hpp"
#include "net/write_buffer.hpp"

namespace cgctx::net {

/// One raw captured frame with its capture metadata.
struct CapturedFrame {
  Timestamp timestamp = 0;  ///< ns since Unix epoch (trace epoch for synthetic)
  std::vector<std::uint8_t> bytes;  ///< link-layer frame (possibly truncated)
  std::uint32_t original_length = 0;  ///< on-wire length before any snaplen cut
};

/// Streams frames into a pcap file through one bounded WriteBuffer. The
/// file header is written on open; frames are appended per call without
/// allocating. Throws std::runtime_error on I/O failure, from write() or,
/// for the last buffered frames, from close().
class PcapWriter {
 public:
  /// Opens (truncates) `path` and writes the nanosecond-resolution header.
  /// Throws std::invalid_argument for a snaplen over 1 MiB, since
  /// PcapReader rejects longer records.
  explicit PcapWriter(const std::filesystem::path& path,
                      std::uint32_t snaplen = 65535);
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// Appends one frame; bytes beyond snaplen are truncated (original
  /// length is still recorded, as libpcap does).
  void write(const CapturedFrame& frame);

  /// Flushes and closes; called by the destructor if not called earlier.
  void close();

  [[nodiscard]] std::size_t frames_written() const { return frames_written_; }

 private:
  std::uint32_t snaplen_;  ///< checked before out_ opens the file
  WriteBuffer out_;
  std::size_t frames_written_ = 0;
};

/// Reads frames from a pcap file. Handles both endiannesses and both
/// microsecond/nanosecond timestamp resolutions. Records are parsed out of
/// one bounded ReadBuffer; each frame costs one allocation, its `bytes`.
class PcapReader {
 public:
  /// Opens `path`; throws std::runtime_error when the file cannot be read
  /// or is not a classic pcap capture of Ethernet link type.
  explicit PcapReader(const std::filesystem::path& path);

  /// Returns the next frame, or nullopt when the file ends exactly at a
  /// record boundary. Throws on a corrupt or truncated record, including a
  /// partial record header.
  std::optional<CapturedFrame> next();

  /// Convenience: reads every remaining frame.
  std::vector<CapturedFrame> read_all();

  [[nodiscard]] std::uint32_t snaplen() const { return snaplen_; }

 private:
  ReadBuffer in_;
  bool big_endian_ = false; ///< file fields are big-endian
  bool nanosecond_ = false; ///< timestamp fraction is ns rather than us
  std::uint32_t snaplen_ = 0;
};

/// Writes a whole session's PacketRecords as an Ethernet pcap, framing each
/// record via encode_udp_frame/build_payload. Returns frames written.
std::size_t write_pcap(const std::filesystem::path& path,
                       std::span<const PacketRecord> packets);

/// Reads a pcap written by write_pcap (or any Ethernet/IPv4/UDP capture)
/// back into PacketRecords. Non-UDP/undecodable frames are skipped.
/// `client_ip` identifies the subscriber endpoint for Direction labeling.
std::vector<PacketRecord> read_pcap(const std::filesystem::path& path,
                                    Ipv4Addr client_ip);

}  // namespace cgctx::net

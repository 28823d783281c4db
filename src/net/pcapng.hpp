// Minimal pcapng (pcap next generation) capture-file reader/writer.
//
// Modern Wireshark writes pcapng by default, so a capture pipeline that
// claims to consume field traces needs both formats. This implementation
// covers the blocks a single-interface Ethernet capture uses: Section
// Header (SHB), Interface Description (IDB, nanosecond timestamp
// resolution), and Enhanced Packet (EPB). Unknown blocks are skipped on
// read, as the spec requires; both byte orders are read, little-endian
// is written.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <vector>

#include "net/pcap.hpp"  // CapturedFrame
#include "net/read_buffer.hpp"

namespace cgctx::net {

class PcapngWriter {
 public:
  /// Opens (truncates) `path`, writing the SHB and one Ethernet IDB with
  /// nanosecond timestamp resolution. Throws std::runtime_error on I/O
  /// failure.
  explicit PcapngWriter(const std::filesystem::path& path,
                        std::uint32_t snaplen = 65535);
  ~PcapngWriter();

  PcapngWriter(const PcapngWriter&) = delete;
  PcapngWriter& operator=(const PcapngWriter&) = delete;

  /// Appends one Enhanced Packet Block (truncating to snaplen).
  void write(const CapturedFrame& frame);

  void close();

  [[nodiscard]] std::size_t frames_written() const { return frames_written_; }

 private:
  std::ofstream out_;
  std::uint32_t snaplen_;
  std::size_t frames_written_ = 0;
};

class PcapngReader {
 public:
  /// Opens `path` and parses the SHB/IDB. Throws std::runtime_error when
  /// the file is not pcapng or the first interface is not Ethernet.
  explicit PcapngReader(const std::filesystem::path& path);

  /// Next packet frame, or nullopt when the file ends exactly at a block
  /// boundary. Non-packet blocks are skipped. Throws on structural
  /// corruption, including a partial block header.
  std::optional<CapturedFrame> next();

  std::vector<CapturedFrame> read_all();

 private:
  /// Parses the interface's if_tsresol option into ticks-per-second.
  /// Throws when the resolution does not fit 64-bit ticks per second.
  void parse_idb_options(std::span<const std::uint8_t> options);

  ReadBuffer in_;
  bool big_endian_ = false;  ///< file fields are big-endian
  bool idb_seen_ = false;
  /// Timestamp ticks per second for interface 0 (default 1e6 per spec).
  std::uint64_t ticks_per_second_ = 1'000'000;
};

/// Whole-session conveniences mirroring write_pcap/read_pcap.
std::size_t write_pcapng(const std::filesystem::path& path,
                         std::span<const PacketRecord> packets);
std::vector<PacketRecord> read_pcapng(const std::filesystem::path& path,
                                      Ipv4Addr client_ip);

}  // namespace cgctx::net

// Helpers shared by the pcap and pcapng writer/reader tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "ml/rng.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "sim/cross_traffic.hpp"
#include "sim/session.hpp"

namespace cgctx::net {

/// FNV-1a over a file's bytes.
inline std::uint64_t file_digest(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (auto it = std::istreambuf_iterator<char>(in);
       it != std::istreambuf_iterator<char>(); ++it) {
    hash ^= static_cast<std::uint8_t>(*it);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The packets whose capture bytes the writer tests pin: a generated
/// session (RTP, ≈8 k frames), a web-browsing cross flow (TCP, no RTP),
/// and two edge records (an RTP header longer than the payload size, and
/// an empty payload).
inline std::vector<PacketRecord> pinned_capture_packets() {
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kGenshinImpact;
  spec.gameplay_seconds = 1.0;
  spec.seed = 42;
  const sim::LabeledSession session = sim::SessionGenerator().generate(spec);
  std::vector<PacketRecord> packets = session.packets;
  ml::Rng rng(7);
  const auto web = sim::web_browsing_flow(session.client_ip, 2.0, rng);
  packets.insert(packets.end(), web.begin(), web.end());
  PacketRecord tiny = packets.front();
  tiny.payload_size = 4;
  packets.push_back(tiny);
  PacketRecord empty = web.front();
  empty.payload_size = 0;
  packets.push_back(empty);
  return packets;
}

/// Deterministic frame bytes that differ per record and per offset, so a
/// misplaced carry-over cannot read back equal.
inline std::vector<std::uint8_t> pattern_frame(std::size_t size,
                                               std::uint32_t salt) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i)
    bytes[i] = static_cast<std::uint8_t>((i * 131 + salt * 7919) >> 3);
  return bytes;
}

/// Writes `frames` through `Writer` and checks that `Reader` returns each
/// one byte for byte, with its timestamp and original length.
template <typename Writer, typename Reader>
void expect_round_trip(const std::filesystem::path& path,
                       const std::vector<CapturedFrame>& frames,
                       std::uint32_t snaplen = 65535) {
  {
    Writer writer(path, snaplen);
    for (const CapturedFrame& frame : frames) writer.write(frame);
  }
  Reader reader(path);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto loaded = reader.next();
    ASSERT_TRUE(loaded.has_value()) << i;
    EXPECT_EQ(loaded->timestamp, frames[i].timestamp) << i;
    EXPECT_EQ(loaded->original_length, frames[i].original_length) << i;
    EXPECT_EQ(loaded->bytes, frames[i].bytes) << i;
  }
  EXPECT_FALSE(reader.next().has_value());
}

}  // namespace cgctx::net

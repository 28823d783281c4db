#include "net/pcap.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "net/byte_io.hpp"
#include "net/framing.hpp"

namespace cgctx::net {

namespace {

constexpr std::uint32_t kMagicMicro = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNano = 0xa1b23c4d;
constexpr std::uint32_t kMagicMicroSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanoSwapped = 0x4d3cb2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;
constexpr std::size_t kFileHeaderSize = 24;
constexpr std::size_t kRecordHeaderSize = 16;
/// Longest record accepted, whatever the file's snaplen claims; it also
/// bounds how far the read buffer can grow.
constexpr std::uint32_t kMaxRecordLength = 1u << 20;

/// Returns `snaplen`, or throws std::invalid_argument when PcapReader
/// would reject its records. Runs before the writer opens the file.
std::uint32_t writable_snaplen(std::uint32_t snaplen) {
  if (snaplen > kMaxRecordLength)
    throw std::invalid_argument(
        "PcapWriter: snaplen over 1 MiB, longer than PcapReader accepts");
  return snaplen;
}

}  // namespace

PcapWriter::PcapWriter(const std::filesystem::path& path, std::uint32_t snaplen)
    : snaplen_(writable_snaplen(snaplen)), out_(path) {
  if (!out_.is_open())
    throw std::runtime_error("PcapWriter: cannot open " + path.string());
  std::array<std::uint8_t, kFileHeaderSize> header{};
  store_u32_le(header, 0, kMagicNano);
  store_u16_le(header, 4, 2);  // version major
  store_u16_le(header, 6, 4);  // version minor
  // thiszone and sigfigs stay 0.
  store_u32_le(header, 16, snaplen_);
  store_u32_le(header, 20, kLinkTypeEthernet);
  out_.append(header);
}

PcapWriter::~PcapWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an explicit close() reports errors.
  }
}

void PcapWriter::write(const CapturedFrame& frame) {
  if (!out_.is_open()) throw std::runtime_error("PcapWriter: write after close");
  const auto incl_len = static_cast<std::uint32_t>(
      std::min<std::size_t>(snaplen_, frame.bytes.size()));
  std::array<std::uint8_t, kRecordHeaderSize> header{};
  store_u32_le(header, 0, static_cast<std::uint32_t>(frame.timestamp / kNanosPerSecond));
  store_u32_le(header, 4, static_cast<std::uint32_t>(frame.timestamp % kNanosPerSecond));
  store_u32_le(header, 8, incl_len);
  store_u32_le(header, 12, frame.original_length != 0
                               ? frame.original_length
                               : static_cast<std::uint32_t>(frame.bytes.size()));
  out_.append(header);
  out_.append(std::span(frame.bytes).first(incl_len));
  ++frames_written_;
}

void PcapWriter::close() { out_.close(); }

PcapReader::PcapReader(const std::filesystem::path& path) : in_(path) {
  if (!in_.is_open())
    throw std::runtime_error("PcapReader: cannot open " + path.string());
  const auto header = in_.take(kFileHeaderSize);
  // The magic is read little-endian; a big-endian file shows it swapped.
  switch (header.size() < 4 ? 0 : load_u32(header, 0, false)) {
    case kMagicMicro: break;
    case kMagicNano: nanosecond_ = true; break;
    case kMagicMicroSwapped: big_endian_ = true; break;
    case kMagicNanoSwapped: big_endian_ = true; nanosecond_ = true; break;
    default: throw std::runtime_error("PcapReader: not a classic pcap file");
  }
  if (header.size() < kFileHeaderSize)
    throw std::runtime_error("PcapReader: truncated file header");
  // Skipped: version major/minor (u16 each), thiszone, sigfigs.
  snaplen_ = load_u32(header, 16, big_endian_);
  if (load_u32(header, 20, big_endian_) != kLinkTypeEthernet)
    throw std::runtime_error("PcapReader: unsupported link type");
}

std::optional<CapturedFrame> PcapReader::next() {
  const auto header = in_.take(kRecordHeaderSize);
  if (header.empty()) return std::nullopt;
  if (header.size() < kRecordHeaderSize)
    throw std::runtime_error("PcapReader: truncated record header");
  const std::uint32_t ts_sec = load_u32(header, 0, big_endian_);
  const std::uint32_t ts_frac = load_u32(header, 4, big_endian_);
  const std::uint32_t incl_len = load_u32(header, 8, big_endian_);
  const std::uint32_t orig_len = load_u32(header, 12, big_endian_);
  if (incl_len > kMaxRecordLength)
    throw std::runtime_error("PcapReader: implausible record length");
  const auto body = in_.take(incl_len);
  if (body.size() < incl_len)
    throw std::runtime_error("PcapReader: truncated record body");
  CapturedFrame frame;
  frame.timestamp = static_cast<Timestamp>(ts_sec) * kNanosPerSecond +
                    (nanosecond_ ? ts_frac : static_cast<Timestamp>(ts_frac) * 1000);
  frame.original_length = orig_len;
  frame.bytes.assign(body.begin(), body.end());
  return frame;
}

std::vector<CapturedFrame> PcapReader::read_all() {
  std::vector<CapturedFrame> frames;
  while (auto f = next()) frames.push_back(std::move(*f));
  return frames;
}

std::size_t write_pcap(const std::filesystem::path& path,
                       std::span<const PacketRecord> packets) {
  PcapWriter writer(path);
  for (const PacketRecord& pkt : packets) {
    const auto payload = build_payload(pkt);
    CapturedFrame frame;
    frame.timestamp = pkt.timestamp;
    frame.bytes = encode_udp_frame(pkt.tuple, payload);
    writer.write(frame);
  }
  writer.close();
  return writer.frames_written();
}

std::vector<PacketRecord> read_pcap(const std::filesystem::path& path,
                                    Ipv4Addr client_ip) {
  PcapReader reader(path);
  std::vector<PacketRecord> packets;
  while (auto frame = reader.next()) {
    auto decoded = decode_udp_frame(frame->bytes);
    if (!decoded) continue;
    packets.push_back(record_from_frame(*decoded, frame->timestamp, client_ip));
  }
  return packets;
}

}  // namespace cgctx::net

#include "net/pcap.hpp"

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

}  // namespace

PcapWriter::PcapWriter(const std::filesystem::path& path, std::uint32_t snaplen)
    : out_(path, std::ios::binary | std::ios::trunc), snaplen_(snaplen) {
  if (!out_) throw std::runtime_error("PcapWriter: cannot open " + path.string());
  ByteWriter w;
  w.write_u32_le(kMagicNano);
  w.write_u16_le(2);  // version major
  w.write_u16_le(4);  // version minor
  w.write_u32_le(0);  // thiszone
  w.write_u32_le(0);  // sigfigs
  w.write_u32_le(snaplen_);
  w.write_u32_le(kLinkTypeEthernet);
  const auto& hdr = w.data();
  out_.write(reinterpret_cast<const char*>(hdr.data()),
             static_cast<std::streamsize>(hdr.size()));
  if (!out_) throw std::runtime_error("PcapWriter: header write failed");
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
  const std::uint32_t incl_len =
      std::min<std::uint32_t>(snaplen_, static_cast<std::uint32_t>(frame.bytes.size()));
  ByteWriter w;
  w.write_u32_le(static_cast<std::uint32_t>(frame.timestamp / kNanosPerSecond));
  w.write_u32_le(static_cast<std::uint32_t>(frame.timestamp % kNanosPerSecond));
  w.write_u32_le(incl_len);
  w.write_u32_le(frame.original_length != 0
                     ? frame.original_length
                     : static_cast<std::uint32_t>(frame.bytes.size()));
  const auto& rec = w.data();
  out_.write(reinterpret_cast<const char*>(rec.data()),
             static_cast<std::streamsize>(rec.size()));
  out_.write(reinterpret_cast<const char*>(frame.bytes.data()),
             static_cast<std::streamsize>(incl_len));
  if (!out_) throw std::runtime_error("PcapWriter: record write failed");
  ++frames_written_;
}

void PcapWriter::close() {
  if (out_.is_open()) {
    out_.flush();
    if (!out_) throw std::runtime_error("PcapWriter: flush failed");
    out_.close();
  }
}

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

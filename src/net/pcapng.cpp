#include "net/pcapng.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "net/byte_io.hpp"
#include "net/framing.hpp"
#include "net/time.hpp"

namespace cgctx::net {

namespace {

constexpr std::uint32_t kShbType = 0x0A0D0D0A;
constexpr std::uint32_t kIdbType = 0x00000001;
constexpr std::uint32_t kEpbType = 0x00000006;
constexpr std::uint32_t kByteOrderMagic = 0x1A2B3C4D;
constexpr std::uint32_t kByteOrderMagicSwapped = 0x4D3C2B1A;
constexpr std::uint16_t kLinkEthernet = 1;
constexpr std::uint16_t kOptTsResol = 9;
constexpr std::uint16_t kOptEnd = 0;

constexpr std::size_t kBlockHeaderSize = 8;   // type + total length
constexpr std::size_t kBlockOverhead = 12;    // header + trailing length
constexpr std::size_t kEpbFixedSize = 20;     // interface id .. original length
constexpr std::uint32_t kMaxBlockLength = 1u << 26;

std::size_t padded4(std::size_t n) { return (n + 3) & ~std::size_t{3}; }

/// Converts interface timestamp ticks to nanoseconds.
Timestamp ticks_to_ns(std::uint64_t ticks, std::uint64_t ticks_per_second) {
  constexpr auto kNs = static_cast<std::uint64_t>(kNanosPerSecond);
  if (kNs % ticks_per_second == 0)
    return static_cast<Timestamp>(ticks * (kNs / ticks_per_second));
  // A tick is not a whole number of nanoseconds: whole seconds stay exact
  // and only the sub-second rest goes through double, rounded down and
  // kept under one second so the conversion stays in range.
  const double rest = static_cast<double>(ticks % ticks_per_second) /
                      static_cast<double>(ticks_per_second);
  const auto rest_ns = std::min(static_cast<std::uint64_t>(rest * 1e9), kNs - 1);
  return static_cast<Timestamp>(ticks / ticks_per_second * kNs + rest_ns);
}

/// Returns `snaplen`, or throws std::invalid_argument when PcapngReader
/// would reject its Enhanced Packet Blocks. Runs before the writer opens
/// the file.
std::uint32_t writable_snaplen(std::uint32_t snaplen) {
  if (snaplen > kMaxBlockLength - kBlockOverhead - kEpbFixedSize)
    throw std::invalid_argument(
        "PcapngWriter: snaplen makes blocks longer than PcapngReader accepts");
  return snaplen;
}

/// Appends one block whose body is already a multiple of 4 bytes long.
void write_block(WriteBuffer& out, std::uint32_t type,
                 std::span<const std::uint8_t> body) {
  const auto total = static_cast<std::uint32_t>(kBlockOverhead + body.size());
  std::array<std::uint8_t, kBlockHeaderSize> head{};
  store_u32_le(head, 0, type);
  store_u32_le(head, 4, total);
  out.append(head);
  out.append(body);
  std::array<std::uint8_t, 4> tail{};
  store_u32_le(tail, 0, total);
  out.append(tail);
}

}  // namespace

PcapngWriter::PcapngWriter(const std::filesystem::path& path,
                           std::uint32_t snaplen)
    : snaplen_(writable_snaplen(snaplen)), out_(path) {
  if (!out_.is_open())
    throw std::runtime_error("PcapngWriter: cannot open " + path.string());

  std::array<std::uint8_t, 16> shb{};
  store_u32_le(shb, 0, kByteOrderMagic);
  store_u16_le(shb, 4, 1);            // major
  store_u16_le(shb, 6, 0);            // minor
  store_u32_le(shb, 8, 0xFFFFFFFF);   // section length unknown (-1)
  store_u32_le(shb, 12, 0xFFFFFFFF);
  write_block(out_, kShbType, shb);

  // Interface Description Block: Ethernet, nanosecond timestamps.
  std::array<std::uint8_t, 20> idb{};
  store_u16_le(idb, 0, kLinkEthernet);
  // Bytes 2-3 reserved.
  store_u32_le(idb, 4, snaplen_);
  // if_tsresol option: one byte, value 9 => 10^-9 s ticks, padded to 4.
  store_u16_le(idb, 8, kOptTsResol);
  store_u16_le(idb, 10, 1);
  idb[12] = 9;
  store_u16_le(idb, 16, kOptEnd);  // and a zero option length
  write_block(out_, kIdbType, idb);
}

PcapngWriter::~PcapngWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; explicit close() reports errors.
  }
}

void PcapngWriter::write(const CapturedFrame& frame) {
  if (!out_.is_open())
    throw std::runtime_error("PcapngWriter: write after close");
  const auto captured = static_cast<std::uint32_t>(
      std::min<std::size_t>(snaplen_, frame.bytes.size()));
  const std::size_t padding = padded4(captured) - captured;
  const auto total = static_cast<std::uint32_t>(kBlockOverhead + kEpbFixedSize +
                                                captured + padding);
  const auto ticks = static_cast<std::uint64_t>(frame.timestamp);
  std::array<std::uint8_t, kBlockHeaderSize + kEpbFixedSize> head{};
  store_u32_le(head, 0, kEpbType);
  store_u32_le(head, 4, total);
  store_u32_le(head, 8, 0);  // interface id
  store_u32_le(head, 12, static_cast<std::uint32_t>(ticks >> 32));
  store_u32_le(head, 16, static_cast<std::uint32_t>(ticks & 0xffffffff));
  store_u32_le(head, 20, captured);
  store_u32_le(head, 24, frame.original_length != 0
                             ? frame.original_length
                             : static_cast<std::uint32_t>(frame.bytes.size()));
  out_.append(head);
  out_.append(std::span(frame.bytes).first(captured));
  // Zero padding to 4 bytes, then the trailing block length.
  std::array<std::uint8_t, 8> tail{};
  store_u32_le(tail, padding, total);
  out_.append(std::span(tail).first(padding + 4));
  ++frames_written_;
}

void PcapngWriter::close() { out_.close(); }

PcapngReader::PcapngReader(const std::filesystem::path& path) : in_(path) {
  if (!in_.is_open())
    throw std::runtime_error("PcapngReader: cannot open " + path.string());
  // The SHB type reads the same in both byte orders; endianness is
  // discovered from the byte-order magic inside.
  const auto head = in_.take(kBlockHeaderSize + 4);
  if (head.size() < 4 || load_u32(head, 0, false) != kShbType)
    throw std::runtime_error("PcapngReader: not a pcapng file");
  if (head.size() < kBlockHeaderSize + 4)
    throw std::runtime_error("PcapngReader: truncated SHB");
  const std::uint32_t magic = load_u32(head, 8, false);
  if (magic == kByteOrderMagicSwapped) {
    big_endian_ = true;
  } else if (magic != kByteOrderMagic) {
    throw std::runtime_error("PcapngReader: bad byte-order magic");
  }
  const std::uint32_t total_length = load_u32(head, 4, big_endian_);
  if (total_length < 28)
    throw std::runtime_error("PcapngReader: SHB too short");
  // Skip the rest of the SHB (version, section length, options, trailer).
  const std::uint64_t rest = total_length - (kBlockHeaderSize + 4);
  if (in_.skip(rest) < rest)
    throw std::runtime_error("PcapngReader: truncated SHB");
}

void PcapngReader::parse_idb_options(std::span<const std::uint8_t> options) {
  std::size_t offset = 0;
  while (offset + 4 <= options.size()) {
    const std::uint16_t code = load_u16(options, offset, big_endian_);
    const std::uint16_t length = load_u16(options, offset + 2, big_endian_);
    offset += 4;
    if (code == kOptEnd) break;
    if (code == kOptTsResol && length >= 1 && offset < options.size()) {
      // High bit set: ticks are 2^-exponent s, otherwise 10^-exponent s.
      // Larger exponents would not fit 64-bit ticks per second.
      const std::uint8_t resol = options[offset];
      const int exponent = resol & 0x7f;
      const bool binary = (resol & 0x80) != 0;
      if (exponent > (binary ? 63 : 19))
        throw std::runtime_error("PcapngReader: unsupported if_tsresol");
      ticks_per_second_ = 1;
      for (int i = 0; i < exponent; ++i) ticks_per_second_ *= binary ? 2 : 10;
    }
    offset += padded4(length);
  }
}

std::optional<CapturedFrame> PcapngReader::next() {
  while (true) {
    const auto head = in_.take(kBlockHeaderSize);
    if (head.empty()) return std::nullopt;
    if (head.size() < kBlockHeaderSize)
      throw std::runtime_error("PcapngReader: truncated block header");
    const std::uint32_t type = load_u32(head, 0, big_endian_);
    const std::uint32_t total_length = load_u32(head, 4, big_endian_);
    if (total_length < kBlockOverhead || total_length % 4 != 0 ||
        total_length > kMaxBlockLength)
      throw std::runtime_error("PcapngReader: implausible block length");
    const std::size_t body_length = total_length - kBlockOverhead;

    // Blocks the reader does not parse are skipped without being buffered
    // whole; a parsed block's body is viewed together with its trailer.
    const bool parsed = type == kEpbType || (type == kIdbType && !idb_seen_);
    if (!parsed && in_.skip(body_length) < body_length)
      throw std::runtime_error("PcapngReader: truncated block");
    const std::size_t wanted = parsed ? body_length + 4 : 4;
    const auto rest = in_.take(wanted);
    if (rest.size() < wanted)
      throw std::runtime_error("PcapngReader: truncated block");
    const auto body = rest.first(wanted - 4);
    if (load_u32(rest, body.size(), big_endian_) != total_length)
      throw std::runtime_error("PcapngReader: block trailer mismatch");
    if (!parsed) continue;

    if (type == kIdbType) {
      idb_seen_ = true;
      if (body.size() < 8)
        throw std::runtime_error("PcapngReader: IDB too short");
      if (load_u16(body, 0, big_endian_) != kLinkEthernet)
        throw std::runtime_error("PcapngReader: unsupported link type");
      parse_idb_options(body.subspan(8));
      continue;
    }

    if (body.size() < kEpbFixedSize)
      throw std::runtime_error("PcapngReader: EPB too short");
    // Skipped: interface id at offset 0.
    const std::uint32_t ts_high = load_u32(body, 4, big_endian_);
    const std::uint32_t ts_low = load_u32(body, 8, big_endian_);
    const std::uint32_t captured = load_u32(body, 12, big_endian_);
    const std::uint32_t original = load_u32(body, 16, big_endian_);
    if (captured > body.size() - kEpbFixedSize)
      throw std::runtime_error("PcapngReader: EPB payload truncated");

    CapturedFrame frame;
    frame.timestamp = ticks_to_ns(
        static_cast<std::uint64_t>(ts_high) << 32 | ts_low, ticks_per_second_);
    frame.original_length = original;
    const auto payload = body.subspan(kEpbFixedSize, captured);
    frame.bytes.assign(payload.begin(), payload.end());
    return frame;
  }
}

std::vector<CapturedFrame> PcapngReader::read_all() {
  std::vector<CapturedFrame> frames;
  while (auto f = next()) frames.push_back(std::move(*f));
  return frames;
}

std::size_t write_pcapng(const std::filesystem::path& path,
                         std::span<const PacketRecord> packets) {
  PcapngWriter writer(path);
  for (const PacketRecord& pkt : packets) {
    CapturedFrame frame;
    frame.timestamp = pkt.timestamp;
    frame.bytes = encode_udp_frame(pkt.tuple, build_payload(pkt));
    writer.write(frame);
  }
  writer.close();
  return writer.frames_written();
}

std::vector<PacketRecord> read_pcapng(const std::filesystem::path& path,
                                      Ipv4Addr client_ip) {
  PcapngReader reader(path);
  std::vector<PacketRecord> packets;
  while (auto frame = reader.next()) {
    auto decoded = decode_udp_frame(frame->bytes);
    if (!decoded) continue;
    packets.push_back(record_from_frame(*decoded, frame->timestamp, client_ip));
  }
  return packets;
}

}  // namespace cgctx::net

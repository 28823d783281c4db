#include "net/pcapng.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "capture_fixture.hpp"
#include "net/byte_io.hpp"
#include "net/framing.hpp"
#include "net/read_buffer.hpp"

namespace cgctx::net {
namespace {

class PcapngTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            (std::string("cgctx_pcapng_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".pcapng");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::filesystem::path path_;
};

PacketRecord make_record(Timestamp t, Direction dir, std::uint32_t payload,
                         std::uint16_t seq) {
  PacketRecord pkt;
  pkt.timestamp = t;
  pkt.direction = dir;
  pkt.payload_size = payload;
  const FiveTuple up{Ipv4Addr::from_octets(10, 0, 0, 5),
                     Ipv4Addr::from_octets(119, 81, 1, 9), 50123, 49004, 17};
  pkt.tuple = dir == Direction::kUpstream ? up : up.reversed();
  pkt.rtp = RtpHeader{.payload_type = 98, .marker = seq % 4 == 0,
                      .sequence = seq, .rtp_timestamp = seq * 100u,
                      .ssrc = 0x99aa};
  return pkt;
}

/// Assembles a single-interface pcapng by hand, every field in the chosen
/// byte order, so tests can set options PcapngWriter never writes.
class RawPcapng {
 public:
  explicit RawPcapng(bool big_endian) : big_endian_(big_endian) {
    ByteWriter shb;
    u32(shb, 0x1A2B3C4D);
    u16(shb, 1);
    u16(shb, 0);
    u32(shb, 0xFFFFFFFF);  // section length unknown
    u32(shb, 0xFFFFFFFF);
    block(0x0A0D0D0A, shb.data());
  }

  /// Ethernet IDB whose if_tsresol option byte is `tsresol`.
  void idb(std::uint8_t tsresol) {
    ByteWriter body;
    u16(body, 1);  // LINKTYPE_ETHERNET
    u16(body, 0);
    u32(body, 65535);
    u16(body, 9);  // if_tsresol
    u16(body, 1);
    body.write_u8(tsresol);
    body.write_fill(3, 0);
    u16(body, 0);  // opt_endofopt
    u16(body, 0);
    block(1, body.data());
  }

  void epb(std::uint64_t ticks, std::span<const std::uint8_t> frame) {
    ByteWriter body;
    u32(body, 0);
    u32(body, static_cast<std::uint32_t>(ticks >> 32));
    u32(body, static_cast<std::uint32_t>(ticks));
    u32(body, static_cast<std::uint32_t>(frame.size()));
    u32(body, static_cast<std::uint32_t>(frame.size()));
    body.write_bytes(frame);
    block(6, body.data());
  }

  /// Any block; the body is zero-padded to a multiple of 4 bytes.
  void block(std::uint32_t type, std::span<const std::uint8_t> body) {
    const std::size_t padded = (body.size() + 3) & ~std::size_t{3};
    const auto total = static_cast<std::uint32_t>(12 + padded);
    u32(out_, type);
    u32(out_, total);
    out_.write_bytes(body);
    out_.write_fill(padded - body.size(), 0);
    u32(out_, total);
  }

  void save(const std::filesystem::path& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(out_.data().data()),
              static_cast<std::streamsize>(out_.size()));
  }

 private:
  void u16(ByteWriter& w, std::uint16_t v) const {
    big_endian_ ? w.write_u16_be(v) : w.write_u16_le(v);
  }
  void u32(ByteWriter& w, std::uint32_t v) const {
    big_endian_ ? w.write_u32_be(v) : w.write_u32_le(v);
  }

  bool big_endian_;
  ByteWriter out_;
};

TEST_F(PcapngTest, RoundTripPreservesRecords) {
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 40; ++i)
    packets.push_back(make_record(
        static_cast<Timestamp>(i) * 33 * kNanosPerMilli + 7,
        i % 4 == 0 ? Direction::kUpstream : Direction::kDownstream,
        static_cast<std::uint32_t>(64 + i * 31), static_cast<std::uint16_t>(i)));
  EXPECT_EQ(write_pcapng(path_, packets), packets.size());

  const auto loaded = read_pcapng(path_, Ipv4Addr::from_octets(10, 0, 0, 5));
  ASSERT_EQ(loaded.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(loaded[i].timestamp, packets[i].timestamp);
    EXPECT_EQ(loaded[i].direction, packets[i].direction);
    EXPECT_EQ(loaded[i].payload_size, packets[i].payload_size);
    ASSERT_TRUE(loaded[i].rtp.has_value());
    EXPECT_EQ(loaded[i].rtp->sequence, packets[i].rtp->sequence);
  }
}

TEST_F(PcapngTest, NanosecondTimestampsSurvive) {
  const std::vector<PacketRecord> packets = {
      make_record(9'876'543'210'123'456, Direction::kDownstream, 500, 1)};
  write_pcapng(path_, packets);
  const auto loaded = read_pcapng(path_, Ipv4Addr::from_octets(10, 0, 0, 5));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].timestamp, 9'876'543'210'123'456);
}

TEST_F(PcapngTest, RejectsClassicPcapFile) {
  // A classic pcap file starts with a different magic.
  const std::vector<PacketRecord> one = {
      make_record(0, Direction::kDownstream, 100, 1)};
  write_pcap(path_, one);
  EXPECT_THROW(PcapngReader reader(path_), std::runtime_error);
}

TEST_F(PcapngTest, RejectsGarbage) {
  std::ofstream out(path_, std::ios::binary);
  out << "definitely not pcapng data, just some text";
  out.close();
  EXPECT_THROW(PcapngReader reader(path_), std::runtime_error);
}

TEST_F(PcapngTest, SkipsUnknownBlocks) {
  const std::vector<PacketRecord> one = {
      make_record(5, Direction::kDownstream, 80, 3)};
  write_pcapng(path_, one);
  // Append an unknown block type (e.g. a Name Resolution Block, 0x04)
  // followed by another valid capture section is overkill; instead,
  // prepend-style injection: append an unknown block and a second EPB by
  // rewriting through the writer API is not possible, so just verify the
  // reader tolerates a trailing unknown block.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    const std::uint32_t type = 0x00000004;
    const std::uint32_t length = 16;  // 12 header/trailer + 4 body
    const std::uint32_t body = 0xdeadbeef;
    out.write(reinterpret_cast<const char*>(&type), 4);
    out.write(reinterpret_cast<const char*>(&length), 4);
    out.write(reinterpret_cast<const char*>(&body), 4);
    out.write(reinterpret_cast<const char*>(&length), 4);
  }
  PcapngReader reader(path_);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());  // unknown block skipped, EOF
}

TEST_F(PcapngTest, ThrowsOnCorruptTrailer) {
  const std::vector<PacketRecord> one = {
      make_record(0, Direction::kDownstream, 100, 1)};
  write_pcapng(path_, one);
  // Corrupt the final 4 bytes (the EPB's trailing length).
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-4, std::ios::end);
  const std::uint32_t junk = 0x12345678;
  f.write(reinterpret_cast<const char*>(&junk), 4);
  f.close();
  PcapngReader reader(path_);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
}

TEST_F(PcapngTest, SnaplenTruncates) {
  PcapngWriter writer(path_, /*snaplen=*/64);
  CapturedFrame frame;
  frame.timestamp = 1;
  frame.bytes.assign(400, 0xbb);
  writer.write(frame);
  writer.close();
  PcapngReader reader(path_);
  const auto loaded = reader.next();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->bytes.size(), 64u);
  EXPECT_EQ(loaded->original_length, 400u);
}

TEST_F(PcapngTest, EmptyCapture) {
  write_pcapng(path_, {});
  EXPECT_TRUE(read_pcapng(path_, Ipv4Addr{0}).empty());
}

TEST_F(PcapngTest, TimestampResolutionsConvertExactly) {
  constexpr std::uint8_t kBinary = 0x80;
  constexpr std::uint64_t kTwo20 = std::uint64_t{1} << 20;
  const std::vector<std::uint8_t> frame(60, 0x5a);
  const struct {
    std::uint8_t tsresol;
    std::uint64_t ticks;
    Timestamp expected_ns;
  } cases[] = {
      // Microseconds (the spec default) at a real epoch: a double
      // conversion is off here by up to 256 ns.
      {6, 1'700'000'000'123'457, 1'700'000'000'123'457'000},
      {9, 1'700'000'000'123'456'789, 1'700'000'000'123'456'789},
      // 2^-20 s ticks: whole seconds exact, the rest rounded down.
      {kBinary | 20, 1'700'000'000 * kTwo20 + 777'777,
       1'700'000'000'000'000'000 +
           static_cast<Timestamp>(777'777 * 1'000'000'000ull / kTwo20)},
      // The largest exponents that fit 64-bit ticks per second.
      {kBinary | 63, (std::uint64_t{1} << 63) + (std::uint64_t{1} << 62),
       1'500'000'000},
      {19, 15'000'000'000'000'000'000ull, 1'500'000'000},
  };
  for (const bool big_endian : {false, true}) {
    for (const auto& c : cases) {
      SCOPED_TRACE(testing::Message() << "tsresol " << int{c.tsresol}
                                      << (big_endian ? " big" : " little"));
      RawPcapng file(big_endian);
      file.idb(c.tsresol);
      file.epb(c.ticks, frame);
      file.save(path_);
      PcapngReader reader(path_);
      const auto loaded = reader.next();
      ASSERT_TRUE(loaded.has_value());
      EXPECT_EQ(loaded->timestamp, c.expected_ns);
      EXPECT_EQ(loaded->bytes, frame);
    }
  }
}

TEST_F(PcapngTest, RejectsTimestampResolutionsBeyond64Bits) {
  for (const std::uint8_t tsresol : {0x80 | 64, 0x80 | 127, 20, 127}) {
    SCOPED_TRACE(int{tsresol});
    RawPcapng file(false);
    file.idb(tsresol);
    file.epb(1, std::vector<std::uint8_t>(60, 0));
    file.save(path_);
    PcapngReader reader(path_);
    EXPECT_THROW((void)reader.next(), std::runtime_error);
  }
}

TEST_F(PcapngTest, PartialTrailingBlockHeaderThrows) {
  const std::vector<PacketRecord> one = {
      make_record(0, Direction::kDownstream, 200, 1)};
  for (std::size_t extra = 1; extra < 8; ++extra) {
    SCOPED_TRACE(extra);
    write_pcapng(path_, one);
    {
      std::ofstream out(path_, std::ios::binary | std::ios::app);
      for (std::size_t i = 0; i < extra; ++i) out.put('\x06');
    }
    PcapngReader reader(path_);
    ASSERT_TRUE(reader.next().has_value());
    EXPECT_THROW((void)reader.next(), std::runtime_error);
  }
}

TEST_F(PcapngTest, BlocksLargerThanTheReadBufferAreReadAndSkipped) {
  std::vector<std::uint8_t> big(2 * ReadBuffer::kCapacity + 3);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31 >> 2);
  RawPcapng file(false);
  file.idb(9);
  file.block(0x00000004, big);  // unknown to the reader: skipped
  file.epb(42, big);
  file.epb(43, std::vector<std::uint8_t>(60, 0x11));
  file.save(path_);
  PcapngReader reader(path_);
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->timestamp, 42);
  EXPECT_EQ(first->bytes, big);
  const auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->timestamp, 43);
  EXPECT_FALSE(reader.next().has_value());
}

// The bytes write_pcapng puts on disk for a fixed generated session.
TEST_F(PcapngTest, WrittenBytesArePinned) {
  const std::vector<PacketRecord> packets = pinned_capture_packets();
  EXPECT_EQ(write_pcapng(path_, packets), packets.size());
  EXPECT_EQ(std::filesystem::file_size(path_), 8915304u);
  EXPECT_EQ(file_digest(path_), 0x27865ab63991949dULL);
}

// Blocks that straddle the first and second 64 KiB write buffer's end
// (each padding length included), one that fills a buffer exactly, and
// one larger than three buffers all read back byte for byte.
TEST_F(PcapngTest, BlocksStraddlingTheWriteBufferRoundTrip) {
  constexpr std::size_t kBuffer = WriteBuffer::kCapacity;
  constexpr std::size_t kHeaderBlocks = 28 + 32;  // SHB + IDB
  constexpr std::size_t kEpbOverhead = 32;
  for (std::size_t shift : {0u, 1u, 2u, 3u, 4u, 17u, 28u, 29u, 900u}) {
    SCOPED_TRACE(shift);
    std::vector<CapturedFrame> frames(5);
    frames[0].bytes =
        pattern_frame(kBuffer - kHeaderBlocks - kEpbOverhead - shift, 1);
    frames[1].bytes = pattern_frame(1201, 2);
    frames[2].bytes = pattern_frame(kBuffer - 1204 - 2 * kEpbOverhead, 3);
    frames[3].bytes = pattern_frame(3 * kBuffer + 5, 4);
    frames[4].bytes = pattern_frame(61, 5);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      frames[i].timestamp = static_cast<Timestamp>(i) * kNanosPerSecond + 3;
      frames[i].original_length =
          static_cast<std::uint32_t>(frames[i].bytes.size());
    }
    expect_round_trip<PcapngWriter, PcapngReader>(path_, frames,
                                                  /*snaplen=*/1u << 20);
  }
}

// A failed write is reported by write() or by close(), for frames large
// enough to fill the buffer and for a few small ones that never do.
TEST_F(PcapngTest, WriteErrorsThrow) {
  const std::filesystem::path full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << "no /dev/full";
  for (const std::size_t size : {1200u, 60u}) {
    SCOPED_TRACE(size);
    CapturedFrame frame;
    frame.bytes = pattern_frame(size, 1);
    const int count = size > 1000 ? 200 : 3;
    PcapngWriter writer(full);
    EXPECT_THROW(
        {
          for (int i = 0; i < count; ++i) writer.write(frame);
          writer.close();
        },
        std::runtime_error);
  }
}

// PcapngReader rejects blocks over 64 MiB, so the writer rejects a
// snaplen whose Enhanced Packet Block (32 bytes of overhead) could be
// longer, or whose block length would wrap in 32 bits, before it opens
// the file.
TEST_F(PcapngTest, WriterRejectsSnaplensTheReaderWouldNot) {
  constexpr std::uint32_t kLargest = (1u << 26) - 32;
  for (const std::uint32_t snaplen : {kLargest + 1, 0xfffffffdu, 0xffffffffu}) {
    SCOPED_TRACE(snaplen);
    EXPECT_THROW({ PcapngWriter writer(path_, snaplen); },
                 std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(path_));
  }
  EXPECT_NO_THROW({ PcapngWriter writer(path_, kLargest); });

  std::vector<CapturedFrame> frames(2);
  frames[0].bytes = pattern_frame(1u << 20, 1);
  frames[1].bytes = pattern_frame(61, 2);
  for (CapturedFrame& frame : frames)
    frame.original_length = static_cast<std::uint32_t>(frame.bytes.size());
  expect_round_trip<PcapngWriter, PcapngReader>(path_, frames,
                                                /*snaplen=*/1u << 20);
}

}  // namespace
}  // namespace cgctx::net

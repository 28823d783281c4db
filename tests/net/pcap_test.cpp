#include "net/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "net/byte_io.hpp"
#include "net/framing.hpp"
#include "net/read_buffer.hpp"

namespace cgctx::net {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("cgctx_pcap_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name() +
             ".pcap");
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
  pkt.rtp = RtpHeader{.payload_type = 98, .marker = seq % 5 == 0,
                      .sequence = seq, .rtp_timestamp = seq * 1500u,
                      .ssrc = 0xabcd0123};
  return pkt;
}

/// One record of a hand-written classic pcap file.
struct RawRecord {
  std::uint32_t ts_sec = 0;
  std::uint32_t ts_frac = 0;  ///< us or ns, by the file's magic
  std::vector<std::uint8_t> bytes;
  std::uint32_t original_length = 0;
};

/// Writes a classic pcap from hand-assembled bytes, every field in the
/// chosen byte order, so the reader's byte-order and resolution handling
/// is checked against the file format rather than against PcapWriter.
void write_raw_pcap(const std::filesystem::path& path, bool big_endian,
                    std::uint32_t magic, const std::vector<RawRecord>& records,
                    std::uint32_t snaplen = 65535) {
  ByteWriter w;
  const auto u32 = [&](std::uint32_t v) {
    big_endian ? w.write_u32_be(v) : w.write_u32_le(v);
  };
  const auto u16 = [&](std::uint16_t v) {
    big_endian ? w.write_u16_be(v) : w.write_u16_le(v);
  };
  u32(magic);
  u16(2);
  u16(4);
  u32(0);
  u32(0);
  u32(snaplen);
  u32(1);  // LINKTYPE_ETHERNET
  for (const RawRecord& rec : records) {
    u32(rec.ts_sec);
    u32(rec.ts_frac);
    u32(static_cast<std::uint32_t>(rec.bytes.size()));
    u32(rec.original_length);
    w.write_bytes(rec.bytes);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
}

/// Deterministic frame bytes that differ per record and per offset, so a
/// misplaced carry-over cannot read back equal.
std::vector<std::uint8_t> pattern_frame(std::size_t size, std::uint32_t salt) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i)
    bytes[i] = static_cast<std::uint8_t>((i * 131 + salt * 7919) >> 3);
  return bytes;
}

/// Writes `frames` through PcapWriter and checks PcapReader returns each
/// one byte-for-byte with its timestamp and original length.
void expect_round_trip(const std::filesystem::path& path,
                       const std::vector<CapturedFrame>& frames,
                       std::uint32_t snaplen = 65535) {
  {
    PcapWriter writer(path, snaplen);
    for (const CapturedFrame& frame : frames) writer.write(frame);
  }
  PcapReader reader(path);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto loaded = reader.next();
    ASSERT_TRUE(loaded.has_value()) << i;
    EXPECT_EQ(loaded->timestamp, frames[i].timestamp) << i;
    EXPECT_EQ(loaded->original_length, frames[i].original_length) << i;
    EXPECT_EQ(loaded->bytes, frames[i].bytes) << i;
  }
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, WriteReadRoundTripPreservesRecords) {
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 50; ++i)
    packets.push_back(make_record(
        static_cast<Timestamp>(i) * 20 * kNanosPerMilli,
        i % 3 == 0 ? Direction::kUpstream : Direction::kDownstream,
        static_cast<std::uint32_t>(100 + i * 13), static_cast<std::uint16_t>(i)));

  EXPECT_EQ(write_pcap(path_, packets), packets.size());
  const auto loaded = read_pcap(path_, Ipv4Addr::from_octets(10, 0, 0, 5));
  ASSERT_EQ(loaded.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(loaded[i].timestamp, packets[i].timestamp);
    EXPECT_EQ(loaded[i].direction, packets[i].direction);
    EXPECT_EQ(loaded[i].payload_size, packets[i].payload_size);
    EXPECT_EQ(loaded[i].tuple, packets[i].tuple);
    ASSERT_TRUE(loaded[i].rtp.has_value());
    EXPECT_EQ(loaded[i].rtp->sequence, packets[i].rtp->sequence);
    EXPECT_EQ(loaded[i].rtp->marker, packets[i].rtp->marker);
  }
}

TEST_F(PcapTest, NanosecondTimestampsSurvive) {
  std::vector<PacketRecord> packets = {
      make_record(1'234'567'891'234'567, Direction::kDownstream, 500, 1)};
  write_pcap(path_, packets);
  const auto loaded = read_pcap(path_, Ipv4Addr::from_octets(10, 0, 0, 5));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].timestamp, 1'234'567'891'234'567);
}

TEST_F(PcapTest, ReaderRejectsGarbageFile) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not a pcap file at all, not even close";
  out.close();
  EXPECT_THROW(PcapReader reader(path_), std::runtime_error);
}

TEST_F(PcapTest, ReaderRejectsMissingFile) {
  EXPECT_THROW(PcapReader reader(path_ / "nope"), std::runtime_error);
}

TEST_F(PcapTest, ReaderThrowsOnTruncatedRecord) {
  std::vector<PacketRecord> packets = {
      make_record(0, Direction::kDownstream, 500, 1)};
  write_pcap(path_, packets);
  // Chop the last 10 bytes off the record body.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 10);
  PcapReader reader(path_);
  EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST_F(PcapTest, SnaplenTruncatesButRecordsOriginalLength) {
  PcapWriter writer(path_, /*snaplen=*/60);
  CapturedFrame frame;
  frame.timestamp = 42;
  frame.bytes.assign(500, 0xaa);
  writer.write(frame);
  writer.close();

  PcapReader reader(path_);
  const auto loaded = reader.next();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->bytes.size(), 60u);
  EXPECT_EQ(loaded->original_length, 500u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, ReadPcapSkipsUndecodableFrames) {
  PcapWriter writer(path_);
  // A junk frame followed by a valid one.
  CapturedFrame junk;
  junk.timestamp = 1;
  junk.bytes.assign(40, 0x00);
  writer.write(junk);
  const auto good = make_record(2, Direction::kDownstream, 64, 9);
  CapturedFrame frame;
  frame.timestamp = good.timestamp;
  frame.bytes = encode_udp_frame(good.tuple, build_payload(good));
  writer.write(frame);
  writer.close();

  const auto loaded = read_pcap(path_, Ipv4Addr::from_octets(10, 0, 0, 5));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].rtp->sequence, 9);
}

TEST_F(PcapTest, EmptyCaptureReadsBackEmpty) {
  write_pcap(path_, {});
  EXPECT_TRUE(read_pcap(path_, Ipv4Addr{0}).empty());
}

TEST_F(PcapTest, WriterFrameCountMatches) {
  PcapWriter writer(path_);
  CapturedFrame frame;
  frame.bytes.assign(60, 1);
  for (int i = 0; i < 7; ++i) writer.write(frame);
  EXPECT_EQ(writer.frames_written(), 7u);
}

TEST_F(PcapTest, ReadsBothByteOrdersAndResolutions) {
  constexpr std::uint32_t kMicro = 0xa1b2c3d4;
  constexpr std::uint32_t kNano = 0xa1b23c4d;
  const auto good = make_record(0, Direction::kDownstream, 300, 17);
  const auto udp = encode_udp_frame(good.tuple, build_payload(good));
  const struct {
    bool big_endian;
    std::uint32_t magic;
  } variants[] = {{true, kMicro}, {false, kMicro}, {true, kNano}};
  for (const auto& v : variants) {
    SCOPED_TRACE(std::string(v.big_endian ? "big" : "little") + "-endian " +
                 (v.magic == kMicro ? "us" : "ns"));
    const std::vector<RawRecord> records = {
        {1'700'000'000, 123'456, udp, static_cast<std::uint32_t>(udp.size())},
        {1'700'000'001, 999'999, pattern_frame(77, 1), 1500}};
    write_raw_pcap(path_, v.big_endian, v.magic, records, 4096);

    PcapReader reader(path_);
    EXPECT_EQ(reader.snaplen(), 4096u);
    const Timestamp unit = v.magic == kMicro ? kNanosPerMicro : 1;
    for (const RawRecord& rec : records) {
      const auto frame = reader.next();
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(frame->timestamp,
                static_cast<Timestamp>(rec.ts_sec) * kNanosPerSecond +
                    static_cast<Timestamp>(rec.ts_frac) * unit);
      EXPECT_EQ(frame->bytes, rec.bytes);
      EXPECT_EQ(frame->original_length, rec.original_length);
    }
    EXPECT_FALSE(reader.next().has_value());

    const auto loaded = read_pcap(path_, Ipv4Addr::from_octets(10, 0, 0, 5));
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].tuple, good.tuple);
    EXPECT_EQ(loaded[0].payload_size, good.payload_size);
    ASSERT_TRUE(loaded[0].rtp.has_value());
    EXPECT_EQ(loaded[0].rtp->sequence, 17);
  }
}

TEST_F(PcapTest, RecordsStraddlingTheReadBufferRoundTrip) {
  // The first refill reads exactly one buffer. Place the second record's
  // header `shift` bytes before that boundary, so every split point of
  // the header, the boundary itself, and splits inside the body occur.
  constexpr std::size_t kFirstRecordOffset = 24 + 16;
  for (std::size_t shift : {0u, 1u, 4u, 8u, 12u, 15u, 16u, 17u, 600u}) {
    SCOPED_TRACE(shift);
    std::vector<CapturedFrame> frames(3);
    frames[0].bytes =
        pattern_frame(ReadBuffer::kCapacity - kFirstRecordOffset - shift, 1);
    frames[1].bytes = pattern_frame(1400, 2);
    frames[2].bytes = pattern_frame(60, 3);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      frames[i].timestamp = static_cast<Timestamp>(i + 1) * kNanosPerSecond + 7;
      frames[i].original_length = static_cast<std::uint32_t>(frames[i].bytes.size());
    }
    expect_round_trip(path_, frames);
  }

  // Many mixed-size records: several refills, each with a carry-over.
  std::vector<CapturedFrame> frames;
  for (std::uint32_t i = 0; i < 600; ++i) {
    CapturedFrame frame;
    frame.timestamp = static_cast<Timestamp>(i) * 1'000'003;
    frame.bytes = pattern_frame(1 + (i * 2654435761u) % 1514, i);
    frame.original_length = static_cast<std::uint32_t>(frame.bytes.size()) + i % 3;
    frames.push_back(std::move(frame));
  }
  expect_round_trip(path_, frames);
}

TEST_F(PcapTest, RecordLargerThanTheReadBufferRoundTrips) {
  std::vector<CapturedFrame> frames(3);
  frames[0].bytes = pattern_frame(100, 1);
  frames[1].bytes = pattern_frame(3 * ReadBuffer::kCapacity + 5, 2);
  frames[2].bytes = pattern_frame(100, 3);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].timestamp = static_cast<Timestamp>(i);
    frames[i].original_length = static_cast<std::uint32_t>(frames[i].bytes.size());
  }
  expect_round_trip(path_, frames, /*snaplen=*/1u << 20);
}

TEST_F(PcapTest, ReaderRejectsRecordsOverOneMebibyte) {
  // The bound holds even when the file's snaplen would allow the record.
  for (const std::uint32_t snaplen : {65535u, 0xffffffffu}) {
    SCOPED_TRACE(snaplen);
    const std::vector<RawRecord> records = {
        {0, 0, pattern_frame((1u << 20) + 1, 1), 0}};
    write_raw_pcap(path_, false, 0xa1b23c4d, records, snaplen);
    PcapReader reader(path_);
    EXPECT_THROW(reader.next(), std::runtime_error);
  }
}

TEST_F(PcapTest, PartialTrailingRecordHeaderThrows) {
  const std::vector<PacketRecord> one = {
      make_record(0, Direction::kDownstream, 200, 1)};
  for (std::size_t extra = 1; extra < 16; ++extra) {
    SCOPED_TRACE(extra);
    write_pcap(path_, one);
    {
      std::ofstream out(path_, std::ios::binary | std::ios::app);
      for (std::size_t i = 0; i < extra; ++i) out.put('\x01');
    }
    PcapReader reader(path_);
    ASSERT_TRUE(reader.next().has_value());
    EXPECT_THROW(reader.next(), std::runtime_error);
  }
}

}  // namespace
}  // namespace cgctx::net

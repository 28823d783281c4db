#include "net/byte_io.hpp"

#include <gtest/gtest.h>

namespace cgctx::net {
namespace {

TEST(ByteWriter, WritesBigEndianIntegers) {
  ByteWriter w;
  w.write_u8(0xab);
  w.write_u16_be(0x1234);
  w.write_u32_be(0xdeadbeef);
  const auto& data = w.data();
  ASSERT_EQ(data.size(), 7u);
  EXPECT_EQ(data[0], 0xab);
  EXPECT_EQ(data[1], 0x12);
  EXPECT_EQ(data[2], 0x34);
  EXPECT_EQ(data[3], 0xde);
  EXPECT_EQ(data[4], 0xad);
  EXPECT_EQ(data[5], 0xbe);
  EXPECT_EQ(data[6], 0xef);
}

TEST(ByteWriter, WritesLittleEndianIntegers) {
  ByteWriter w;
  w.write_u16_le(0x1234);
  w.write_u32_le(0xdeadbeef);
  const auto& data = w.data();
  ASSERT_EQ(data.size(), 6u);
  EXPECT_EQ(data[0], 0x34);
  EXPECT_EQ(data[1], 0x12);
  EXPECT_EQ(data[2], 0xef);
  EXPECT_EQ(data[3], 0xbe);
  EXPECT_EQ(data[4], 0xad);
  EXPECT_EQ(data[5], 0xde);
}

TEST(ByteWriter, FillAppendsRepeatedByte) {
  ByteWriter w;
  w.write_fill(5, 0x7f);
  EXPECT_EQ(w.size(), 5u);
  for (std::uint8_t b : w.data()) EXPECT_EQ(b, 0x7f);
}

TEST(ByteReaderWriter, RoundTripsAllWidths) {
  ByteWriter w;
  w.write_u8(0x01);
  w.write_u16_be(0xbeef);
  w.write_u32_be(0x01020304);
  w.write_u16_le(0xcafe);
  w.write_u32_le(0xa1b2c3d4);
  ByteReader r(w.data());
  EXPECT_EQ(r.read_u8(), 0x01);
  EXPECT_EQ(r.read_u16_be(), 0xbeef);
  EXPECT_EQ(r.read_u32_be(), 0x01020304u);
  EXPECT_EQ(r.read_u16_le(), 0xcafe);
  EXPECT_EQ(r.read_u32_le(), 0xa1b2c3d4u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, FailsOnUnderflowAndStaysFailed) {
  const std::uint8_t bytes[] = {0x01, 0x02};
  ByteReader r(bytes);
  EXPECT_EQ(r.read_u32_be(), 0u);
  EXPECT_FALSE(r.ok());
  // After failure all reads return 0 and remaining is 0.
  EXPECT_EQ(r.read_u8(), 0u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, SkipAdvancesAndBoundsChecks) {
  const std::uint8_t bytes[] = {1, 2, 3, 4};
  ByteReader r(bytes);
  r.skip(3);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.read_u8(), 4);
  r.skip(1);
  EXPECT_FALSE(r.ok());
}

TEST(InternetChecksum, MatchesRfc1071Example) {
  // Canonical example: checksum of this sequence is 0xddf2 (RFC 1071 data
  // 00 01 f2 03 f4 f5 f6 f7 has sum 0x2210+0xddf2 complement relation).
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint16_t sum = internet_checksum(data);
  // Verifying property: appending the checksum makes the total sum 0.
  std::vector<std::uint8_t> with_sum(std::begin(data), std::end(data));
  with_sum.push_back(static_cast<std::uint8_t>(sum >> 8));
  with_sum.push_back(static_cast<std::uint8_t>(sum & 0xff));
  EXPECT_EQ(internet_checksum(with_sum), 0);
}

TEST(InternetChecksum, HandlesOddLength) {
  const std::uint8_t data[] = {0x12, 0x34, 0x56};
  const std::uint16_t sum = internet_checksum(data);
  std::vector<std::uint8_t> padded = {0x12, 0x34, 0x56, 0x00};
  // Odd-length input is implicitly zero-padded, so both agree.
  EXPECT_EQ(sum, internet_checksum(std::span<const std::uint8_t>(padded.data(), 4)));
}

}  // namespace
}  // namespace cgctx::net

// Property tests for the little-endian binary primitives under the cache
// snapshot format: values round-trip bit for bit, and every truncated or
// overrunning stream is rejected with a clean WireError, never UB.
#include "common/binary_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace essns {
namespace {

TEST(BinaryIo, PrimitivesRoundTripLittleEndian) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u8(0xAB);
  out.u16(0x1234);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i32(-42);
  out.i64(-1234567890123456789ll);
  out.f64(-0.1);
  out.str("wire");

  // Spot-check the layout is little-endian on the wire.
  EXPECT_EQ(bytes[1], 0x34);
  EXPECT_EQ(bytes[2], 0x12);

  BinaryReader in(bytes);
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u16(), 0x1234);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i32(), -42);
  EXPECT_EQ(in.i64(), -1234567890123456789ll);
  EXPECT_EQ(in.f64(), -0.1);
  EXPECT_EQ(in.str(), "wire");
  EXPECT_TRUE(in.done());
}

TEST(BinaryIo, DoublesRoundTripByBitPattern) {
  const double specials[] = {0.0, -0.0, 1.0 / 3.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  for (const double value : specials) {
    std::vector<std::uint8_t> bytes;
    BinaryWriter out(bytes);
    out.f64(value);
    BinaryReader in(bytes);
    const double back = in.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value));
  }
}

TEST(BinaryIo, EveryTruncationThrowsWireError) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u32(7);
  out.str("hello");
  out.f64(2.5);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinaryReader in(bytes.data(), cut);
    EXPECT_THROW(
        {
          (void)in.u32();
          (void)in.str();
          (void)in.f64();
        },
        WireError)
        << "prefix of " << cut << " bytes decoded without error";
  }
}

TEST(BinaryIo, StringLengthPrefixValidatedBeforeAllocation) {
  // A length prefix claiming 2^63 bytes must fail the bounds check, not
  // attempt the allocation.
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  out.u64(std::uint64_t{1} << 63);
  BinaryReader in(bytes);
  EXPECT_THROW((void)in.str(), WireError);
}

TEST(BinaryIo, Crc32MatchesKnownVector) {
  const char* text = "123456789";
  EXPECT_EQ(Crc32::of(reinterpret_cast<const std::uint8_t*>(text), 9),
            0xCBF43926u);
  EXPECT_EQ(Crc32::of(nullptr, 0), 0u);
}

}  // namespace
}  // namespace essns

#include "hw/bitpack.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/prng.hpp"

namespace wfasic::hw {
namespace {

std::vector<std::uint8_t> pack(const std::vector<std::uint8_t>& codes) {
  std::vector<std::uint8_t> bytes(packed_5bit_bytes(codes.size()));
  pack_5bit_stream(codes, bytes);
  return bytes;
}

TEST(Bitpack, PackedSizes) {
  EXPECT_EQ(packed_5bit_bytes(0), 0u);
  EXPECT_EQ(packed_5bit_bytes(1), 1u);
  EXPECT_EQ(packed_5bit_bytes(8), 5u);
  EXPECT_EQ(packed_5bit_bytes(16), 10u);
  EXPECT_EQ(packed_5bit_bytes(32), 20u);
  EXPECT_EQ(packed_5bit_bytes(64), 40u);  // the paper's 320-bit block
}

TEST(Bitpack, RoundTripSmall) {
  const std::vector<std::uint8_t> codes = {0, 31, 1, 30, 15, 16, 7};
  const std::vector<std::uint8_t> packed = pack(codes);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(extract_5bit(packed, i), codes[i]) << "index " << i;
  }
}

TEST(Bitpack, RoundTripRandomAllSizes) {
  Prng prng(5);
  for (std::size_t count : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 65u}) {
    std::vector<std::uint8_t> codes(count);
    for (auto& c : codes) c = static_cast<std::uint8_t>(prng.next_below(32));
    const auto packed = pack(codes);
    EXPECT_EQ(packed.size(), packed_5bit_bytes(count));
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(extract_5bit(packed, i), codes[i])
          << "count=" << count << " i=" << i;
    }
  }
}

TEST(Bitpack, FieldStraddlingByteBoundary) {
  // Field 1 spans bits [5,10): bytes 0 and 1.
  const std::vector<std::uint8_t> codes = {0, 0x1f, 0};
  const auto packed = pack(codes);
  EXPECT_EQ(extract_5bit(packed, 1), 0x1f);
  EXPECT_EQ(extract_5bit(packed, 0), 0u);
  EXPECT_EQ(extract_5bit(packed, 2), 0u);
}

TEST(Bitpack, PacksIntoLargerBufferZeroPadded) {
  // A partial P-block packs into its full block: the bytes past the last
  // field are zeroed, whatever the buffer held before.
  const std::vector<std::uint8_t> codes = {0x1f, 0x1f, 0x1f};
  std::vector<std::uint8_t> bytes(packed_5bit_bytes(8), 0xff);
  pack_5bit_stream(codes, bytes);
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0xff, 0x7f, 0, 0, 0}));
}

TEST(Bitpack, CodeTooLargeAborts) {
  const std::vector<std::uint8_t> codes = {32};
  EXPECT_DEATH((void)pack(codes), "code");
}

TEST(Bitpack, OutputTooSmallAborts) {
  const std::vector<std::uint8_t> codes(8, 1);
  std::vector<std::uint8_t> bytes(packed_5bit_bytes(8) - 1);
  EXPECT_DEATH(pack_5bit_stream(codes, bytes), "too small");
}

}  // namespace
}  // namespace wfasic::hw

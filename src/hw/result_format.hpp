// Output data formats of the Collector modules (§4.4). Shared between the
// hardware model (packing) and the driver (decoding).
#pragma once

#include <array>
#include <cstdint>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "hw/bitpack.hpp"
#include "mem/axi.hpp"

namespace wfasic::hw {

// ---------------------------------------------------------------------------
// Collector NBT: one 4-byte result per alignment, four merged per beat.
//   bit 31       Success flag
//   bits 30..16  alignment score (15 bits, saturated)
//   bits 15..0   alignment ID (low 16 bits)
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kNbtScoreMax = (1u << 15) - 1;

struct NbtResult {
  bool success = false;
  std::uint32_t score = 0;
  std::uint32_t id = 0;

  friend bool operator==(const NbtResult&, const NbtResult&) = default;
};

[[nodiscard]] inline std::uint32_t pack_nbt_result(const NbtResult& r) {
  const std::uint32_t score = r.score > kNbtScoreMax ? kNbtScoreMax : r.score;
  return (static_cast<std::uint32_t>(r.success) << 31) | (score << 16) |
         (r.id & 0xffffu);
}

[[nodiscard]] inline NbtResult unpack_nbt_result(std::uint32_t word) {
  NbtResult r;
  r.success = (word >> 31) != 0;
  r.score = (word >> 16) & 0x7fffu;
  r.id = word & 0xffffu;
  return r;
}

// ---------------------------------------------------------------------------
// Collector BT: backtrace data flows as 16-byte transactions of 10 data
// bytes + 6 info bytes (§4.4):
//   bytes 0..9    backtrace payload (origin bits, packed 5 bits per cell)
//   bytes 10..12  transaction counter within this alignment (24 bits, LE)
//   bytes 13..15  info word (24 bits, LE): bit 23 = Last, bits 22..0 = ID
// The final transaction of an alignment (Last=1) carries the score record
// in its payload:
//   data[0]    Success flag
//   data[1..2] k reached (int16, LE)
//   data[3..4] alignment score (uint16, LE)
// ---------------------------------------------------------------------------

inline constexpr std::size_t kBtPayloadBytes = 10;
inline constexpr std::uint32_t kBtIdMask = (1u << 23) - 1;

/// Transactions per backtrace block for P parallel sections: the block's
/// P 5-bit origin codes, packed, in 10-byte payloads (4 for P = 64).
[[nodiscard]] constexpr std::size_t bt_txns_per_block(
    unsigned parallel_sections) {
  return (packed_5bit_bytes(parallel_sections) + kBtPayloadBytes - 1) /
         kBtPayloadBytes;
}

struct BtTransaction {
  std::array<std::uint8_t, kBtPayloadBytes> data{};
  std::uint32_t counter = 0;  ///< 24-bit transaction index
  bool last = false;
  std::uint32_t id = 0;  ///< 23-bit alignment ID

  friend bool operator==(const BtTransaction&, const BtTransaction&) = default;
};

[[nodiscard]] inline mem::Beat pack_bt_transaction(const BtTransaction& t) {
  WFASIC_REQUIRE(t.counter < (1u << 24), "BT counter overflows 24 bits");
  mem::Beat beat;
  for (std::size_t idx = 0; idx < kBtPayloadBytes; ++idx)
    beat.data[idx] = t.data[idx];
  beat.data[10] = static_cast<std::uint8_t>(t.counter);
  beat.data[11] = static_cast<std::uint8_t>(t.counter >> 8);
  beat.data[12] = static_cast<std::uint8_t>(t.counter >> 16);
  const std::uint32_t info =
      (static_cast<std::uint32_t>(t.last) << 23) | (t.id & kBtIdMask);
  beat.data[13] = static_cast<std::uint8_t>(info);
  beat.data[14] = static_cast<std::uint8_t>(info >> 8);
  beat.data[15] = static_cast<std::uint8_t>(info >> 16);
  return beat;
}

[[nodiscard]] inline BtTransaction unpack_bt_transaction(const mem::Beat& b) {
  BtTransaction t;
  for (std::size_t idx = 0; idx < kBtPayloadBytes; ++idx)
    t.data[idx] = b.data[idx];
  t.counter = static_cast<std::uint32_t>(b.data[10]) |
              (static_cast<std::uint32_t>(b.data[11]) << 8) |
              (static_cast<std::uint32_t>(b.data[12]) << 16);
  const std::uint32_t info = static_cast<std::uint32_t>(b.data[13]) |
                             (static_cast<std::uint32_t>(b.data[14]) << 8) |
                             (static_cast<std::uint32_t>(b.data[15]) << 16);
  t.last = (info >> 23) != 0;
  t.id = info & kBtIdMask;
  return t;
}

// ---------------------------------------------------------------------------
// CRC footers (AcceleratorConfig::crc, docs/RELIABILITY.md).
//
// NBT: each result becomes an 8-byte record — the packed result word
// followed by its salted CRC-32 — so two records merge per beat instead
// of four.
//
// BT: after an alignment's Last transaction the Collector emits one extra
// footer transaction with the sentinel counter 0xffffff (never reached by
// real payload counters: that would be a 160 MB backtrace) whose data[0..3]
// carry the salted CRC-32 over all packed beats of the alignment,
// including the Last one.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kBtCrcFooterCounter = (1u << 24) - 1;

/// Bytes of one NBT result record.
[[nodiscard]] constexpr std::size_t nbt_record_bytes(bool crc) {
  return crc ? 8 : 4;
}

/// NBT result records per 16-byte beat.
[[nodiscard]] constexpr std::size_t nbt_records_per_beat(bool crc) {
  return mem::kBeatBytes / nbt_record_bytes(crc);
}

[[nodiscard]] inline bool is_bt_crc_footer(const BtTransaction& t) {
  return !t.last && t.counter == kBtCrcFooterCounter;
}

[[nodiscard]] inline BtTransaction make_bt_crc_footer(std::uint32_t id,
                                                      std::uint32_t crc) {
  BtTransaction t;
  t.counter = kBtCrcFooterCounter;
  t.last = false;
  t.id = id;
  t.data[0] = static_cast<std::uint8_t>(crc);
  t.data[1] = static_cast<std::uint8_t>(crc >> 8);
  t.data[2] = static_cast<std::uint8_t>(crc >> 16);
  t.data[3] = static_cast<std::uint8_t>(crc >> 24);
  return t;
}

[[nodiscard]] inline std::uint32_t bt_crc_footer_value(const BtTransaction& t) {
  return static_cast<std::uint32_t>(t.data[0]) |
         (static_cast<std::uint32_t>(t.data[1]) << 8) |
         (static_cast<std::uint32_t>(t.data[2]) << 16) |
         (static_cast<std::uint32_t>(t.data[3]) << 24);
}

/// Score record carried by the Last transaction's payload.
struct BtScoreRecord {
  bool success = false;
  std::int16_t k_reached = 0;
  std::uint16_t score = 0;

  friend bool operator==(const BtScoreRecord&, const BtScoreRecord&) = default;
};

[[nodiscard]] inline std::array<std::uint8_t, kBtPayloadBytes>
pack_bt_score_record(const BtScoreRecord& r) {
  std::array<std::uint8_t, kBtPayloadBytes> data{};
  data[0] = r.success ? 1 : 0;
  const auto k = static_cast<std::uint16_t>(r.k_reached);
  data[1] = static_cast<std::uint8_t>(k);
  data[2] = static_cast<std::uint8_t>(k >> 8);
  data[3] = static_cast<std::uint8_t>(r.score);
  data[4] = static_cast<std::uint8_t>(r.score >> 8);
  return data;
}

[[nodiscard]] inline BtScoreRecord unpack_bt_score_record(
    const std::array<std::uint8_t, kBtPayloadBytes>& data) {
  BtScoreRecord r;
  r.success = data[0] != 0;
  r.k_reached = static_cast<std::int16_t>(
      static_cast<std::uint16_t>(data[1]) |
      (static_cast<std::uint16_t>(data[2]) << 8));
  r.score = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(data[3]) |
      (static_cast<std::uint16_t>(data[4]) << 8));
  return r;
}

}  // namespace wfasic::hw

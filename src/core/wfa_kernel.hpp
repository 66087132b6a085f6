// The single-cell WFA compute kernel (Eq. 3) shared by the software aligner
// (core/wfa.hpp) and the hardware Compute sub-module model
// (hw/compute_unit.hpp).
//
// Sharing one kernel guarantees that the accelerator model and the software
// reference pick identical values AND identical provenance (origins), so the
// hardware backtrace stream decodes to exactly the software CIGAR.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace wfasic::core {

/// Provenance of an M wavefront cell. 3 bits in hardware (§4.3.3): M can
/// come from 5 positions because taking I/D also records whether that gap
/// was opening or extending.
enum class MOrigin : std::uint8_t {
  kSub = 0,      ///< M_{s-x}[k] + 1   (mismatch)
  kInsOpen = 1,  ///< I_s[k] where I opened from M_{s-o-e}[k-1]
  kInsExt = 2,   ///< I_s[k] where I extended I_{s-e}[k-1]
  kDelOpen = 3,  ///< D_s[k] where D opened from M_{s-o-e}[k+1]
  kDelExt = 4,   ///< D_s[k] where D extended D_{s-e}[k+1]
};

/// The five source offsets a frame-column cell depends on (Figure 2).
/// Absent sources are kOffsetNull.
struct WfCellSources {
  offset_t m_sub = kOffsetNull;       ///< M_{s-x}[k]
  offset_t m_open_ins = kOffsetNull;  ///< M_{s-o-e}[k-1]
  offset_t i_ext = kOffsetNull;       ///< I_{s-e}[k-1]
  offset_t m_open_del = kOffsetNull;  ///< M_{s-o-e}[k+1]
  offset_t d_ext = kOffsetNull;       ///< D_{s-e}[k+1]
};

/// One computed frame-column cell: the three offsets plus the 5 origin bits
/// the hardware streams out for the CPU backtrace (1 bit I, 1 bit D,
/// 3 bits M — §4.3.3).
struct WfCell {
  offset_t m = kOffsetNull;
  offset_t i = kOffsetNull;
  offset_t d = kOffsetNull;
  MOrigin m_origin = MOrigin::kSub;  ///< valid iff m != kOffsetNull
  bool i_from_ext = false;           ///< valid iff i != kOffsetNull
  bool d_from_ext = false;           ///< valid iff d != kOffsetNull
};

/// True when an offset denotes a real DP cell for diagonal k of an
/// (n x text_len) problem: 0 <= j <= text_len and 0 <= i <= n with
/// j = offset, i = offset - k (Eq. 4).
[[nodiscard]] constexpr bool offset_in_matrix(offset_t offset, diag_t k,
                                              offset_t pattern_len,
                                              offset_t text_len) {
  if (offset == kOffsetNull) return false;
  const offset_t i = offset - k;
  return offset >= 0 && offset <= text_len && i >= 0 && i <= pattern_len;
}

/// Computes one cell of the new wavefront (Eq. 3) with boundary trimming:
/// offsets that fall outside the DP matrix are nulled so they can never win
/// a later max. Tie-breaks are fixed (open before extend; sub before ins
/// before del) and shared with the hardware model.
[[nodiscard]] constexpr WfCell compute_wf_cell(const WfCellSources& src,
                                               diag_t k, offset_t pattern_len,
                                               offset_t text_len) {
  WfCell out;
  // Every candidate is trimmed against the matrix bounds *before* the max,
  // so an out-of-matrix path can never shadow a valid lower one.
  const auto trimmed = [=](offset_t offset) {
    return offset_in_matrix(offset, k, pattern_len, text_len) ? offset
                                                              : kOffsetNull;
  };

  // I_s[k] = max(M_{s-o-e}[k-1], I_{s-e}[k-1]) + 1. kOffsetNull is far from
  // the valid range, so adding 1 keeps it losing every comparison.
  const offset_t i_open = trimmed(src.m_open_ins + 1);
  const offset_t i_extend = trimmed(src.i_ext + 1);
  if (i_open >= i_extend) {  // open preferred on ties
    out.i = i_open;
    out.i_from_ext = false;
  } else {
    out.i = i_extend;
    out.i_from_ext = true;
  }

  // D_s[k] = max(M_{s-o-e}[k+1], D_{s-e}[k+1]) — offset unchanged, one more
  // pattern base consumed via the diagonal shift.
  const offset_t d_open = trimmed(src.m_open_del);
  const offset_t d_extend = trimmed(src.d_ext);
  if (d_open >= d_extend) {
    out.d = d_open;
    out.d_from_ext = false;
  } else {
    out.d = d_extend;
    out.d_from_ext = true;
  }

  // M_s[k] = max(M_{s-x}[k] + 1, I_s[k], D_s[k]); sub preferred, then
  // insertion, then deletion on ties.
  const offset_t m_sub = trimmed(src.m_sub + 1);
  out.m = m_sub;
  out.m_origin = MOrigin::kSub;
  if (out.i != kOffsetNull && out.i > out.m) {
    out.m = out.i;
    out.m_origin = out.i_from_ext ? MOrigin::kInsExt : MOrigin::kInsOpen;
  }
  if (out.d != kOffsetNull && out.d > out.m) {
    out.m = out.d;
    out.m_origin = out.d_from_ext ? MOrigin::kDelExt : MOrigin::kDelOpen;
  }
  return out;
}

/// Packs the three origin fields into the 5-bit code the Compute sub-module
/// emits per cell (bit layout: [4:2] M origin, [1] I ext, [0] D ext).
[[nodiscard]] constexpr std::uint8_t pack_origin_bits(const WfCell& cell) {
  return static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(cell.m_origin) << 2) |
      (static_cast<std::uint8_t>(cell.i_from_ext) << 1) |
      static_cast<std::uint8_t>(cell.d_from_ext));
}

/// Inverse of pack_origin_bits (used by the CPU backtrace decode).
struct OriginBits {
  MOrigin m_origin;
  bool i_from_ext;
  bool d_from_ext;
};
[[nodiscard]] constexpr OriginBits unpack_origin_bits(std::uint8_t bits) {
  return OriginBits{static_cast<MOrigin>((bits >> 2) & 7),
                    ((bits >> 1) & 1) != 0, (bits & 1) != 0};
}

}  // namespace wfasic::core

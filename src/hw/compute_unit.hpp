// The Compute sub-module (§4.3.3): builds the wavefront of score s from
// the wavefronts of scores s-x, s-o-e and s-e (Eq. 3), and, when the
// backtrace is on, the 5-bit origin code of every cell.
//
// The per-cell reference is core::compute_wf_cell + pack_origin_bits, the
// kernel the software WFA shares. compute_wavefront splits the row into an
// interior, where every source read is in range and the cells are a
// branchless elementwise loop the compiler vectorizes, and edge diagonals,
// which run the reference kernel itself. Both give the reference's
// offsets and codes cell for cell (tests/test_compute_unit.cpp).
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "core/wavefront.hpp"

namespace wfasic::hw {

/// Read-only view of one source wavefront. An absent source is an empty
/// view (lo > hi), so every read of it is kOffsetNull.
struct WfSource {
  const offset_t* m = nullptr;
  const offset_t* i = nullptr;
  const offset_t* d = nullptr;
  diag_t lo = 0;
  diag_t hi = -1;

  /// The view of `wf`; nullptr gives the absent (empty) view.
  [[nodiscard]] static WfSource of(const core::Wavefront* wf);
};

/// The three sources of score s's wavefront.
struct WfSources {
  WfSource x;   ///< score s - x: M feeds the substitution
  WfSource oe;  ///< score s - o - e: M feeds the gap opens
  WfSource e;   ///< score s - e: I and D feed the gap extensions
};

/// Computes every cell of `out` (diagonals out.lo()..out.hi()) of an
/// alignment of a `pattern_len`-base pattern against a `text_len`-base
/// text. With `codes` non-null, the origin code of diagonal k is written
/// to codes[k - out.lo()] (out.width() entries); null skips the origin
/// work entirely.
void compute_wavefront(const WfSources& src, offset_t pattern_len,
                       offset_t text_len, core::Wavefront& out,
                       std::uint8_t* codes);

}  // namespace wfasic::hw

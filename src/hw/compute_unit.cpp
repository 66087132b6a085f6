#include "hw/compute_unit.hpp"

#include <algorithm>

#include "core/wfa_kernel.hpp"

namespace wfasic::hw {

namespace {

inline offset_t read(const offset_t* row, const WfSource& v, diag_t k) {
  return k >= v.lo && k <= v.hi ? row[k - v.lo] : kOffsetNull;
}

template <bool kOrigins>
void compute_rows(const WfSources& src, offset_t n, offset_t m_len,
                  core::Wavefront& out, std::uint8_t* codes) {
  const WfSource& vx = src.x;
  const WfSource& voe = src.oe;
  const WfSource& ve = src.e;
  const diag_t lo = out.lo();
  const diag_t hi = out.hi();
  offset_t* const om = out.row_m();
  offset_t* const oi = out.row_i();
  offset_t* const od = out.row_d();

  // Edge diagonals (and every diagonal when a source is absent) run the
  // reference kernel through the range-checked reads.
  const auto edge_cell = [&](diag_t k) {
    core::WfCellSources cell_src;
    cell_src.m_sub = read(vx.m, vx, k);
    cell_src.m_open_ins = read(voe.m, voe, k - 1);
    cell_src.m_open_del = read(voe.m, voe, k + 1);
    cell_src.i_ext = read(ve.i, ve, k - 1);
    cell_src.d_ext = read(ve.d, ve, k + 1);
    const core::WfCell cell = core::compute_wf_cell(cell_src, k, n, m_len);
    const auto idx = static_cast<std::size_t>(k - lo);
    om[idx] = cell.m;
    oi[idx] = cell.i;
    od[idx] = cell.d;
    if constexpr (kOrigins) codes[idx] = core::pack_origin_bits(cell);
  };

  // Interior: inside [ilo, ihi] every source read (x at k, oe and e at
  // k-1 and k+1) is in range, so the checked reads collapse to direct
  // loads and the matrix trim to a select.
  const diag_t ilo = std::max(std::max(lo, vx.lo), std::max(voe.lo, ve.lo) + 1);
  const diag_t ihi =
      std::min(std::min(hi, vx.hi), std::min(voe.hi, ve.hi) - 1);
  if (ilo > ihi) {
    for (diag_t k = lo; k <= hi; ++k) edge_cell(k);
    return;
  }
  for (diag_t k = lo; k < ilo; ++k) edge_cell(k);
  const offset_t* const xm = vx.m + (ilo - vx.lo);
  const offset_t* const oem = voe.m + (ilo - voe.lo);
  const offset_t* const vei = ve.i + (ilo - ve.lo);
  const offset_t* const ved = ve.d + (ilo - ve.lo);
  offset_t* const bm = om + (ilo - lo);
  offset_t* const bi = oi + (ilo - lo);
  offset_t* const bd = od + (ilo - lo);
  std::uint8_t* const bc = kOrigins ? codes + (ilo - lo) : nullptr;
  const diag_t count = ihi - ilo + 1;
  for (diag_t j = 0; j < count; ++j) {
    const diag_t k = ilo + j;
    const auto trim = [k, n, m_len](offset_t off) {
      const offset_t i = off - k;
      const bool ok = off >= 0 && off <= m_len && i >= 0 && i <= n;
      return ok ? off : kOffsetNull;
    };
    const offset_t i_open = trim(oem[j - 1] + 1);
    const offset_t i_ext = trim(vei[j - 1] + 1);
    const offset_t d_open = trim(oem[j + 1]);
    const offset_t d_ext = trim(ved[j + 1]);
    const offset_t m_sub = trim(xm[j] + 1);
    const offset_t iv = std::max(i_open, i_ext);
    const offset_t dv = std::max(d_open, d_ext);
    const offset_t mi = std::max(m_sub, iv);
    bm[j] = std::max(mi, dv);
    bi[j] = iv;
    bd[j] = dv;
    if constexpr (kOrigins) {
      // compute_wf_cell's tie-breaks: a gap extension wins only when
      // strictly larger than the open; I replaces the substitution only
      // when strictly larger, and D replaces both only when strictly
      // larger. A null candidate never wins: trimmed offsets are either
      // kOffsetNull or >= 0.
      const unsigned i_from_ext = i_ext > i_open ? 1u : 0u;
      const unsigned d_from_ext = d_ext > d_open ? 1u : 0u;
      const unsigned m_origin =
          dv > mi ? 3u + d_from_ext : (iv > m_sub ? 1u + i_from_ext : 0u);
      bc[j] = static_cast<std::uint8_t>((m_origin << 2) | (i_from_ext << 1) |
                                        d_from_ext);
    }
  }
  for (diag_t k = ihi + 1; k <= hi; ++k) edge_cell(k);
}

}  // namespace

WfSource WfSource::of(const core::Wavefront* wf) {
  WfSource v;
  if (wf != nullptr) {
    v.m = wf->row_m();
    v.i = wf->row_i();
    v.d = wf->row_d();
    v.lo = wf->lo();
    v.hi = wf->hi();
  }
  return v;
}

void compute_wavefront(const WfSources& src, offset_t pattern_len,
                       offset_t text_len, core::Wavefront& out,
                       std::uint8_t* codes) {
  if (codes != nullptr) {
    compute_rows<true>(src, pattern_len, text_len, out, codes);
  } else {
    compute_rows<false>(src, pattern_len, text_len, out, nullptr);
  }
}

}  // namespace wfasic::hw

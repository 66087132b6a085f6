// The Compute sub-module's wavefront pass (hw/compute_unit.hpp) against
// the shared per-cell reference, core::compute_wf_cell + pack_origin_bits:
// every M/I/D offset and every 5-bit origin code must match cell by cell,
// on the interior fast path and on the edge cells alike.
#include "hw/compute_unit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/prng.hpp"
#include "core/wfa_kernel.hpp"
#include "hw/bitpack.hpp"
#include "hw/result_format.hpp"

namespace wfasic::hw {
namespace {

/// A random source wavefront over [lo, hi]. Offsets come from a narrow
/// window so that opens, extensions and substitutions tie often; some are
/// null and some fall outside the DP matrix (trimmed by the kernel).
std::unique_ptr<core::Wavefront> random_source(Prng& prng, diag_t lo,
                                               diag_t hi, offset_t base,
                                               offset_t text_len) {
  auto wf = std::make_unique<core::Wavefront>(lo, hi);
  offset_t* const rows[3] = {wf->row_m(), wf->row_i(), wf->row_d()};
  for (offset_t* row : rows) {
    for (std::size_t j = 0; j < wf->width(); ++j) {
      switch (prng.next_below(8)) {
        case 0:
          row[j] = kOffsetNull;
          break;
        case 1:  // anywhere, including outside the matrix
          row[j] = static_cast<offset_t>(prng.next_below(
                       static_cast<std::uint64_t>(text_len) + 6)) -
                   3;
          break;
        default:  // a narrow window: frequent ties
          row[j] = base + static_cast<offset_t>(prng.next_below(3));
          break;
      }
    }
  }
  return wf;
}

/// One fuzz trial: random output range, three sources that are absent or
/// cover a staggered range around it.
void fuzz_trial(Prng& prng, int trial) {
  const auto n = static_cast<offset_t>(20 + prng.next_below(60));
  const auto m_len = static_cast<offset_t>(20 + prng.next_below(60));
  const auto lo = static_cast<diag_t>(prng.next_below(41)) - 20;
  const diag_t hi = lo + static_cast<diag_t>(prng.next_below(150));
  const offset_t base = static_cast<offset_t>(prng.next_below(
      static_cast<std::uint64_t>(std::min(n, m_len))));

  std::unique_ptr<core::Wavefront> sources[3];
  for (auto& src : sources) {
    if (prng.next_below(5) == 0) continue;  // absent
    const diag_t slo = lo + static_cast<diag_t>(prng.next_below(9)) - 4;
    const diag_t shi =
        std::max(slo, hi + static_cast<diag_t>(prng.next_below(9)) - 4);
    src = random_source(prng, slo, shi, base, m_len);
  }
  const WfSources views{WfSource::of(sources[0].get()),
                        WfSource::of(sources[1].get()),
                        WfSource::of(sources[2].get())};

  core::Wavefront out(lo, hi);
  std::vector<std::uint8_t> codes(out.width(), 0xff);
  compute_wavefront(views, n, m_len, out, codes.data());
  core::Wavefront out_no_codes(lo, hi);
  compute_wavefront(views, n, m_len, out_no_codes, nullptr);

  const auto at = [&](int which, diag_t k, char row) {
    const core::Wavefront* wf = sources[which].get();
    if (wf == nullptr) return kOffsetNull;
    return row == 'm' ? wf->m(k) : row == 'i' ? wf->i(k) : wf->d(k);
  };
  for (diag_t k = lo; k <= hi; ++k) {
    core::WfCellSources src;
    src.m_sub = at(0, k, 'm');
    src.m_open_ins = at(1, k - 1, 'm');
    src.m_open_del = at(1, k + 1, 'm');
    src.i_ext = at(2, k - 1, 'i');
    src.d_ext = at(2, k + 1, 'd');
    const core::WfCell ref = core::compute_wf_cell(src, k, n, m_len);
    const auto idx = static_cast<std::size_t>(k - lo);
    ASSERT_EQ(out.m(k), ref.m) << "trial " << trial << " k " << k;
    ASSERT_EQ(out.i(k), ref.i) << "trial " << trial << " k " << k;
    ASSERT_EQ(out.d(k), ref.d) << "trial " << trial << " k " << k;
    ASSERT_EQ(codes[idx], core::pack_origin_bits(ref))
        << "trial " << trial << " k " << k;
    ASSERT_EQ(out_no_codes.m(k), ref.m) << "trial " << trial << " k " << k;
    ASSERT_EQ(out_no_codes.i(k), ref.i) << "trial " << trial << " k " << k;
    ASSERT_EQ(out_no_codes.d(k), ref.d) << "trial " << trial << " k " << k;
  }

  // The Aligner packs each P-block of codes into its transactions, a
  // partial last block zero-padded to P cells: the same bytes as packing
  // the padded block.
  for (const unsigned P : {8u, 64u}) {
    const std::size_t block_bytes = bt_txns_per_block(P) * kBtPayloadBytes;
    for (std::size_t first = 0; first < codes.size(); first += P) {
      const std::size_t count = std::min<std::size_t>(P, codes.size() - first);
      std::vector<std::uint8_t> padded(P, 0);
      std::copy_n(codes.begin() + static_cast<std::ptrdiff_t>(first), count,
                  padded.begin());
      std::vector<std::uint8_t> want(block_bytes);
      pack_5bit_stream(padded, want);
      std::vector<std::uint8_t> got(block_bytes, 0xff);
      pack_5bit_stream(
          std::span<const std::uint8_t>(codes.data() + first, count), got);
      ASSERT_EQ(got, want) << "trial " << trial << " P " << P << " block at "
                           << first;
    }
  }
}

TEST(ComputeUnit, FuzzMatchesReferenceKernelCellByCell) {
  Prng prng(1606);
  for (int trial = 0; trial < 2000; ++trial) {
    fuzz_trial(prng, trial);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ComputeUnit, InteriorTieBreaksFollowReference) {
  // Every source present and wide enough that diagonal 0 is interior;
  // each case forces one tie and checks the reference's preference.
  struct Case {
    offset_t m_sub, m_open, i_ext, d_ext;
    core::MOrigin origin;
    bool i_from_ext, d_from_ext;
  };
  const Case cases[] = {
      // I: open == extend, open wins; sub == I == D: sub wins.
      {10, 10, 10, 11, core::MOrigin::kSub, false, true},
      // I beats sub; I ties D (D = 11 = I): I wins.
      {5, 10, 9, 11, core::MOrigin::kInsOpen, false, true},
      // D: open == extend, open wins; I beats D.
      {3, 10, 5, 10, core::MOrigin::kInsOpen, false, false},
      // extension strictly larger: from_ext set for both; D larger than I.
      {5, 10, 12, 14, core::MOrigin::kDelExt, true, true},
      // sub ties D, beats I.
      {12, 8, 7, 13, core::MOrigin::kSub, false, true},
  };
  for (const Case& c : cases) {
    core::Wavefront x(-3, 3);
    core::Wavefront oe(-3, 3);
    core::Wavefront e(-3, 3);
    for (diag_t k = -3; k <= 3; ++k) {
      x.set_m(k, c.m_sub);
      oe.set_m(k, c.m_open);
      e.set_i(k, c.i_ext);
      e.set_d(k, c.d_ext);
    }
    core::Wavefront out(-1, 1);
    std::uint8_t codes[3] = {};
    compute_wavefront({WfSource::of(&x), WfSource::of(&oe), WfSource::of(&e)},
                      100, 100, out, codes);
    core::WfCellSources src{c.m_sub, c.m_open, c.i_ext, c.m_open, c.d_ext};
    const core::WfCell ref = core::compute_wf_cell(src, 0, 100, 100);
    EXPECT_EQ(ref.m_origin, c.origin);
    EXPECT_EQ(ref.i_from_ext, c.i_from_ext);
    EXPECT_EQ(ref.d_from_ext, c.d_from_ext);
    EXPECT_EQ(codes[1], core::pack_origin_bits(ref));
    EXPECT_EQ(out.m(0), ref.m);
    EXPECT_EQ(out.i(0), ref.i);
    EXPECT_EQ(out.d(0), ref.d);
  }
}

TEST(ComputeUnit, AbsentSourcesGiveNullCells) {
  core::Wavefront out(-2, 2);
  std::uint8_t codes[5];
  compute_wavefront({}, 10, 10, out, codes);
  for (diag_t k = -2; k <= 2; ++k) {
    EXPECT_EQ(out.m(k), kOffsetNull);
    EXPECT_EQ(out.i(k), kOffsetNull);
    EXPECT_EQ(out.d(k), kOffsetNull);
    EXPECT_EQ(codes[k + 2], 0u);
  }
}

}  // namespace
}  // namespace wfasic::hw

// End-to-end check of the co-designed backtrace: the accelerator's origin
// stream, decoded by the CPU driver, must reproduce *exactly* the CIGAR the
// software WFA computes (both share the Eq.-3 kernel and tie-breaks).
#include "drv/backtrace_cpu.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/prng.hpp"
#include "core/swg_affine.hpp"
#include "core/wfa.hpp"
#include "drv/driver.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "mem/main_memory.hpp"

namespace wfasic::drv {
namespace {

struct BtFixture {
  mem::MainMemory memory;
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel;

  explicit BtFixture(hw::AcceleratorConfig config = {})
      : memory(256 << 20), cfg(config), accel(cfg, memory) {}

  BatchLayout run(const std::vector<gen::SequencePair>& pairs) {
    const BatchLayout layout =
        encode_input_set(memory, pairs, 0x1000, 0x1000000,
                         /*force_max_read_len=*/0, cfg.crc, /*crc_salt=*/7);
    Driver driver(accel);
    driver.start(layout, /*backtrace=*/true);
    (void)driver.wait_idle();
    return layout;
  }
};

core::AlignResult software_wfa(const std::string& a, const std::string& b) {
  core::WfaAligner aligner;
  return aligner.align(a, b);
}

TEST(BacktraceCpu, SinglePairMatchesSoftwareCigar) {
  BtFixture f;
  Prng prng(21);
  const std::string a = gen::random_sequence(prng, 150);
  const std::string b = gen::mutate_sequence(prng, a, 0.1);
  const BatchLayout layout = f.run({{0, a, b}});
  const auto parsed =
      parse_bt_stream(f.memory, layout.out_addr, 1, /*separate=*/false);
  ASSERT_EQ(parsed.size(), 1u);
  const core::AlignResult rebuilt =
      reconstruct_alignment(parsed[0], a, b, f.cfg);
  const core::AlignResult sw = software_wfa(a, b);
  ASSERT_TRUE(rebuilt.ok);
  EXPECT_EQ(rebuilt.score, sw.score);
  EXPECT_EQ(rebuilt.cigar, sw.cigar);  // exact transcript equality
}

TEST(BacktraceCpu, SweepOfLengthsAndRates) {
  Prng prng(22);
  for (const auto& [len, rate] :
       std::vector<std::pair<std::size_t, double>>{
           {1, 1.0}, {10, 0.3}, {64, 0.1}, {100, 0.05}, {100, 0.10},
           {300, 0.10}, {500, 0.02}}) {
    BtFixture f;
    const std::string a = gen::random_sequence(prng, len);
    const std::string b = gen::mutate_sequence(prng, a, rate);
    const BatchLayout layout = f.run({{0, a, b}});
    const auto parsed =
        parse_bt_stream(f.memory, layout.out_addr, 1, false);
    ASSERT_EQ(parsed.size(), 1u);
    const core::AlignResult rebuilt =
        reconstruct_alignment(parsed[0], a, b, f.cfg);
    const core::AlignResult sw = software_wfa(a, b);
    ASSERT_TRUE(rebuilt.ok) << "len=" << len << " rate=" << rate;
    EXPECT_EQ(rebuilt.score, sw.score);
    EXPECT_EQ(rebuilt.cigar, sw.cigar) << "len=" << len << " rate=" << rate;
    EXPECT_TRUE(rebuilt.cigar.is_valid_for(a, b));
  }
}

TEST(BacktraceCpu, BatchSingleAlignerNoSeparation) {
  BtFixture f;
  const auto pairs = gen::generate_input_set({120, 0.08, 6, 23});
  const BatchLayout layout = f.run(pairs);
  cpu::BtCpuCounters counters;
  const auto parsed =
      parse_bt_stream(f.memory, layout.out_addr, 6, false, &counters);
  ASSERT_EQ(parsed.size(), 6u);
  EXPECT_EQ(counters.blocks_copied, 0u);
  EXPECT_GT(counters.blocks_scanned, 0u);
  for (const BtAlignment& bt : parsed) {
    const auto& pair = pairs[bt.id];
    const core::AlignResult rebuilt =
        reconstruct_alignment(bt, pair.a, pair.b, f.cfg, &counters);
    EXPECT_EQ(rebuilt.cigar, software_wfa(pair.a, pair.b).cigar);
  }
  EXPECT_GT(counters.path_steps, 0u);
  EXPECT_GT(counters.match_chars, 0u);
}

TEST(BacktraceCpu, MultiAlignerRequiresSeparation) {
  hw::AcceleratorConfig cfg;
  cfg.num_aligners = 3;
  BtFixture f(cfg);
  const auto pairs = gen::generate_input_set({200, 0.10, 9, 24});
  const BatchLayout layout = f.run(pairs);
  cpu::BtCpuCounters counters;
  const auto parsed = parse_bt_stream(f.memory, layout.out_addr, 9,
                                      /*separate=*/true, &counters);
  ASSERT_EQ(parsed.size(), 9u);
  EXPECT_EQ(counters.blocks_copied, counters.blocks_scanned);
  for (const BtAlignment& bt : parsed) {
    const auto& pair = pairs[bt.id];
    const core::AlignResult rebuilt =
        reconstruct_alignment(bt, pair.a, pair.b, f.cfg, &counters);
    EXPECT_EQ(rebuilt.cigar, software_wfa(pair.a, pair.b).cigar)
        << "pair " << bt.id;
  }
}

TEST(BacktraceCpu, FailedAlignmentCarriesSuccessZero) {
  hw::AcceleratorConfig cfg;
  cfg.k_max = 3;  // Score_max = 10: almost everything overflows
  BtFixture f(cfg);
  const std::string a(50, 'A');
  const std::string b(50, 'T');
  const BatchLayout layout = f.run({{0, a, b}});
  const auto parsed = parse_bt_stream(f.memory, layout.out_addr, 1, false);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_FALSE(parsed[0].success);
  const core::AlignResult rebuilt =
      reconstruct_alignment(parsed[0], a, b, f.cfg);
  EXPECT_FALSE(rebuilt.ok);
}

TEST(BacktraceCpu, NonInterleavedParserRejectsInterleavedStream) {
  hw::AcceleratorConfig cfg;
  cfg.num_aligners = 2;
  cfg.parallel_sections = 16;
  BtFixture f(cfg);
  // Long enough pairs that two Aligners interleave transactions.
  const auto pairs = gen::generate_input_set({400, 0.1, 4, 25});
  const BatchLayout layout = f.run(pairs);
  EXPECT_DEATH((void)parse_bt_stream(f.memory, layout.out_addr, 4, false),
               "data-separation");
}

TEST(BacktraceCpu, SmallParallelSectionConfigs) {
  // Block/transaction geometry must hold for P != 64 too.
  for (unsigned P : {8u, 16u, 32u}) {
    hw::AcceleratorConfig cfg;
    cfg.parallel_sections = P;
    BtFixture f(cfg);
    Prng prng(26 + P);
    const std::string a = gen::random_sequence(prng, 120);
    const std::string b = gen::mutate_sequence(prng, a, 0.1);
    const BatchLayout layout = f.run({{0, a, b}});
    const auto parsed = parse_bt_stream(f.memory, layout.out_addr, 1, false);
    ASSERT_EQ(parsed.size(), 1u);
    const core::AlignResult rebuilt =
        reconstruct_alignment(parsed[0], a, b, cfg);
    EXPECT_EQ(rebuilt.cigar, software_wfa(a, b).cigar) << "P=" << P;
  }
}

TEST(BacktraceCpu, IdenticalSequencesAllMatches) {
  BtFixture f;
  const std::string a = "ACGTACGTACGTACGT";
  const BatchLayout layout = f.run({{0, a, a}});
  const auto parsed = parse_bt_stream(f.memory, layout.out_addr, 1, false);
  const core::AlignResult rebuilt =
      reconstruct_alignment(parsed[0], a, a, f.cfg);
  EXPECT_EQ(rebuilt.score, 0);
  EXPECT_EQ(rebuilt.cigar.str(), std::string(16, 'M'));
}

TEST(BacktraceCpu, PureGapAlignment) {
  BtFixture f;
  const std::string a = "ACGT";
  const std::string b = "ACGTTTTT";  // 4 inserted bases
  const BatchLayout layout = f.run({{0, a, b}});
  const auto parsed = parse_bt_stream(f.memory, layout.out_addr, 1, false);
  const core::AlignResult rebuilt =
      reconstruct_alignment(parsed[0], a, b, f.cfg);
  EXPECT_EQ(rebuilt.cigar, software_wfa(a, b).cigar);
  EXPECT_EQ(rebuilt.cigar.counts().insertions, 4u);
}

// --- CPU cost contract of the strict parser --------------------------------
// drv.sim_bt_cycles (and with it the modeled time of every BT run) is
// priced from these counters, so their exact values are pinned here.

TEST(BacktraceCpu, SeparateMethodChargesEveryBeatFootersIncluded) {
  hw::AcceleratorConfig cfg;
  cfg.crc = true;
  cfg.num_aligners = 2;
  BtFixture f(cfg);
  const auto pairs = gen::generate_input_set({200, 0.10, 6, 27});
  const std::uint64_t before = f.accel.dma().beats_written();
  const BatchLayout layout = f.run(pairs);
  const std::uint64_t beats = f.accel.dma().beats_written() - before;
  cpu::BtCpuCounters counters;
  const auto parsed =
      parse_bt_stream(f.memory, layout.out_addr, pairs.size(),
                      /*separate=*/true, &counters, layout.crc,
                      layout.crc_salt);
  ASSERT_EQ(parsed.size(), pairs.size());
  EXPECT_EQ(counters.blocks_scanned, beats);
  EXPECT_EQ(counters.blocks_copied, beats);
  EXPECT_EQ(counters.alignments, pairs.size());
}

TEST(BacktraceCpu, SingleMethodChargesBinarySearchProbesPerAlignment) {
  for (const bool crc : {false, true}) {
    hw::AcceleratorConfig cfg;
    cfg.crc = crc;
    BtFixture f(cfg);
    const auto pairs = gen::generate_input_set({150, 0.08, 6, 28});
    const BatchLayout layout = f.run(pairs);
    cpu::BtCpuCounters counters;
    const auto parsed =
        parse_bt_stream(f.memory, layout.out_addr, pairs.size(),
                        /*separate=*/false, &counters, layout.crc,
                        layout.crc_salt);
    ASSERT_EQ(parsed.size(), pairs.size());
    // 2 + floor(log2(payload_txns + 1)) probes per alignment.
    std::uint64_t expected = 0;
    for (const BtAlignment& bt : parsed) {
      expected += 2;
      for (std::size_t span = bt.payload.size() / hw::kBtPayloadBytes + 1;
           span > 1; span /= 2) {
        ++expected;
      }
    }
    EXPECT_EQ(counters.blocks_scanned, expected) << "crc=" << crc;
    EXPECT_EQ(counters.blocks_copied, 0u) << "crc=" << crc;
    EXPECT_EQ(counters.alignments, pairs.size()) << "crc=" << crc;
  }
}

TEST(BacktraceCpu, StrictAndTolerantParsersAgreeOnCleanStreams) {
  for (const bool crc : {false, true}) {
    for (const unsigned aligners : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message()
                   << "crc=" << crc << " aligners=" << aligners);
      hw::AcceleratorConfig cfg;
      cfg.crc = crc;
      cfg.num_aligners = aligners;
      BtFixture f(cfg);
      const auto pairs = gen::generate_input_set({180, 0.10, 7, 29});
      const std::uint64_t before = f.accel.dma().beats_written();
      const BatchLayout layout = f.run(pairs);
      const std::uint64_t beats = f.accel.dma().beats_written() - before;

      const auto strict =
          parse_bt_stream(f.memory, layout.out_addr, pairs.size(),
                          /*separate=*/aligners > 1, nullptr, layout.crc,
                          layout.crc_salt);
      const BtStreamScan scan = try_parse_bt_stream(
          f.memory, layout.out_addr, beats * mem::kBeatBytes, pairs.size(),
          layout.crc, layout.crc_salt);
      EXPECT_TRUE(scan.clean);
      EXPECT_EQ(scan.why, nullptr);
      EXPECT_EQ(scan.beats_read, beats);
      EXPECT_TRUE(aligners > 1 || !scan.interleaved);

      std::map<std::uint32_t, const BtAlignment*> by_id;
      for (const BtAlignment& bt : strict) by_id[bt.id] = &bt;
      ASSERT_EQ(by_id.size(), pairs.size());
      ASSERT_EQ(scan.alignments.size(), pairs.size());
      for (const BtAlignment& bt : scan.alignments) {
        ASSERT_TRUE(by_id.contains(bt.id)) << "id " << bt.id;
        const BtAlignment& other = *by_id.at(bt.id);
        EXPECT_EQ(bt.success, other.success) << "id " << bt.id;
        EXPECT_EQ(bt.score, other.score) << "id " << bt.id;
        EXPECT_EQ(bt.k_reached, other.k_reached) << "id " << bt.id;
        EXPECT_EQ(bt.payload, other.payload) << "id " << bt.id;
      }
    }
  }
}

}  // namespace
}  // namespace wfasic::drv

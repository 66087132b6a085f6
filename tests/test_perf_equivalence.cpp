// Differential tests for the wall-clock fast paths: every host-side
// optimisation must be observationally identical to the exact slow path
// it replaces. Four families are covered:
//
//  1. The stepping fast path vs exact per-cycle stepping. Two strategies
//     are differenced against each other: exact stepping (idle_skip off —
//     the reference) and the fast path (idle_skip on: quiescence poll,
//     then skip, macro-step grant or exact step). Simulated cycle counts,
//     decoded results, the entire output memory image and the full PMU
//     bank (all counters except the host-side host_idle_skipped_cycles
//     diagnostic) must match bit for bit — with the watchdog disarmed
//     (fast path active mid-run), with the watchdog armed (fast path
//     suppressed while running), and across seeded fault campaigns
//     (injector attached, fast path suppressed entirely, faulty timeline
//     and error latching replayed exactly).
//
//  2. The word-parallel (64-bit XOR+ctz) extend kernel vs the reference
//     byte/block loops in core::WfaAligner and core::WfaLinearAligner:
//     scores, CIGARs and every probe counter must match, including on
//     inputs with 'N' bases where the word path must fall back.
//
//  3. Driver wait loops over the batched stepper vs what a per-cycle
//     poll would observe: completion is detected at the same cycle.
//
//  4. Pinned digests of the result stream bytes and PMU bank over a
//     configuration matrix (P, CRC, Aligner count, BT/NBT), under both
//     stepping strategies: a refactor of the Aligner datapath must leave
//     every byte, null-cell origin codes included, where it was.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "core/wfa_linear.hpp"
#include "drv/driver.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/perf.hpp"
#include "hw/regs.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"

namespace wfasic {
namespace {

constexpr std::uint64_t kInAddr = 0x1000;
constexpr std::uint64_t kOutAddr = 0x100000;
constexpr std::size_t kMemBytes = 8u << 20;

std::vector<gen::SequencePair> make_pairs(std::uint64_t seed,
                                          std::size_t count,
                                          std::size_t base_len,
                                          double error_rate) {
  Prng prng(seed);
  std::vector<gen::SequencePair> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    std::string a = gen::random_sequence(prng, base_len + i);
    const std::string b = gen::mutate_sequence(prng, a, error_rate);
    pairs.push_back({static_cast<std::uint32_t>(i), std::move(a), b});
  }
  return pairs;
}

/// The two stepping strategies under differential test. kExact is the
/// reference; the fast path must be observationally indistinguishable
/// from it.
enum class StepStrategy { kExact, kFast };

void apply_strategy(hw::AcceleratorConfig& cfg, StepStrategy s) {
  cfg.idle_skip = s == StepStrategy::kFast;
}

/// Everything observable about one accelerator run: the simulated
/// timeline, the error state, the full PMU bank and the complete output
/// memory image.
struct RunObservation {
  sim::cycle_t final_now = 0;
  std::uint64_t run_cycles = 0;
  std::uint64_t wait_cycles = 0;
  std::uint32_t err_status = 0;
  drv::RunOutcome outcome = drv::RunOutcome::kOk;
  hw::PerfSnapshot perf;
  std::vector<std::uint8_t> memory;

  friend bool operator==(const RunObservation&,
                         const RunObservation&) = default;
};

RunObservation run_batch(const std::vector<gen::SequencePair>& pairs,
                         bool backtrace, StepStrategy strategy,
                         bool disarm_watchdog,
                         sim::FaultInjector* injector = nullptr) {
  hw::AcceleratorConfig cfg;
  apply_strategy(cfg, strategy);
  mem::MainMemory memory(kMemBytes);
  hw::Accelerator accel(cfg, memory);
  if (injector != nullptr) accel.attach_fault_injector(injector);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);
  driver.start(layout, backtrace);
  if (disarm_watchdog) accel.write_reg(hw::kRegWatchdog, 0);
  RunObservation obs;
  const drv::RunStatus status = driver.wait_idle();
  obs.outcome = status.outcome;
  obs.wait_cycles = status.cycles;
  obs.final_now = accel.now();
  obs.run_cycles = accel.last_run_cycles();
  obs.err_status = accel.read_reg(hw::kRegErrStatus);
  // The full PMU bank is part of the observation. The one legitimately
  // strategy-dependent counter is the host-side diagnostic of how many
  // cycles the fast path elided; zero it so the remaining 18 hardware
  // counters are compared exactly.
  obs.perf = accel.perf_counters();
  obs.perf.host_idle_skipped_cycles = 0;
  obs.memory.resize(kMemBytes);
  memory.read(0, obs.memory);
  return obs;
}

/// Runs one batch under both strategies and expects the fast-path
/// observation to equal the exact-stepping reference.
void expect_strategies_identical(const std::vector<gen::SequencePair>& pairs,
                                 bool backtrace, bool disarm_watchdog) {
  EXPECT_EQ(
      run_batch(pairs, backtrace, StepStrategy::kExact, disarm_watchdog),
      run_batch(pairs, backtrace, StepStrategy::kFast, disarm_watchdog));
}

TEST(IdleSkipEquivalence, NbtRunBitIdentical) {
  expect_strategies_identical(make_pairs(101, 6, 150, 0.08),
                              /*backtrace=*/false, /*disarm_watchdog=*/true);
}

TEST(IdleSkipEquivalence, BtRunBitIdentical) {
  expect_strategies_identical(make_pairs(102, 5, 120, 0.06),
                              /*backtrace=*/true, /*disarm_watchdog=*/true);
}

TEST(IdleSkipEquivalence, WatchdogArmedBitIdentical) {
  // With the (default) watchdog armed, the fast paths are suppressed
  // while the run is in flight; the run must still complete identically
  // and the watchdog must still observe real progress.
  expect_strategies_identical(make_pairs(103, 4, 100, 0.05),
                              /*backtrace=*/false, /*disarm_watchdog=*/false);
}

TEST(IdleSkipEquivalence, FaultCampaignBitIdentical) {
  // A fault injector forces exact stepping regardless of the configured
  // strategy: the whole faulty timeline — error latching included — must
  // replay bit-identically under both. Several seeds so campaigns
  // that trip different error paths (bit flips absorbed vs AXI aborts)
  // are all exercised.
  const auto pairs = make_pairs(104, 4, 120, 0.08);
  for (const std::uint64_t seed : {7u, 19u, 43u}) {
    sim::FaultInjector::CampaignConfig fc;
    fc.mem_begin = kInAddr;
    fc.mem_end = kInAddr + 0x400;
    fc.mem_bit_flips = 2;
    fc.axi_errors = 1;
    fc.cycle_window = 20'000;
    sim::FaultInjector inj_exact = sim::FaultInjector::make_campaign(seed, fc);
    const RunObservation exact =
        run_batch(pairs, false, StepStrategy::kExact,
                  /*disarm_watchdog=*/true, &inj_exact);
    sim::FaultInjector inj_fast = sim::FaultInjector::make_campaign(seed, fc);
    const RunObservation fast =
        run_batch(pairs, false, StepStrategy::kFast,
                  /*disarm_watchdog=*/true, &inj_fast);
    EXPECT_EQ(exact, fast) << "seed " << seed;
  }
}

TEST(IdleSkipEquivalence, InterruptWaitBitIdentical) {
  // The interrupt-driven wait path uses the same run-until-event stepper;
  // the interrupt must be seen at the same simulated cycle under both
  // strategies.
  const auto pairs = make_pairs(105, 3, 90, 0.05);
  auto run = [&](StepStrategy strategy) {
    hw::AcceleratorConfig cfg;
    apply_strategy(cfg, strategy);
    mem::MainMemory memory(kMemBytes);
    hw::Accelerator accel(cfg, memory);
    const drv::BatchLayout layout =
        drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
    drv::Driver driver(accel);
    driver.start(layout, false, /*enable_interrupt=*/true);
    accel.write_reg(hw::kRegWatchdog, 0);
    (void)driver.wait_interrupt();
    return accel.now();
  };
  EXPECT_EQ(run(StepStrategy::kExact), run(StepStrategy::kFast));
}

TEST(IdleSkipEquivalence, BackToBackRunsBitIdentical) {
  // Two launches on the same accelerator instance: the fast path must
  // pick up cleanly after the idle gap between runs (register pokes happen
  // outside any tick and the next poll sees them) and the second run must
  // still be bit-identical.
  auto run_two = [&](StepStrategy strategy) {
    hw::AcceleratorConfig cfg;
    apply_strategy(cfg, strategy);
    mem::MainMemory memory(kMemBytes);
    hw::Accelerator accel(cfg, memory);
    drv::Driver driver(accel);
    std::vector<sim::cycle_t> stamps;
    for (const std::uint64_t seed : {106u, 107u}) {
      const auto pairs = make_pairs(seed, 4, 110, 0.07);
      const drv::BatchLayout layout =
          drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
      driver.start(layout, seed % 2 == 0);
      accel.write_reg(hw::kRegWatchdog, 0);
      (void)driver.wait_idle();
      stamps.push_back(accel.now());
    }
    std::vector<std::uint8_t> image(kMemBytes);
    memory.read(0, image);
    return std::pair(stamps, image);
  };
  EXPECT_EQ(run_two(StepStrategy::kExact), run_two(StepStrategy::kFast));
}

// ---------------------------------------------------------------------------
// Pinned output digests: the BT/NBT result stream bytes and the full PMU
// bank of a fixed configuration matrix, frozen as FNV-1a digests. Origin
// bits of cells no backtrace walks through never change a CIGAR, so only a
// byte-level pin catches a change to them.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

/// Band-edge, out-of-band, empty, homopolymer and score-overflow pairs
/// around random 8%-error pairs, for a band of kDigestKMax diagonals.
constexpr diag_t kDigestKMax = 40;

std::vector<gen::SequencePair> digest_pairs() {
  Prng prng(4242);
  std::vector<std::string> as;
  std::vector<std::string> bs;
  const auto add = [&](std::string a, std::string b) {
    as.push_back(std::move(a));
    bs.push_back(std::move(b));
  };
  for (int i = 0; i < 4; ++i) {
    std::string a = gen::random_sequence(prng, 50 + 13 * i);
    std::string b = gen::mutate_sequence(prng, a, 0.08);
    add(std::move(a), std::move(b));
  }
  const std::string core = gen::random_sequence(prng, 30);
  const std::string tail = gen::random_sequence(prng, kDigestKMax + 1);
  // |k_align| = k_max - 1 still fits Eq. 6's score bound; k_max reaches
  // the band edge but overflows; k_max + 1 is rejected outright.
  for (const diag_t k : {kDigestKMax - 1, kDigestKMax, kDigestKMax + 1}) {
    const std::string longer =
        core + tail.substr(0, static_cast<std::size_t>(k));
    add(core, longer);
    add(longer, core);
  }
  add("", gen::random_sequence(prng, 20));
  add(gen::random_sequence(prng, 5), "");
  add("", "");
  add(std::string(50, 'A'), std::string(47, 'A'));
  add(std::string(40, 'C'), std::string(20, 'C') + "G" + std::string(19, 'C'));
  add(gen::random_sequence(prng, 90), gen::random_sequence(prng, 90));
  std::vector<gen::SequencePair> pairs;
  for (std::size_t i = 0; i < as.size(); ++i) {
    pairs.push_back({static_cast<std::uint32_t>(i), as[i], bs[i]});
  }
  return pairs;
}

struct DigestCase {
  unsigned parallel_sections;
  bool crc;
  unsigned aligners;
  bool backtrace;
  std::uint64_t digest;
};

/// Digest of one run: the result stream (every beat the DMA wrote), the
/// full PMU bank (host diagnostic excluded) and the run's cycle count.
std::uint64_t run_digest(const std::vector<gen::SequencePair>& pairs,
                         const DigestCase& c, StepStrategy strategy) {
  hw::AcceleratorConfig cfg;
  apply_strategy(cfg, strategy);
  cfg.parallel_sections = c.parallel_sections;
  cfg.num_aligners = c.aligners;
  cfg.k_max = kDigestKMax;
  cfg.crc = c.crc;
  mem::MainMemory memory(kMemBytes);
  hw::Accelerator accel(cfg, memory);
  const drv::BatchLayout layout = drv::encode_input_set(
      memory, pairs, kInAddr, kOutAddr, 0, c.crc, /*crc_salt=*/0x5a17);
  drv::Driver driver(accel);
  driver.start(layout, c.backtrace);
  accel.write_reg(hw::kRegWatchdog, 0);
  const drv::RunStatus status = driver.wait_idle();
  EXPECT_EQ(status.outcome, drv::RunOutcome::kOk);
  std::uint64_t h = 0xcbf29ce484222325ull;
  hw::PerfSnapshot perf = accel.perf_counters();
  perf.host_idle_skipped_cycles = 0;
  for (std::uint32_t idx = 0; idx < hw::kNumPerfCounters; ++idx) {
    const std::uint64_t v = perf.counter(static_cast<hw::PerfIdx>(idx));
    h = fnv1a(h, &v, sizeof v);
  }
  const std::uint64_t cycles = accel.last_run_cycles();
  h = fnv1a(h, &cycles, sizeof cycles);
  std::vector<std::uint8_t> stream(perf.dma_beats_written * mem::kBeatBytes);
  memory.read(kOutAddr, stream);
  return fnv1a(h, stream.data(), stream.size());
}

TEST(OutputDigest, SeedMatrixPinnedUnderBothStrategies) {
  const auto pairs = digest_pairs();
  // {P, CRC, Aligners, BT, digest}; regenerate only for a deliberate
  // change to the result formats or the timing model.
  const DigestCase cases[] = {
      {8, false, 1, false, 0x7efee4dc1e76a441ull},
      {8, false, 1, true, 0x885a0e35b8321d66ull},
      {8, false, 2, false, 0xfda4b213348523a8ull},
      {8, false, 2, true, 0xfc2ab0b4848ca0bbull},
      {8, true, 1, false, 0xa55cca02d5d741e4ull},
      {8, true, 1, true, 0x714477c789ede1b5ull},
      {8, true, 2, false, 0x68133d786ce8a51bull},
      {8, true, 2, true, 0xdbe514f5fcc9d3a0ull},
      {64, false, 1, false, 0x38eac453f26d5cc7ull},
      {64, false, 1, true, 0xdf5513aab1e2e4c0ull},
      {64, false, 2, false, 0xc11b21e193e6592bull},
      {64, false, 2, true, 0x6c4d852fb6cfde3full},
      {64, true, 1, false, 0x007796d7f499777aull},
      {64, true, 1, true, 0x313ffd13dcd8eb22ull},
      {64, true, 2, false, 0x678b77c0e1e7d9c6ull},
      {64, true, 2, true, 0x8b86e476d6c6f924ull},
  };
  for (const DigestCase& c : cases) {
    for (const StepStrategy s : {StepStrategy::kExact, StepStrategy::kFast}) {
      const std::uint64_t got = run_digest(pairs, c, s);
      EXPECT_EQ(got, c.digest)
          << "P=" << c.parallel_sections << " crc=" << c.crc
          << " aligners=" << c.aligners << " bt=" << c.backtrace
          << (s == StepStrategy::kExact ? " exact" : " fast") << ": 0x"
          << std::hex << got;
    }
  }
}

// ---------------------------------------------------------------------------
// Word-parallel extend vs reference kernels.
// ---------------------------------------------------------------------------

/// Probe counters as a comparable value (mem_trace excluded).
std::vector<std::uint64_t> probe_values(const core::WfaProbe& p) {
  return {p.score_iterations, p.wavefronts_computed, p.cells_computed,
          p.extend_cells,     p.chars_compared,      p.blocks_compared,
          p.wf_cells_read,    p.wf_cells_written,    p.bt_steps,
          p.wf_bytes_allocated, p.peak_live_wf_bytes};
}

void expect_wfa_paths_identical(const std::string& a, const std::string& b,
                                core::ExtendMode mode,
                                core::Traceback traceback) {
  core::WfaConfig ref_cfg;
  ref_cfg.extend = mode;
  ref_cfg.traceback = traceback;
  ref_cfg.reference_extend = true;
  core::WfaConfig fast_cfg = ref_cfg;
  fast_cfg.reference_extend = false;

  core::WfaAligner ref(ref_cfg);
  core::WfaAligner fast(fast_cfg);
  const core::AlignResult r = ref.align(a, b);
  const core::AlignResult f = fast.align(a, b);
  EXPECT_EQ(r.ok, f.ok);
  EXPECT_EQ(r.score, f.score);
  EXPECT_EQ(r.cigar.str(), f.cigar.str());
  EXPECT_EQ(probe_values(ref.probe()), probe_values(fast.probe()));
}

TEST(WordExtendEquivalence, WfaAllModesRandomPairs) {
  Prng prng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const std::string a = gen::random_sequence(prng, 80 + trial * 37);
    const std::string b = gen::mutate_sequence(prng, a, 0.10);
    for (const auto mode :
         {core::ExtendMode::kScalar, core::ExtendMode::kBlocked}) {
      for (const auto tb :
           {core::Traceback::kEnabled, core::Traceback::kDisabled}) {
        expect_wfa_paths_identical(a, b, mode, tb);
      }
    }
  }
}

TEST(WordExtendEquivalence, WfaFallsBackOnAmbiguousBases) {
  // 'N' bases keep the word kernel off (it only packs ACGT); both paths
  // must still agree exactly via the byte-wise comparison.
  const std::string a = "ACGTNACGTACGTTTTNACGT";
  const std::string b = "ACGTNACGAACGTTTTNACGT";
  expect_wfa_paths_identical(a, b, core::ExtendMode::kScalar,
                             core::Traceback::kEnabled);
}

TEST(WordExtendEquivalence, WfaEdgeShapes) {
  for (const auto& [a, b] :
       std::vector<std::pair<std::string, std::string>>{
           {"A", "A"},
           {"A", "C"},
           {"ACGT", "ACGT"},
           {std::string(64, 'G'), std::string(64, 'G')},
           {std::string(33, 'T'), std::string(31, 'T')},
           {"ACGTACGTACGTACGTACGTACGTACGTACGTA",  // 33: crosses a word
            "ACGTACGTACGTACGTACGTACGTACGTACGTC"},
       }) {
    expect_wfa_paths_identical(a, b, core::ExtendMode::kScalar,
                               core::Traceback::kEnabled);
    expect_wfa_paths_identical(a, b, core::ExtendMode::kBlocked,
                               core::Traceback::kDisabled);
  }
}

TEST(WordExtendEquivalence, WfaLinearMatchesReference) {
  Prng prng(555);
  for (int trial = 0; trial < 6; ++trial) {
    const std::string a = gen::random_sequence(prng, 60 + trial * 29);
    const std::string b = gen::mutate_sequence(prng, a, 0.12);
    for (const auto tb :
         {core::Traceback::kEnabled, core::Traceback::kDisabled}) {
      core::WfaLinearConfig ref_cfg;
      ref_cfg.traceback = tb;
      ref_cfg.reference_extend = true;
      core::WfaLinearConfig fast_cfg = ref_cfg;
      fast_cfg.reference_extend = false;
      core::WfaLinearAligner ref(ref_cfg);
      core::WfaLinearAligner fast(fast_cfg);
      const core::AlignResult r = ref.align(a, b);
      const core::AlignResult f = fast.align(a, b);
      EXPECT_EQ(r.ok, f.ok);
      EXPECT_EQ(r.score, f.score);
      EXPECT_EQ(r.cigar.str(), f.cigar.str());
    }
  }
}

TEST(WordExtendEquivalence, WfaLinearFallsBackOnAmbiguousBases) {
  core::WfaLinearConfig ref_cfg;
  ref_cfg.reference_extend = true;
  core::WfaLinearConfig fast_cfg;
  fast_cfg.reference_extend = false;
  core::WfaLinearAligner ref(ref_cfg);
  core::WfaLinearAligner fast(fast_cfg);
  const std::string a = "NNACGTACGTNN";
  const std::string b = "NNACGAACGTNN";
  const core::AlignResult r = ref.align(a, b);
  const core::AlignResult f = fast.align(a, b);
  EXPECT_EQ(r.score, f.score);
  EXPECT_EQ(r.cigar.str(), f.cigar.str());
}

}  // namespace
}  // namespace wfasic

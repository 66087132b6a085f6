// Modeled performance-monitoring unit (PMU) of the WFAsic accelerator
// (docs/OBSERVABILITY.md §2).
//
// Real RISC-V SoC flows expose hardware event counters through memory-
// mapped CSR banks; we model that as a read-only register window at
// kRegPerfBase. Every counter is 64 bits, exposed as a lo/hi register
// pair, cleared on Start (the accelerator rebases against a snapshot
// taken when the run launches, like kRegEccCount's any-write rebase).
//
// Counters are OBSERVATIONAL: they are derived from state the datapath
// already maintains and never feed back into timing, so cycle counts and
// results are bit-identical whether anyone reads them or not. They are
// also maintained identically on the exact-stepping and idle-skip paths
// (each component's skip_quiet applies the same linear updates its ticks
// would have), so a snapshot is invariant across stepping strategies —
// enforced by tests/test_observability.cpp. The one exception is the
// last counter, a host-side diagnostic counting the cycles the idle-skip
// fast path elided; it is zero by construction when idle-skip is off.
//
// Each counter is declared once, in WFASIC_PERF_COUNTERS below. The
// PerfIdx enum, the PerfSnapshot fields, the display names, the indexed
// accessors and the rebase kind are all expanded from that one list, and
// tests/test_metric_catalog.cpp checks docs/OBSERVABILITY.md's catalog
// against it. Accelerator::perf_counters_raw is the one place that maps
// components to counters.
#pragma once

#include <cstdint>

namespace wfasic::hw {

/// How a counter is rebased at Start (PerfSnapshot::rebased).
enum class PerfRebase : std::uint8_t {
  kMonotone,  ///< a count, reported relative to the Start-time snapshot
  /// Taken as-is: the FIFO high-water marks are per-run maxima (rearmed
  /// on Start; a max cannot be rebased by subtraction), and the ECC/error
  /// counts mirror the live kRegEccCount/kRegErrCount registers, which
  /// carry their own clear semantics.
  kAbsolute,
};

/// The counter table, in register-bank order: counter i occupies the
/// lo/hi pair at kRegPerfBase + 8*i (+0 lo, +4 hi). That order is also the
/// checkpoint-blob and digest order, so rows are only ever appended.
/// X(enum name, field and display name, PerfRebase, meaning).
#define WFASIC_PERF_COUNTERS(X)                                               \
  X(kExtractorPairsAccepted, extractor_pairs_accepted, kMonotone,             \
    "pairs handed to an Aligner")                                             \
  X(kExtractorPairsRejected, extractor_pairs_rejected, kMonotone,             \
    "unsupported or CRC-failed pairs")                                        \
  X(kExtractorWaitCycles, extractor_wait_cycles, kMonotone,                   \
    "cycles stalled waiting for an idle Aligner")                             \
  X(kExtendInvocations, extend_invocations, kMonotone,                        \
    "ExtendUnit calls (one per valid cell)")                                  \
  X(kExtendMatchedBases, extend_matched_bases, kMonotone,                     \
    "total bases matched by extend runs")                                     \
  X(kAlignerWavefrontSteps, aligner_wavefront_steps, kMonotone,               \
    "score iterations across all Aligners")                                   \
  X(kAlignerBusyCycles, aligner_busy_cycles, kMonotone,                       \
    "cycles any Aligner was non-idle")                                        \
  X(kAlignerStallCycles, aligner_stall_cycles, kMonotone,                     \
    "output (BT queue) backpressure cycles")                                  \
  X(kDmaBeatsRead, dma_beats_read, kMonotone,                                 \
    "input beats fetched from memory")                                        \
  X(kDmaBeatsWritten, dma_beats_written, kMonotone,                           \
    "result beats written to memory")                                         \
  X(kDmaStallFifoFull, dma_stall_fifo_full, kMonotone,                        \
    "read beats held: input FIFO not ready")                                  \
  X(kDmaStallPortBusy, dma_stall_port_busy, kMonotone,                        \
    "read beats held: write had the port")                                    \
  X(kInputFifoOccupancyCycles, input_fifo_occupancy_cycles, kMonotone,        \
    "sum over cycles of input FIFO occupancy")                                \
  X(kInputFifoHighWater, input_fifo_high_water, kAbsolute,                    \
    "input FIFO high-water mark (this run)")                                  \
  X(kOutputFifoOccupancyCycles, output_fifo_occupancy_cycles, kMonotone,      \
    "sum over cycles of output FIFO occupancy")                               \
  X(kOutputFifoHighWater, output_fifo_high_water, kAbsolute,                  \
    "output FIFO high-water mark (this run)")                                 \
  X(kEccCorrected, ecc_corrected, kAbsolute,                                  \
    "ECC single-bit corrections (all RAMs)")                                  \
  X(kErrCount, err_count, kAbsolute,                                          \
    "errors latched (mirror of kRegErrCount)")                                \
  X(kHostIdleSkippedCycles, host_idle_skipped_cycles, kMonotone,              \
    "host diagnostic: cycles elided by idle-skip")

/// Counter indices, in register-bank order.
enum class PerfIdx : std::uint32_t {
#define WFASIC_PERF_ENUM(idx, field, rebase, meaning) idx,
  WFASIC_PERF_COUNTERS(WFASIC_PERF_ENUM)
#undef WFASIC_PERF_ENUM
  kCount,
};

inline constexpr std::uint32_t kNumPerfCounters =
    static_cast<std::uint32_t>(PerfIdx::kCount);

/// Stable display/key name of a counter (its PerfSnapshot field name),
/// used by the --stats CLI output and docs/OBSERVABILITY.md's catalog.
inline constexpr const char* perf_counter_name(PerfIdx idx) {
  constexpr const char* kNames[] = {
#define WFASIC_PERF_NAME(idx, field, rebase, meaning) #field,
      WFASIC_PERF_COUNTERS(WFASIC_PERF_NAME)
#undef WFASIC_PERF_NAME
  };
  const auto i = static_cast<std::uint32_t>(idx);
  return i < kNumPerfCounters ? kNames[i] : "?";
}

/// One coherent reading of the whole PMU bank. Produced by
/// Accelerator::perf_counters() (already rebased to the current run) and by
/// Driver::read_perf_counters() (read back through the register window).
struct PerfSnapshot {
#define WFASIC_PERF_FIELD(idx, field, rebase, meaning) std::uint64_t field = 0;
  WFASIC_PERF_COUNTERS(WFASIC_PERF_FIELD)
#undef WFASIC_PERF_FIELD

  bool operator==(const PerfSnapshot&) const = default;

  [[nodiscard]] std::uint64_t counter(PerfIdx idx) const {
    const auto i = static_cast<std::uint32_t>(idx);
    return i < kNumPerfCounters ? this->*member(i) : 0;
  }

  void set_counter(PerfIdx idx, std::uint64_t v) {
    const auto i = static_cast<std::uint32_t>(idx);
    if (i < kNumPerfCounters) this->*member(i) = v;
  }

  /// True for the counters PerfRebase::kAbsolute marks.
  [[nodiscard]] static constexpr bool is_absolute(PerfIdx idx) {
    constexpr PerfRebase kRebase[] = {
#define WFASIC_PERF_REBASE(idx, field, rebase, meaning) PerfRebase::rebase,
        WFASIC_PERF_COUNTERS(WFASIC_PERF_REBASE)
#undef WFASIC_PERF_REBASE
    };
    const auto i = static_cast<std::uint32_t>(idx);
    return i < kNumPerfCounters && kRebase[i] == PerfRebase::kAbsolute;
  }

  /// The per-run reading: monotone counters are rebased (this - base),
  /// absolute fields are taken as-is.
  [[nodiscard]] PerfSnapshot rebased(const PerfSnapshot& base) const {
    PerfSnapshot out;
    for (std::uint32_t i = 0; i < kNumPerfCounters; ++i) {
      const auto idx = static_cast<PerfIdx>(i);
      const std::uint64_t cur = counter(idx);
      out.set_counter(idx,
                      is_absolute(idx) ? cur : cur - base.counter(idx));
    }
    return out;
  }

 private:
  /// The field of counter i (i < kNumPerfCounters).
  static std::uint64_t PerfSnapshot::*member(std::uint32_t i) {
    static constexpr std::uint64_t PerfSnapshot::*kFields[] = {
#define WFASIC_PERF_MEMBER(idx, field, rebase, meaning) &PerfSnapshot::field,
        WFASIC_PERF_COUNTERS(WFASIC_PERF_MEMBER)
#undef WFASIC_PERF_MEMBER
    };
    return kFields[i];
  }
};

}  // namespace wfasic::hw

// CPU-side backtrace of the accelerator's output stream (§4.5).
//
// Two methods, matching the paper's Figure 11 configurations:
//  - single-Aligner ("No Sep"): the stream is consecutive per alignment;
//    the CPU only identifies boundaries (Last flags) and walks in place.
//  - multi-Aligner ("Sep"): transactions of different alignments
//    interleave, so the CPU first separates them by alignment ID into
//    per-alignment buffers (the expensive copy pass), then walks.
//
// The walk decodes the 5-bit origin codes from (score, diagonal) cell
// coordinates using the deterministic wavefront geometry, collects the
// difference operations, and finally re-traverses the two sequences to
// insert the matches between differences (§4.5).
//
// Each job has one implementation, the tolerant one (try_parse_bt_stream,
// try_reconstruct_alignment); the strict variants are that implementation
// plus WFASIC_REQUIRE checks on its verdict. Parsed alignments come back in
// stream order, so callers index them by BtAlignment::id.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/align_result.hpp"
#include "cpu/cpu_model.hpp"
#include "hw/config.hpp"
#include "mem/main_memory.hpp"

namespace wfasic::drv {

/// One alignment's reassembled backtrace data.
struct BtAlignment {
  std::uint32_t id = 0;
  bool success = false;
  std::uint16_t score = 0;
  std::int16_t k_reached = 0;
  /// Concatenated 10-byte transaction payloads in counter order (the
  /// score-record transaction excluded).
  std::vector<std::uint8_t> payload;
};

/// Tolerant stream scan: it never aborts. It reads at most `max_bytes`
/// (bound it by the beats the DMA actually wrote), stops once `num_pairs`
/// Last flags (and, with `crc`, their footers) have been seen, drops
/// alignments whose transactions are inconsistent, and reports what it
/// saw. Alignments come in stream order — the order their Last beat (with
/// `crc`, their footer) arrived — so callers index them by `id`.
struct BtStreamScan {
  std::vector<BtAlignment> alignments;  ///< complete, internally consistent
  bool clean = true;  ///< false: counter gaps, truncation, or dropped data
  /// The first anomaly that made the scan unclean (nullptr while clean).
  const char* why = nullptr;
  /// A transaction arrived while another alignment was still open: the
  /// stream needs the data-separation method.
  bool interleaved = false;
  std::uint64_t beats_read = 0;  ///< 16-byte beats read, footers included
};
/// With `crc`, an alignment is only accepted once a footer transaction
/// carrying the matching salted CRC-32 over all its beats has been seen —
/// write-path corruption and dropped beats (including stale beats of an
/// earlier launch, defeated by the per-launch salt) are then rejected here
/// instead of escaping as silently wrong CIGARs.
[[nodiscard]] BtStreamScan try_parse_bt_stream(const mem::MainMemory& memory,
                                               std::uint64_t out_addr,
                                               std::uint64_t max_bytes,
                                               std::size_t num_pairs,
                                               bool crc = false,
                                               std::uint32_t crc_salt = 0);

/// The strict checks on a scan's verdict, and the CPU cost of the parse.
/// Any anomaly — counter gap, missing or failing CRC footer, truncation —
/// aborts with the scan's first anomaly. Returns the alignments in stream
/// order.
///
/// `separate_data == false` is the single-Aligner method and *requires* a
/// non-interleaved stream (aborts otherwise); `true` is the multi-Aligner
/// method. The CPU cost of either method is charged to `counters`.
[[nodiscard]] std::vector<BtAlignment> accept_bt_scan(
    BtStreamScan scan, bool separate_data,
    cpu::BtCpuCounters* counters = nullptr);

/// Strict parse of the stream at `out_addr`: try_parse_bt_stream bounded
/// only by the memory size, then accept_bt_scan.
[[nodiscard]] std::vector<BtAlignment> parse_bt_stream(
    const mem::MainMemory& memory, std::uint64_t out_addr,
    std::size_t num_pairs, bool separate_data,
    cpu::BtCpuCounters* counters = nullptr, bool crc = false,
    std::uint32_t crc_salt = 0);

/// Rebuilds the full alignment (score + CIGAR) of (a, b) from backtrace
/// data, replaying the wavefront geometry to locate each cell's origin
/// bits and inserting matches by traversing the sequences. Strict:
/// try_reconstruct_alignment plus a check that it succeeded.
[[nodiscard]] core::AlignResult reconstruct_alignment(
    const BtAlignment& bt, std::string_view a, std::string_view b,
    const hw::AcceleratorConfig& cfg, cpu::BtCpuCounters* counters = nullptr);

/// Non-aborting variant for the engine's resilient path: returns std::nullopt
/// (with the failing check's message in *why, if given) when the backtrace
/// data is inconsistent with the sequences or the wavefront geometry. The
/// deep self-checks double as corruption detectors: a stream damaged in
/// flight is rejected here instead of killing the process.
[[nodiscard]] std::optional<core::AlignResult> try_reconstruct_alignment(
    const BtAlignment& bt, std::string_view a, std::string_view b,
    const hw::AcceleratorConfig& cfg, const char** why = nullptr,
    cpu::BtCpuCounters* counters = nullptr);

}  // namespace wfasic::drv

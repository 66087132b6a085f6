// Request-level types of the alignment service (svc/service.hpp).
//
// The service speaks in individual pair requests, not batches: a client
// submits one pair at a time into a tenant lane and harvests completions
// out of order. Everything here is expressed in *modeled* cycles — the
// service's deterministic virtual clock (AlignService::now), which
// advances one engine scheduling quantum (engine.device.poll_quantum) per
// pump — so admission decisions, deadlines, sheds and latency percentiles
// replay bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/align_result.hpp"
#include "engine/metrics.hpp"

namespace wfasic::svc {

using RequestId = std::uint64_t;

/// Admission verdict of one submit() call.
enum class Admission : std::uint8_t {
  kAccepted,     ///< queued; a completion will eventually be harvestable
  kWouldBlock,   ///< lane admission queue full — explicit backpressure;
                 ///< retry after pumping/harvesting frees queue space
  kRejected,     ///< load-shedding by policy (DegradeMode::kRejectNew
                 ///< while the service is degraded)
  kShedExpired,  ///< deadline already past at admission; shed without
                 ///< queueing (a kShed completion is emitted)
};

struct SubmitResult {
  Admission admission = Admission::kAccepted;
  RequestId id = 0;  ///< 0 unless the request was accepted or shed

  [[nodiscard]] bool accepted() const {
    return admission == Admission::kAccepted;
  }
};

/// Terminal state of one request. Every accepted (or shed-at-admission)
/// request produces exactly one completion — hedged duplicates are
/// suppressed inside the service.
enum class RequestOutcome : std::uint8_t {
  kOk,            ///< aligned within its deadline
  kDeadlineMiss,  ///< aligned, but past its deadline (result still valid)
  kShed,          ///< dropped before producing a result (deadline passed
                  ///< while queued or in flight); no alignment attached
};

struct ServiceCompletion {
  RequestId id = 0;
  unsigned lane = 0;
  RequestOutcome outcome = RequestOutcome::kOk;
  /// Valid for kOk and kDeadlineMiss; default-constructed for kShed.
  core::AlignResult result;
  std::uint64_t arrival_cycle = 0;   ///< service clock at admission
  std::uint64_t complete_cycle = 0;  ///< service clock at resolution
  std::uint64_t deadline = 0;        ///< absolute deadline (0 = none)
  bool software = false;  ///< resolved by the SwBackend
  bool hedged = false;    ///< resolved by a hedge/retry attempt

  [[nodiscard]] std::uint64_t latency() const {
    return complete_cycle - arrival_cycle;
  }
};

/// What the service does when the hardware fleet degrades (every device
/// quarantined or retired).
enum class DegradeMode : std::uint8_t {
  /// Turn away new submissions (Admission::kRejected) while the fleet is
  /// unusable; already-admitted work still drains through the software
  /// backend so the service never wedges.
  kRejectNew,
  /// Keep admitting and route shards onto the software backend — lower
  /// throughput, no rejected clients.
  kDegradeToSoftware,
};

/// One tenant lane: its fair-share weight, admission bound and deadline
/// defaults.
struct LaneConfig {
  std::string name = "default";
  /// Weighted-fair share relative to the other lanes (scheduler.hpp).
  unsigned weight = 1;
  /// Bounded admission queue: submit() returns kWouldBlock beyond this.
  std::size_t queue_capacity = 256;
  /// Deadline assigned to requests submitted without one, as a span from
  /// admission (0 = no deadline).
  std::uint64_t default_deadline_cycles = 0;
  /// Request full CIGARs (otherwise score-only, the cheap service mode).
  bool backtrace = false;
};

/// Straggler mitigation: when a dispatched shard overstays its estimated
/// service time, a copy is hedged onto another healthy device (or the
/// software backend); the first completion wins and the loser's results
/// are suppressed.
struct HedgeConfig {
  bool enabled = true;
  /// Hedge once a shard's in-flight span exceeds
  /// max(min_cycles, latency_factor * estimated shard cycles).
  double latency_factor = 4.0;
  std::uint64_t min_cycles = 250'000;
  /// Shard service-time estimate: cycles per base of the longer sequence,
  /// summed over the shard's pairs.
  double est_cycles_per_base = 8.0;
  /// Total attempts a shard gets (primary + hedges + retries) before its
  /// unresolved requests go to the software backend terminally.
  unsigned max_attempts = 3;
};

/// Deadline-driven preemption: when a deadline-critical request is stuck
/// behind a long-running shard and no usable device is free, the service
/// checkpoint-evicts the long run off its device (engine::Engine::preempt
/// — the run parks losslessly at its eviction snapshot), lets the urgent
/// shard take the device, and resumes the parked run once the urgent
/// pressure clears. At most one eviction per pump round, so churn stays
/// bounded and deterministic.
struct PreemptConfig {
  bool enabled = false;
  /// A request counts as urgent while its deadline lies within this many
  /// cycles of the service clock.
  std::uint64_t urgent_span = 50'000;
  /// Only shards in flight at least this long are eviction candidates —
  /// a run about to finish frees its device cheaper than a checkpoint.
  std::uint64_t min_runtime = 10'000;
};

/// Per-tenant accounting, attributed at completion time. Deterministic:
/// derived from modeled cycle samples only.
struct LaneStats {
  std::uint64_t submitted = 0;    ///< submit() calls
  std::uint64_t accepted = 0;     ///< admitted into the lane queue
  std::uint64_t would_block = 0;  ///< backpressured (queue full)
  std::uint64_t rejected = 0;     ///< policy rejections (kRejectNew)
  std::uint64_t shed = 0;         ///< kShed completions (incl. admission)
  std::uint64_t completed_ok = 0;
  std::uint64_t deadline_miss = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;  ///< completions resolved by a hedge
  std::uint64_t retries = 0;     ///< relaunches after a failed attempt
  std::uint64_t sw_resolved = 0; ///< requests resolved by the SwBackend
  /// Device/software cycles consumed by the shards that resolved this
  /// lane's requests — the lane's share of the fleet's PMU busy time.
  std::uint64_t device_cycles = 0;
  std::uint64_t sw_cycles = 0;
  engine::Log2Histogram latency;  ///< kOk + kDeadlineMiss, modeled cycles
  std::size_t queue_high_water = 0;
};

/// Service-wide accounting.
struct ServiceStats {
  std::vector<LaneStats> lanes;
  std::uint64_t shards_dispatched = 0;
  std::uint64_t shard_attempts = 0;  ///< primaries + hedges + retries
  std::uint64_t shards_failed = 0;   ///< attempts that came back failed
  std::uint64_t hedges_launched = 0;
  std::uint64_t duplicates_suppressed = 0;  ///< losing-attempt completions
  std::uint64_t cancels_attempted = 0;
  std::uint64_t cancels_succeeded = 0;
  std::uint64_t sw_shards = 0;  ///< attempts placed on the SwBackend
  std::uint64_t preemptions = 0;  ///< shards checkpoint-evicted for urgency
  std::uint64_t resumes = 0;      ///< parked shards re-dispatched
  std::size_t inflight_high_water = 0;  ///< unresolved shards
};

}  // namespace wfasic::svc

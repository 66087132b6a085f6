// The three benchmark workloads (see perfbench/README.md for why each was
// chosen and which layer metric should move on which workload).
//
// Everything here drives the simulator from the outside: inputs come from
// the workload seed, every layer is reached through its public functions,
// host time is taken with steady_clock around those calls, and modeled
// figures are read from the counters the layers already expose.
#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "asic/area_model.hpp"
#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "drv/backtrace_cpu.hpp"
#include "drv/driver.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "stats.hpp"
#include "svc/service.hpp"
#include "svc/trace_io.hpp"

namespace perfbench {
namespace {

using namespace wfasic;
using Clock = std::chrono::steady_clock;

/// Repetitions every run makes, however short its window: medians need a
/// few samples, and the first repetition is also the one that is checked.
constexpr unsigned kMinReps = 3;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<double>(ns_between(from, to)) * 1e-9;
}

/// Calls rep(i) until `seconds` of host time have passed, and at least
/// kMinReps times. Returns the number of repetitions.
unsigned repeat_for(double seconds, const std::function<void(unsigned)>& rep) {
  const Clock::time_point start = Clock::now();
  unsigned n = 0;
  while (n < kMinReps ||
         seconds_between(start, Clock::now()) < seconds) {
    rep(n++);
  }
  return n;
}

/// Peak resident memory of this process image. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the peak of the process
/// that exec'd this one (the benchmark's Python wrapper).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Equivalent SWG DP cells of one pair (§5.5 counts GCUPS this way).
std::uint64_t cells_of(const std::string& a, const std::string& b) {
  return static_cast<std::uint64_t>(a.size() + 1) *
         static_cast<std::uint64_t>(b.size() + 1);
}

double frequency_ghz(const hw::AcceleratorConfig& accel) {
  return asic::estimate(accel).frequency_ghz;
}

// --- Table 1 -----------------------------------------------------------------

/// One row of the paper's Table 1 (FPGA prototype, mean alignment cycles
/// per pair, score-only).
struct Table1Row {
  std::size_t length;
  double error_rate;
  double paper_align_cycles;
};
constexpr Table1Row k10K5{10'000, 0.05, 278'083};
constexpr Table1Row k1K10{1'000, 0.10, 8'461};

/// sim_paper_err is taken on a calibration set drawn from this fixed seed,
/// not the run seed: it should move when the model moves, not with the
/// sampling noise of a run's inputs.
constexpr std::uint64_t kCalibrationSeed = 2023;

engine::EngineConfig engine_config(unsigned devices) {
  engine::EngineConfig cfg;
  cfg.num_devices = devices;
  // Sized to the workloads (the default is 256 MB per device).
  cfg.device.memory_bytes = 64ull << 20;
  cfg.device.out_addr = 16ull << 20;
  return cfg;
}

/// |mean modeled align cycles - paper| / paper, measured the Table 1 way:
/// score-only on one device.
double paper_error(const Table1Row& row, std::size_t pairs) {
  const auto set = gen::generate_input_set(
      {row.length, row.error_rate, pairs, kCalibrationSeed});
  engine::Engine eng(engine_config(1));
  const engine::BatchResult r =
      eng.run_dataset(set, set.size(), /*backtrace=*/false, false);
  double mean = 0;
  for (const auto& rec : r.records) {
    mean += static_cast<double>(rec.align_cycles);
  }
  mean /= static_cast<double>(r.records.size());
  return std::abs(mean - row.paper_align_cycles) / row.paper_align_cycles;
}

// --- Device counters -----------------------------------------------------------

/// The counters of one simulated device readable from outside it: the
/// monotone PMU counters summed from the components' public accessors
/// (the FIFO occupancy integrals are only exposed per run), the full PMU
/// bank of the device's last run, and the kernel dispatch statistics.
struct DeviceBank {
  hw::PerfSnapshot cumulative;
  hw::PerfSnapshot last_run;
  std::uint64_t ticks = 0;
  std::uint64_t macro_dispatches = 0;
  std::uint64_t macro_cycles = 0;
  std::uint64_t now = 0;

  bool operator==(const DeviceBank&) const = default;
};

DeviceBank read_bank(const hw::Accelerator& acc) {
  DeviceBank bank;
  hw::PerfSnapshot& c = bank.cumulative;
  c.extractor_pairs_accepted = acc.extractor().pairs_accepted();
  c.extractor_pairs_rejected = acc.extractor().pairs_rejected();
  c.extractor_wait_cycles = acc.extractor().total_wait_cycles();
  for (const auto& aligner : acc.aligners()) {
    c.extend_invocations += aligner->extend_invocations();
    c.extend_matched_bases += aligner->extend_matched_bases();
    c.aligner_wavefront_steps += aligner->wavefront_steps();
    c.aligner_busy_cycles += aligner->busy_cycles();
    c.aligner_stall_cycles += aligner->output_stall_cycles();
  }
  c.dma_beats_read = acc.dma().beats_read();
  c.dma_beats_written = acc.dma().beats_written();
  c.dma_stall_fifo_full = acc.dma().read_stalls_fifo_full();
  c.dma_stall_port_busy = acc.dma().read_stalls_port_busy();
  bank.last_run = acc.perf_counters();
  bank.ticks = acc.dispatch_stats().ticks;
  bank.macro_dispatches = acc.dispatch_stats().macro_dispatches;
  bank.macro_cycles = acc.dispatch_stats().macro_cycles;
  bank.now = acc.now();
  return bank;
}

std::vector<DeviceBank> read_banks(engine::Engine& eng) {
  std::vector<DeviceBank> banks;
  for (unsigned d = 0; d < eng.num_devices(); ++d) {
    banks.push_back(read_bank(eng.device(d).accelerator()));
  }
  return banks;
}

/// Adds one run's PMU bank into a total: counts add, high-water marks and
/// register mirrors take the maximum.
void accumulate(hw::PerfSnapshot& total, const hw::PerfSnapshot& run) {
  for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
    const auto idx = static_cast<hw::PerfIdx>(i);
    total.set_counter(idx, hw::PerfSnapshot::is_absolute(idx)
                               ? std::max(total.counter(idx), run.counter(idx))
                               : total.counter(idx) + run.counter(idx));
  }
}

/// The monotone counters DeviceBank::cumulative carries; the others are
/// per-run readings, host diagnostics or register mirrors.
bool in_cumulative(hw::PerfIdx idx) {
  switch (idx) {
    case hw::PerfIdx::kInputFifoOccupancyCycles:
    case hw::PerfIdx::kOutputFifoOccupancyCycles:
    case hw::PerfIdx::kHostIdleSkippedCycles:
      return false;
    default:
      return !hw::PerfSnapshot::is_absolute(idx);
  }
}

// --- Output checks ---------------------------------------------------------------

/// The banded software reference: core::wfa limited to the hardware's
/// diagonal band and Eq.-6 score cap, so a pair the chip cannot align is
/// expected to fail, not to score.
core::WfaAligner banded_reference(const hw::AcceleratorConfig& accel) {
  core::WfaConfig cfg;
  cfg.pen = accel.pen;
  cfg.traceback = core::Traceback::kDisabled;
  cfg.k_max = accel.k_max;
  cfg.max_score = accel.score_max();
  return core::WfaAligner(cfg);
}

/// Checks one alignment against its reference result. A pair the
/// hardware reports as not ok while the reference also fails is a typed
/// failure (counted, not wrong); anything else that disagrees is wrong.
void check_alignment(const core::AlignResult& got,
                     const core::AlignResult& ref, const std::string& a,
                     const std::string& b, bool backtrace,
                     const Penalties& pen, const std::string& what,
                     Report& report, std::uint64_t& typed_failures) {
  if (!got.ok) {
    ++typed_failures;
    if (ref.ok) report.fail(what + ": not ok, but the reference aligns it");
    return;
  }
  if (!ref.ok || got.score != ref.score) {
    report.fail(what + ": score " + std::to_string(got.score) +
                " differs from the banded reference " +
                (ref.ok ? std::to_string(ref.score) : std::string("(fail)")));
    return;
  }
  if (backtrace) {
    if (!got.cigar.is_valid_for(a, b)) {
      report.fail(what + ": CIGAR is not a valid alignment of the pair");
    } else if (got.cigar.score(pen) != got.score) {
      report.fail(what + ": CIGAR re-scores to " +
                  std::to_string(got.cigar.score(pen)) + ", not " +
                  std::to_string(got.score));
    }
  }
}

bool same_alignment(const core::AlignResult& x, const core::AlignResult& y) {
  return x.ok == y.ok && x.score == y.score && x.cigar == y.cigar;
}

/// Every modeled field of a run_dataset result.
bool same_modeled(const engine::BatchResult& x, const engine::BatchResult& y) {
  if (x.accel_cycles != y.accel_cycles || x.cpu_bt_cycles != y.cpu_bt_cycles ||
      x.encode_cycles != y.encode_cycles ||
      x.pipeline_cycles != y.pipeline_cycles ||
      x.output_stall_cycles != y.output_stall_cycles ||
      x.phase.extend != y.phase.extend || x.phase.compute != y.phase.compute ||
      x.phase.overhead != y.phase.overhead ||
      x.bt_counters.blocks_scanned != y.bt_counters.blocks_scanned ||
      x.bt_counters.blocks_copied != y.bt_counters.blocks_copied ||
      x.bt_counters.path_steps != y.bt_counters.path_steps ||
      x.bt_counters.match_chars != y.bt_counters.match_chars ||
      x.records.size() != y.records.size() ||
      x.read_records.size() != y.read_records.size() ||
      x.alignments.size() != y.alignments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < x.records.size(); ++i) {
    const auto& p = x.records[i];
    const auto& q = y.records[i];
    if (p.id != q.id || p.success != q.success || p.score != q.score ||
        p.align_cycles != q.align_cycles) {
      return false;
    }
  }
  for (std::size_t i = 0; i < x.read_records.size(); ++i) {
    const auto& p = x.read_records[i];
    const auto& q = y.read_records[i];
    if (p.id != q.id || p.reading_cycles != q.reading_cycles ||
        p.beats != q.beats ||
        p.wait_for_aligner_cycles != q.wait_for_aligner_cycles) {
      return false;
    }
  }
  for (std::size_t i = 0; i < x.alignments.size(); ++i) {
    if (!same_alignment(x.alignments[i], y.alignments[i])) return false;
  }
  return true;
}

// --- The layer ladder (traced runs) --------------------------------------------------

/// Host time of one pass over the ladder levels, in ns. Level 6 (the
/// service) exists only on the service workload.
struct LadderTimes {
  std::uint64_t core = 0;    ///< 1: core::WfaAligner on every pair
  std::uint64_t encode = 0;  ///< 2: drv::encode_input_set per batch
  std::uint64_t device = 0;  ///< 3: Driver::start + wait_idle per batch
  std::uint64_t decode = 0;  ///< 4: the drv decode functions per batch
  std::uint64_t engine = 0;  ///< 5: the engine on the same batches
  std::uint64_t service = 0;       ///< 6: AlignService, traced
  std::uint64_t top_untraced = 0;  ///< the top level without tracing
  std::uint64_t svc_pump = 0;      ///< level 6 time inside pump()
  std::uint64_t svc_submit = 0;    ///< level 6 time inside submit()
};

/// What levels 3 and 4 produced: the device's modeled cycles, the summed
/// PMU banks of every run, kernel dispatch statistics and the decoded
/// alignments in batch order.
struct DeviceLevel {
  std::uint64_t cycles = 0;
  hw::PerfSnapshot pmu;
  std::uint64_t ticks = 0;
  std::uint64_t macro_dispatches = 0;
  std::uint64_t macro_cycles = 0;
  cpu::BtCpuCounters bt;
  std::vector<core::AlignResult> decoded;
};

using Batch = std::vector<gen::SequencePair>;  ///< launch-local ids 0..n-1

std::vector<Batch> chunk(const std::vector<gen::SequencePair>& pairs,
                         std::size_t batch_pairs) {
  std::vector<Batch> batches;
  for (std::size_t base = 0; base < pairs.size(); base += batch_pairs) {
    Batch batch(pairs.begin() + static_cast<std::ptrdiff_t>(base),
                pairs.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(pairs.size(), base + batch_pairs)));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].id = static_cast<std::uint32_t>(i);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Level 1: the software aligner the SwBackend runs, on every pair.
std::uint64_t time_core(const std::vector<Batch>& batches, bool backtrace,
                        const Penalties& pen) {
  core::WfaConfig cfg;
  cfg.pen = pen;
  cfg.traceback =
      backtrace ? core::Traceback::kEnabled : core::Traceback::kDisabled;
  cfg.extend = core::ExtendMode::kScalar;
  core::WfaAligner aligner(cfg);
  std::uint64_t ns = 0;
  for (const Batch& batch : batches) {
    for (const auto& pair : batch) {
      const Clock::time_point t0 = Clock::now();
      const core::AlignResult r = aligner.align(pair.a, pair.b);
      ns += ns_between(t0, Clock::now());
      if (!r.ok) throw std::runtime_error("core::WfaAligner failed a pair");
    }
  }
  return ns;
}

/// Levels 2-4 on one device driven directly through drv.
DeviceLevel run_device_levels(const std::vector<Batch>& batches,
                              const engine::HwBackendConfig& dev,
                              bool backtrace, LadderTimes& times) {
  mem::MainMemory memory(dev.memory_bytes);
  hw::Accelerator acc(dev.accel, memory);
  // The device resets with its watchdog armed, which forces exact
  // stepping; program it the way the engine's backend does.
  acc.write_reg(hw::kRegWatchdog, dev.watchdog);
  drv::Driver driver(acc);
  DeviceLevel out;
  for (const Batch& batch : batches) {
    const Clock::time_point t0 = Clock::now();
    const drv::BatchLayout layout =
        drv::encode_input_set(memory, batch, dev.in_addr, dev.out_addr);
    const Clock::time_point t1 = Clock::now();
    driver.start(layout, backtrace);
    const drv::RunStatus status = driver.wait_idle(dev.launch_cycle_budget);
    const Clock::time_point t2 = Clock::now();
    std::vector<core::AlignResult> decoded(batch.size());
    if (backtrace) {
      const auto parsed = drv::parse_bt_stream(memory, layout.out_addr,
                                               layout.num_pairs, false,
                                               &out.bt);
      for (const drv::BtAlignment& bt : parsed) {
        decoded.at(bt.id) = drv::reconstruct_alignment(
            bt, batch[bt.id].a, batch[bt.id].b, dev.accel, &out.bt);
      }
    } else {
      for (const hw::NbtResult& r :
           drv::decode_nbt_results_sorted(memory, layout)) {
        decoded.at(r.id).ok = r.success;
        decoded.at(r.id).score = static_cast<score_t>(r.score);
      }
    }
    const Clock::time_point t3 = Clock::now();
    times.encode += ns_between(t0, t1);
    times.device += ns_between(t1, t2);
    times.decode += ns_between(t2, t3);
    if (!status.completed()) {
      throw std::runtime_error("device run did not complete");
    }
    out.cycles += status.cycles;
    accumulate(out.pmu, status.perf);
    out.decoded.insert(out.decoded.end(), decoded.begin(), decoded.end());
  }
  out.ticks = acc.dispatch_stats().ticks;
  out.macro_dispatches = acc.dispatch_stats().macro_dispatches;
  out.macro_cycles = acc.dispatch_stats().macro_cycles;
  return out;
}

/// Medians of the ladder repetitions, level by level.
LadderTimes median_times(const std::vector<LadderTimes>& reps) {
  const auto med = [&](std::uint64_t LadderTimes::*field) {
    std::vector<double> v;
    for (const LadderTimes& r : reps) v.push_back(static_cast<double>(r.*field));
    return static_cast<std::uint64_t>(std::llround(median(v)));
  };
  LadderTimes m;
  for (const auto field :
       {&LadderTimes::core, &LadderTimes::encode, &LadderTimes::device,
        &LadderTimes::decode, &LadderTimes::engine, &LadderTimes::service,
        &LadderTimes::top_untraced, &LadderTimes::svc_pump,
        &LadderTimes::svc_submit}) {
    m.*field = med(field);
  }
  return m;
}

double per(double num, double den) { return den == 0 ? 0 : num / den; }

/// Modeled engine figures a traced run reports.
struct EngineLevel {
  std::uint64_t encode = 0;
  std::uint64_t accel = 0;
  std::uint64_t decode = 0;
  std::uint64_t bt = 0;  ///< the modeled CPU backtrace part of decode
  hw::Aligner::PhaseCycles phase;  ///< where the Aligners' cycles went
  std::uint64_t makespan = 0;
  /// Modeled span the device utilization is taken over: the makespan of a
  /// batch workload, the final service clock of the service workload.
  std::uint64_t span = 0;
  engine::EngineMetrics metrics;
  std::vector<DeviceBank> banks;
};

/// The per-layer metrics every traced run reports. Layers a workload does
/// not exercise report 0 (the svc metrics outside svc_mix, the BT
/// counters on score-only runs).
void add_layer_metrics(Report& rep, std::size_t pairs, std::uint64_t cells,
                       const LadderTimes& t, const DeviceLevel& dev,
                       const EngineLevel& eng, bool has_service) {
  const double n = static_cast<double>(pairs);
  rep.add("core.host_ns_per_pair", per(static_cast<double>(t.core), n), "ns");
  rep.add("core.host_mcups",
          per(static_cast<double>(cells) * 1e3, static_cast<double>(t.core)),
          "MCUPS");
  rep.add("drv.encode_host_ns_per_pair", per(static_cast<double>(t.encode), n),
          "ns");
  rep.add("drv.decode_host_ns_per_pair", per(static_cast<double>(t.decode), n),
          "ns");
  rep.add("drv.sim_bt_cycles", static_cast<double>(eng.bt), "cycles", true);
  rep.add("drv.bt_blocks_scanned", static_cast<double>(dev.bt.blocks_scanned),
          "count", true);
  rep.add("drv.bt_path_steps", static_cast<double>(dev.bt.path_steps), "count",
          true);

  const hw::PerfSnapshot& pmu = dev.pmu;
  const auto dev_ns = static_cast<double>(t.device);
  rep.add("hw.host_ns_per_sim_cycle",
          per(dev_ns, static_cast<double>(dev.cycles)), "ns");
  rep.add("hw.host_ns_per_wavefront_step",
          per(dev_ns, static_cast<double>(pmu.aligner_wavefront_steps)), "ns");
  rep.add("hw.host_ns_per_extend_call",
          per(dev_ns, static_cast<double>(pmu.extend_invocations)), "ns");
  rep.add("hw.sim_extend_cycles", static_cast<double>(eng.phase.extend),
          "cycles", true);
  rep.add("hw.sim_compute_cycles", static_cast<double>(eng.phase.compute),
          "cycles", true);
  rep.add("hw.sim_overhead_cycles", static_cast<double>(eng.phase.overhead),
          "cycles", true);
  const auto pmu_metric = [&](const char* name, std::uint64_t v,
                              const char* unit) {
    rep.add(std::string("hw.pmu_") + name, static_cast<double>(v), unit, true);
  };
  pmu_metric("wavefront_steps", pmu.aligner_wavefront_steps, "count");
  pmu_metric("extend_invocations", pmu.extend_invocations, "count");
  pmu_metric("extend_matched_bases", pmu.extend_matched_bases, "count");
  pmu_metric("aligner_busy_cycles", pmu.aligner_busy_cycles, "cycles");
  pmu_metric("aligner_stall_cycles", pmu.aligner_stall_cycles, "cycles");
  pmu_metric("extractor_wait_cycles", pmu.extractor_wait_cycles, "cycles");
  pmu_metric("input_fifo_high_water", pmu.input_fifo_high_water, "count");
  pmu_metric("output_fifo_high_water", pmu.output_fifo_high_water, "count");

  const std::uint64_t dispatches = dev.ticks + dev.macro_dispatches;
  rep.add("sim.ticks", static_cast<double>(dev.ticks), "count", true);
  rep.add("sim.macro_dispatches", static_cast<double>(dev.macro_dispatches),
          "count", true);
  rep.add("sim.macro_cycles", static_cast<double>(dev.macro_cycles), "cycles",
          true);
  rep.add("sim.cycles_per_dispatch",
          per(static_cast<double>(dev.cycles), static_cast<double>(dispatches)),
          "cycles", true);
  rep.add("sim.host_ns_per_dispatch",
          per(dev_ns, static_cast<double>(dispatches)), "ns");

  rep.add("mem.dma_beats_read", static_cast<double>(pmu.dma_beats_read),
          "count", true);
  rep.add("mem.dma_beats_written", static_cast<double>(pmu.dma_beats_written),
          "count", true);
  rep.add("mem.dma_stall_fifo_full", static_cast<double>(pmu.dma_stall_fifo_full),
          "cycles", true);
  rep.add("mem.dma_stall_port_busy", static_cast<double>(pmu.dma_stall_port_busy),
          "cycles", true);

  rep.add("engine.sim_encode_cycles", static_cast<double>(eng.encode), "cycles",
          true);
  rep.add("engine.sim_accel_cycles", static_cast<double>(eng.accel), "cycles",
          true);
  rep.add("engine.sim_decode_cycles", static_cast<double>(eng.decode), "cycles",
          true);
  rep.add("engine.sim_makespan_cycles", static_cast<double>(eng.makespan),
          "cycles", true);
  rep.add("engine.cpu_busy_frac",
          per(static_cast<double>(eng.encode + eng.decode),
              static_cast<double>(eng.makespan)),
          "ratio", true);
  // Utilization over the modeled span the workload covers (the engine's
  // own figure divides by the cycles a device simulated, which excludes
  // the idle time it never had to simulate).
  std::size_t queue_high_water = 0;
  std::uint64_t failed_jobs = 0;
  for (unsigned d = 0; d < 4; ++d) {
    const bool present = d + 1 < eng.metrics.devices.size();
    rep.add("engine.dev" + std::to_string(d) + "_util",
            present ? per(static_cast<double>(eng.metrics.devices[d].busy_cycles),
                          static_cast<double>(eng.span))
                    : 0.0,
            "ratio", true);
  }
  for (const engine::DeviceMetrics& dm : eng.metrics.devices) {
    queue_high_water = std::max(queue_high_water, dm.queue_depth_high_water);
    failed_jobs += dm.jobs_failed;
  }
  rep.add("engine.queue_high_water", static_cast<double>(queue_high_water),
          "count", true);
  rep.add("engine.failed_jobs", static_cast<double>(failed_jobs), "count",
          true);

  // Self time: a level's wall time minus the levels it is built on.
  const double engine_self =
      static_cast<double>(t.engine) -
      static_cast<double>(t.encode + t.device + t.decode);
  const double service_self =
      has_service ? static_cast<double>(t.service) - static_cast<double>(t.engine)
                  : 0.0;
  rep.add("engine.host_self_ns", engine_self, "ns");
  rep.add("svc.host_self_ns", service_self, "ns");
  const double top_traced =
      static_cast<double>(has_service ? t.service : t.engine);
  const double overhead = top_traced - static_cast<double>(t.top_untraced);
  rep.add("trace.overhead_ns", overhead, "ns");
  rep.add("trace.overhead_frac",
          per(overhead, static_cast<double>(t.top_untraced)), "ratio");
  const int negative = (engine_self < 0 ? 1 : 0) + (service_self < 0 ? 1 : 0);
  if (engine_self < 0) {
    std::printf("# ladder: engine self time is negative (%.0f ns)\n",
                engine_self);
  }
  if (service_self < 0) {
    std::printf("# ladder: svc self time is negative (%.0f ns)\n",
                service_self);
  }
  rep.add("ladder.negative_self_levels", negative, "count");
  std::printf("# ladder medians (ns): core %llu, encode %llu, device %llu, "
              "decode %llu, engine %llu, service %llu, untraced top %llu\n",
              static_cast<unsigned long long>(t.core),
              static_cast<unsigned long long>(t.encode),
              static_cast<unsigned long long>(t.device),
              static_cast<unsigned long long>(t.decode),
              static_cast<unsigned long long>(t.engine),
              static_cast<unsigned long long>(t.service),
              static_cast<unsigned long long>(t.top_untraced));
}

/// Integrity of the device level against the engine level it underlies:
/// the same batches must take the same device cycles and produce the same
/// monotone PMU counts and the same decoded results.
void check_device_level(const DeviceLevel& dev, const EngineLevel& eng,
                        const std::vector<core::AlignResult>& engine_results,
                        Report& rep) {
  if (dev.cycles != eng.accel) {
    rep.fail("ladder: device-level cycles " + std::to_string(dev.cycles) +
             " differ from the engine's " + std::to_string(eng.accel));
  }
  hw::PerfSnapshot engine_pmu;
  for (const DeviceBank& bank : eng.banks) accumulate(engine_pmu, bank.cumulative);
  for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
    const auto idx = static_cast<hw::PerfIdx>(i);
    if (in_cumulative(idx) && dev.pmu.counter(idx) != engine_pmu.counter(idx)) {
      rep.fail(std::string("ladder: PMU counter ") + hw::perf_counter_name(idx) +
               " differs between the device and engine levels");
    }
  }
  if (dev.decoded.size() != engine_results.size()) {
    rep.fail("ladder: decode level returned a different pair count");
    return;
  }
  for (std::size_t i = 0; i < dev.decoded.size(); ++i) {
    if (!same_alignment(dev.decoded[i], engine_results[i])) {
      rep.fail("ladder: decoded pair " + std::to_string(i) +
               " differs from the engine's result");
      return;
    }
  }
}

/// The service-layer metrics, reported as 0 where there is no service.
constexpr std::pair<const char*, const char*> kServiceMetrics[] = {
    {"svc.host_pump_ns", "ns"},
    {"svc.host_submit_ns", "ns"},
    {"svc.pumps", "count"},
    {"svc.host_ns_per_pump", "ns"},
    {"svc.generator_lag_p99_cycles", "cycles"},
    {"svc.queue_wait_p99_cycles", "cycles"},
    {"svc.interactive_p99_cycles", "cycles"},
    {"svc.bulk_p99_cycles", "cycles"},
    {"svc.useful_attempt_ratio", "ratio"},
    {"svc.hedges_launched", "count"},
    {"svc.duplicates_suppressed", "count"},
};

// --- Batch workloads: nbt_long and bt_1k ---------------------------------------------

struct BatchSpec {
  Table1Row row;
  std::size_t pairs;
  std::size_t batch_pairs;
  unsigned devices;
  bool backtrace;
  std::size_t calibration_pairs;
};

/// Table 1's 10K-5% set, score-only, sharded over four devices.
constexpr BatchSpec kNbtLong{k10K5, 16, 2, 4, false, 4};
/// Table 1's 1K-10% set with backtrace on the paper's one-device SoC.
constexpr BatchSpec kBt1k{k1K10, 48, 8, 1, true, 16};

std::vector<gen::SequencePair> make_pairs(const BatchSpec& s,
                                          std::uint64_t seed) {
  return gen::generate_input_set(
      {s.row.length, s.row.error_rate, s.pairs, seed});
}

std::uint64_t cells_of(const std::vector<gen::SequencePair>& pairs) {
  std::uint64_t cells = 0;
  for (const auto& p : pairs) cells += cells_of(p.a, p.b);
  return cells;
}

/// Checks every alignment of a run_dataset result; returns the number of
/// typed failures (pairs reported not ok).
std::uint64_t check_batch(const BatchSpec& s,
                          const std::vector<gen::SequencePair>& pairs,
                          const engine::BatchResult& r,
                          const hw::AcceleratorConfig& accel, Report& rep) {
  if (r.alignments.size() != pairs.size()) {
    rep.fail("run_dataset returned " + std::to_string(r.alignments.size()) +
             " results for " + std::to_string(pairs.size()) + " pairs");
    return 0;
  }
  core::WfaAligner reference = banded_reference(accel);
  std::uint64_t typed = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    check_alignment(r.alignments[i], reference.align(pairs[i].a, pairs[i].b),
                    pairs[i].a, pairs[i].b, s.backtrace, accel.pen,
                    "pair " + std::to_string(i), rep, typed);
  }
  return typed;
}

std::uint64_t decode_cycles(const BatchSpec& s, const engine::BatchResult& r,
                            const engine::HwBackendConfig& dev) {
  if (s.backtrace) return r.cpu_bt_cycles;
  std::uint64_t cycles = 0;
  for (std::size_t base = 0; base < s.pairs; base += s.batch_pairs) {
    const std::size_t n = std::min(s.batch_pairs, s.pairs - base);
    cycles += static_cast<std::uint64_t>(std::llround(
        static_cast<double>(n) * dev.nbt_decode_cycles_per_pair));
  }
  return cycles;
}

Report run_batch_untraced(const BatchSpec& s, const Options& o) {
  Report rep;
  const engine::EngineConfig cfg = engine_config(s.devices);
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<gen::SequencePair> pairs;
  std::optional<engine::BatchResult> first;
  const unsigned reps = repeat_for(o.seconds, [&](unsigned) {
    const Clock::time_point t0 = Clock::now();
    pairs = make_pairs(s, o.seed);
    engine::Engine eng(cfg);
    const Clock::time_point t1 = Clock::now();
    engine::BatchResult r =
        eng.run_dataset(pairs, s.batch_pairs, s.backtrace, false);
    const Clock::time_point t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t1));
    run_s.push_back(seconds_between(t1, t2));
    if (!first.has_value()) {
      first = std::move(r);
    } else if (!same_modeled(*first, r)) {
      rep.fail("modeled results differ between repetitions of one seed");
    }
  });
  const double rss = peak_rss_mb();

  const std::uint64_t typed = check_batch(s, pairs, *first, cfg.device.accel, rep);
  rep.attempted = static_cast<std::uint64_t>(reps) * pairs.size();
  rep.failed = static_cast<std::uint64_t>(reps) * typed;

  const engine::BatchResult& r = *first;
  const std::uint64_t makespan = r.total_cycles();
  const double n = static_cast<double>(pairs.size());
  rep.add("setup_s", median(setup_s), "s");
  rep.add("host_pairs_per_s", n / median(run_s), "1/s");
  rep.add("host_peak_rss_mb", rss, "MB");
  rep.add("sim_gcups",
          asic::gcups(cells_of(pairs), makespan, frequency_ghz(cfg.device.accel)),
          "GCUPS", true);
  rep.add("sim_paper_err", paper_error(s.row, s.calibration_pairs), "ratio",
          true);
  // A batch job is one request: its latency is the dataset's makespan.
  rep.add("sim_latency_p50_cycles", static_cast<double>(makespan), "cycles",
          true);
  rep.add("sim_latency_p99_cycles", static_cast<double>(makespan), "cycles",
          true);
  rep.add("sim_slo_rate_rpmc", n * 1e6 / static_cast<double>(makespan),
          "req/Mcycle", true);
  std::printf("# %u repetitions of %zu pairs; latency samples: 1 (the "
              "dataset)\n",
              reps, pairs.size());
  return rep;
}

Report run_batch_traced(const BatchSpec& s, const Options& o) {
  Report rep;
  const engine::EngineConfig cfg = engine_config(s.devices);
  const std::vector<gen::SequencePair> pairs = make_pairs(s, o.seed);
  const std::vector<Batch> batches = chunk(pairs, s.batch_pairs);

  std::vector<LadderTimes> times;
  std::optional<engine::BatchResult> untraced;
  std::vector<DeviceBank> untraced_banks;
  std::optional<DeviceLevel> dev;
  EngineLevel eng_level;
  std::optional<engine::BatchResult> traced;
  repeat_for(o.seconds, [&](unsigned i) {
    LadderTimes t;
    {
      engine::Engine eng(cfg);
      const Clock::time_point t0 = Clock::now();
      engine::BatchResult r =
          eng.run_dataset(pairs, s.batch_pairs, s.backtrace, false);
      t.top_untraced = ns_between(t0, Clock::now());
      if (i == 0) {
        untraced = std::move(r);
        untraced_banks = read_banks(eng);
      }
    }
    t.core = time_core(batches, s.backtrace, cfg.device.accel.pen);
    DeviceLevel d = run_device_levels(batches, cfg.device, s.backtrace, t);
    engine::Engine eng(cfg);
    const Clock::time_point t0 = Clock::now();
    engine::BatchResult r =
        eng.run_dataset(pairs, s.batch_pairs, s.backtrace, false);
    t.engine = ns_between(t0, Clock::now());
    times.push_back(t);
    if (i == 0) {
      dev = std::move(d);
      eng_level.banks = read_banks(eng);
      eng_level.metrics = eng.metrics();
      traced = std::move(r);
    } else if (d.cycles != dev->cycles || !same_modeled(*traced, r)) {
      rep.fail("modeled results differ between ladder repetitions");
    }
  });

  // Traced-run integrity: the traced top level reproduces the untraced
  // run's modeled cycles and device counters exactly.
  if (!same_modeled(*untraced, *traced)) {
    rep.fail("traced run_dataset differs from the untraced run in modeled "
             "results");
  }
  if (untraced_banks != eng_level.banks) {
    rep.fail("traced run's device PMU banks differ from the untraced run's");
  }
  eng_level.encode = traced->encode_cycles;
  eng_level.accel = traced->accel_cycles;
  eng_level.decode = decode_cycles(s, *traced, cfg.device);
  eng_level.bt = traced->cpu_bt_cycles;
  eng_level.phase = traced->phase;
  eng_level.makespan = traced->total_cycles();
  eng_level.span = eng_level.makespan;
  check_device_level(*dev, eng_level, traced->alignments, rep);
  const std::uint64_t typed =
      check_batch(s, pairs, *traced, cfg.device.accel, rep);
  rep.attempted = times.size() * pairs.size();
  rep.failed = times.size() * typed;

  add_layer_metrics(rep, pairs.size(), cells_of(pairs), median_times(times),
                    *dev, eng_level, /*has_service=*/false);
  // The service layer is absent from the batch workloads.
  for (const auto& [name, unit] : kServiceMetrics) rep.add(name, 0, unit);
  return rep;
}

// --- svc_mix: the alignment service under open-loop arrivals -------------------------

enum SvcLane : unsigned { kInteractive = 0, kBulk = 1 };
constexpr std::size_t kInteractiveLen = 150;
constexpr std::size_t kBulkLen = 1'000;
constexpr double kBulkShare = 0.2;
constexpr double kSvcErrorRate = 0.08;
constexpr unsigned kSvcDevices = 2;
/// Requests per open-loop run: enough that p99 has ten samples beyond it.
constexpr std::size_t kSvcRequests = 3'000;
/// Deadline span of an interactive request, from its due cycle.
constexpr std::uint64_t kInteractiveDeadline = 500'000;
constexpr std::size_t kSvcCalibrationPairs = 16;

struct Request {
  unsigned lane = kInteractive;
  std::string a;
  std::string b;
  double unit_gap = 0;  ///< exponential inter-arrival gap with mean 1
};

struct SvcWorkload {
  std::vector<Request> reqs;
  std::uint64_t cells = 0;
};

/// The request mix is stratified: exactly kBulkShare of the requests are
/// bulk (at random positions), and the arrival gaps are rescaled to a
/// mean of exactly 1. The arrival process stays Poisson-shaped, but a
/// seed no longer changes the offered load, only its order and timing.
SvcWorkload make_svc_workload(std::uint64_t seed) {
  Prng seqs(seed);
  // A separate stream for arrival gaps, so the sequences do not depend
  // on how the gaps are drawn.
  Prng gaps(seed ^ 0x9e3779b97f4a7c15ULL);
  SvcWorkload w;
  w.reqs.resize(kSvcRequests);
  const auto bulk = static_cast<std::size_t>(
      std::llround(kBulkShare * static_cast<double>(kSvcRequests)));
  for (std::size_t i = 0; i < bulk; ++i) w.reqs[i].lane = kBulk;
  for (std::size_t i = w.reqs.size() - 1; i > 0; --i) {
    std::swap(w.reqs[i].lane, w.reqs[seqs.next_below(i + 1)].lane);
  }
  double gap_sum = 0;
  for (Request& r : w.reqs) {
    r.a = gen::random_sequence(seqs,
                               r.lane == kBulk ? kBulkLen : kInteractiveLen);
    r.b = gen::mutate_sequence(seqs, r.a, kSvcErrorRate);
    r.unit_gap = -std::log(1.0 - gaps.next_double());
    gap_sum += r.unit_gap;
    w.cells += cells_of(r.a, r.b);
  }
  for (Request& r : w.reqs) {
    r.unit_gap *= static_cast<double>(w.reqs.size()) / gap_sum;
  }
  return w;
}

/// Poisson arrival schedule at `rate_rpmc` requests per Mcycle.
std::vector<std::uint64_t> due_cycles(const SvcWorkload& w, double rate_rpmc) {
  const double mean_gap = 1e6 / rate_rpmc;
  std::vector<std::uint64_t> due;
  due.reserve(w.reqs.size());
  double t = 0;
  for (const Request& r : w.reqs) {
    t += r.unit_gap * mean_gap;
    due.push_back(static_cast<std::uint64_t>(std::ceil(t)));
  }
  return due;
}

svc::ServiceConfig svc_config(bool keep_all_trace) {
  svc::ServiceConfig cfg;
  cfg.engine = engine_config(kSvcDevices);
  cfg.engine.device.memory_bytes = 16ull << 20;
  cfg.engine.device.out_addr = 12ull << 20;
  cfg.max_batch_pairs = 4;
  cfg.lanes = {svc::LaneConfig{"interactive", 3, 256, 0, false},
               svc::LaneConfig{"bulk", 1, 256, 0, false}};
  cfg.trace.keep_all = keep_all_trace;
  return cfg;
}

/// One open-loop run: what was submitted, how it resolved, and (when
/// timed) the host time spent inside submit() and pump().
struct OpenLoop {
  std::vector<std::uint64_t> due;
  std::vector<svc::SubmitResult> verdicts;  ///< per request
  std::vector<std::uint64_t> admitted_at;   ///< service clock at submit
  std::vector<svc::ServiceCompletion> completions;
  std::uint64_t pumps = 0;
  std::uint64_t pump_ns = 0;
  std::uint64_t submit_ns = 0;
};

/// Drives `service` open-loop: every request is submitted as soon as the
/// service clock reaches its due cycle, whatever the backlog; idle gaps
/// are skipped with advance_to. Interactive deadlines count from the due
/// cycle, so a late generator cannot hide queueing.
template <bool kTimed>
OpenLoop run_open_loop(svc::AlignService& service, const SvcWorkload& w,
                       std::vector<std::uint64_t> due) {
  OpenLoop run;
  run.due = std::move(due);
  run.verdicts.reserve(w.reqs.size());
  run.admitted_at.reserve(w.reqs.size());
  std::size_t next = 0;
  while (next < w.reqs.size() || service.busy()) {
    while (next < w.reqs.size() && run.due[next] <= service.now()) {
      const Request& r = w.reqs[next];
      const std::uint64_t deadline =
          r.lane == kInteractive ? run.due[next] + kInteractiveDeadline : 0;
      run.admitted_at.push_back(service.now());
      if constexpr (kTimed) {
        const Clock::time_point t0 = Clock::now();
        run.verdicts.push_back(service.submit(r.lane, r.a, r.b, deadline));
        run.submit_ns += ns_between(t0, Clock::now());
      } else {
        run.verdicts.push_back(service.submit(r.lane, r.a, r.b, deadline));
      }
      ++next;
    }
    if (service.busy()) {
      if constexpr (kTimed) {
        const Clock::time_point t0 = Clock::now();
        service.pump();
        run.pump_ns += ns_between(t0, Clock::now());
      } else {
        service.pump();
      }
      ++run.pumps;
    } else {
      service.advance_to(run.due[next]);
    }
  }
  run.completions = service.harvest();
  return run;
}

/// What one open-loop run means to its users, with its output checks.
struct SvcOutcome {
  /// Per request, from its due cycle; refused or shed requests count as
  /// missing every limit (UINT64_MAX).
  std::vector<std::uint64_t> latency;
  std::vector<std::uint64_t> lane_latency[2];
  std::uint64_t typed_failures = 0;
  std::uint64_t cells_done = 0;
  std::uint64_t last_complete = 0;
};

SvcOutcome check_open_loop(const SvcWorkload& w, const OpenLoop& run,
                           const svc::ServiceStats& stats,
                           const std::vector<core::AlignResult>& reference,
                           const Penalties& pen, Report& rep) {
  constexpr std::uint64_t kMissing = ~std::uint64_t{0};
  SvcOutcome out;
  out.latency.assign(w.reqs.size(), kMissing);
  std::unordered_map<svc::RequestId, std::size_t> index_of;
  std::uint64_t admission_sheds[2] = {0, 0};
  for (std::size_t i = 0; i < run.verdicts.size(); ++i) {
    const svc::SubmitResult& v = run.verdicts[i];
    if (v.admission == svc::Admission::kShedExpired) {
      ++admission_sheds[w.reqs[i].lane];
    }
    if (v.id != 0) index_of.emplace(v.id, i);
  }
  std::vector<unsigned> resolved(w.reqs.size(), 0);
  std::uint64_t typed = 0;
  for (const svc::ServiceCompletion& c : run.completions) {
    const auto it = index_of.find(c.id);
    if (it == index_of.end()) {
      rep.fail("svc: completion for unknown request " + std::to_string(c.id));
      continue;
    }
    const std::size_t i = it->second;
    if (++resolved[i] != 1) {
      rep.fail("svc: request " + std::to_string(c.id) + " resolved twice");
      continue;
    }
    if (c.lane != w.reqs[i].lane) {
      rep.fail("svc: request " + std::to_string(c.id) + " changed lane");
    }
    if (c.outcome == svc::RequestOutcome::kShed) {
      ++typed;
      continue;
    }
    if (c.outcome == svc::RequestOutcome::kDeadlineMiss) ++typed;
    check_alignment(c.result, reference[i], w.reqs[i].a, w.reqs[i].b, false,
                    pen, "request " + std::to_string(c.id), rep, typed);
    out.latency[i] = c.complete_cycle - run.due[i];
    out.cells_done += cells_of(w.reqs[i].a, w.reqs[i].b);
    out.last_complete = std::max(out.last_complete, c.complete_cycle);
  }
  for (std::size_t i = 0; i < run.verdicts.size(); ++i) {
    const svc::SubmitResult& v = run.verdicts[i];
    if (v.id == 0) {
      ++typed;  // would-block or rejected
    } else if (resolved[i] != 1) {
      rep.fail("svc: accepted request " + std::to_string(v.id) +
               " never resolved");
    }
  }
  if (run.verdicts.size() != w.reqs.size()) {
    rep.fail("svc: not every request was submitted");
  }
  // Lane accounting identity: every submit is accounted once, and every
  // admitted or admission-shed request resolves exactly once.
  for (unsigned lane = 0; lane < 2; ++lane) {
    const svc::LaneStats& ls = stats.lanes.at(lane);
    if (ls.submitted != ls.accepted + ls.would_block + ls.rejected +
                            admission_sheds[lane] ||
        ls.completed_ok + ls.deadline_miss + ls.shed !=
            ls.accepted + admission_sheds[lane]) {
      rep.fail("svc: lane " + std::to_string(lane) +
               " accounting identity broke");
    }
  }
  for (std::size_t i = 0; i < w.reqs.size(); ++i) {
    out.lane_latency[w.reqs[i].lane].push_back(out.latency[i]);
  }
  out.typed_failures = typed;
  return out;
}

/// The reference result of every request (banded core::wfa).
std::vector<core::AlignResult> svc_reference(const SvcWorkload& w) {
  core::WfaAligner reference = banded_reference(svc_config(false).engine.device.accel);
  std::vector<core::AlignResult> out;
  out.reserve(w.reqs.size());
  for (const Request& r : w.reqs) out.push_back(reference.align(r.a, r.b));
  return out;
}

/// One rung of the SLO search: p99 within the limit with no shed, missed,
/// backpressured or rejected request.
bool rung_passes(const SvcWorkload& w, double rate, const SvcParams& p,
                 const std::vector<core::AlignResult>& reference,
                 Report& rep) {
  svc::AlignService service(svc_config(false));
  const OpenLoop run = run_open_loop<false>(service, w, due_cycles(w, rate));
  const SvcOutcome out = check_open_loop(
      w, run, service.stats(), reference,
      svc_config(false).engine.device.accel.pen, rep);
  std::vector<std::uint64_t> latency = out.latency;
  const Percentile p99 = tail_percentile(latency, 0.99);
  const bool pass = out.typed_failures == 0 && p99.value <= p.slo_cycles;
  std::printf("# slo ladder: %.0f req/Mcycle -> p99 %llu cycles, %llu typed "
              "failures: %s\n",
              rate, static_cast<unsigned long long>(p99.value),
              static_cast<unsigned long long>(out.typed_failures),
              pass ? "pass" : "fail");
  return pass;
}

bool same_completions(const std::vector<svc::ServiceCompletion>& x,
                      const std::vector<svc::ServiceCompletion>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto& p = x[i];
    const auto& q = y[i];
    if (p.id != q.id || p.lane != q.lane || p.outcome != q.outcome ||
        !same_alignment(p.result, q.result) ||
        p.arrival_cycle != q.arrival_cycle ||
        p.complete_cycle != q.complete_cycle || p.software != q.software ||
        p.hedged != q.hedged) {
      return false;
    }
  }
  return true;
}

Report run_svc_untraced(const Options& o) {
  Report rep;
  const std::vector<std::uint64_t> fixed_due =
      due_cycles(make_svc_workload(o.seed), o.svc.rate_rpmc);
  std::vector<double> setup_s;
  std::vector<double> run_s;
  SvcWorkload w;
  std::optional<OpenLoop> first;
  svc::ServiceStats first_stats;
  const unsigned reps = repeat_for(o.seconds, [&](unsigned) {
    const Clock::time_point t0 = Clock::now();
    w = make_svc_workload(o.seed);
    svc::AlignService service(svc_config(false));
    const Clock::time_point t1 = Clock::now();
    OpenLoop run = run_open_loop<false>(service, w, fixed_due);
    const Clock::time_point t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t1));
    run_s.push_back(seconds_between(t1, t2));
    if (!first.has_value()) {
      first = std::move(run);
      first_stats = service.stats();
    } else if (!same_completions(first->completions, run.completions)) {
      rep.fail("modeled results differ between repetitions of one seed");
    }
  });
  const double rss = peak_rss_mb();

  const std::vector<core::AlignResult> reference = svc_reference(w);
  const Penalties pen = svc_config(false).engine.device.accel.pen;
  const SvcOutcome out =
      check_open_loop(w, *first, first_stats, reference, pen, rep);
  rep.attempted = static_cast<std::uint64_t>(reps) * w.reqs.size();
  rep.failed = static_cast<std::uint64_t>(reps) * out.typed_failures;

  std::vector<std::uint64_t> latency = out.latency;
  const Percentile p50 = tail_percentile(latency, 0.50);
  const Percentile p99 = tail_percentile(latency, 0.99);
  if (!p99.exact()) {
    rep.fail("svc: too few latency samples for p99 (" +
             std::to_string(p99.samples) + ")");
  }
  const double slo_rate = slo_search(o.svc.ladder_rpmc, [&](double rate) {
    return rung_passes(w, rate, o.svc, reference, rep);
  });
  const double completed =
      static_cast<double>(first->completions.size());
  rep.add("setup_s", median(setup_s), "s");
  rep.add("host_pairs_per_s", completed / median(run_s), "1/s");
  rep.add("host_peak_rss_mb", rss, "MB");
  rep.add("sim_gcups",
          asic::gcups(out.cells_done, out.last_complete,
                      frequency_ghz(svc_config(false).engine.device.accel)),
          "GCUPS", true);
  rep.add("sim_paper_err", paper_error(k1K10, kSvcCalibrationPairs), "ratio",
          true);
  rep.add("sim_latency_p50_cycles", static_cast<double>(p50.value), "cycles",
          true);
  rep.add("sim_latency_p99_cycles", static_cast<double>(p99.value), "cycles",
          true);
  rep.add("sim_slo_rate_rpmc", slo_rate, "req/Mcycle", true);
  std::printf("# %u repetitions of %zu requests at %.1f req/Mcycle; latency "
              "samples: %zu; SLO p99 <= %llu cycles\n",
              reps, w.reqs.size(), o.svc.rate_rpmc, p99.samples,
              static_cast<unsigned long long>(o.svc.slo_cycles));
  return rep;
}

/// The shards the service formed, as launch-local batches, recovered from
/// its flight-recorder queue-wait spans (request -> shard).
std::vector<Batch> shards_from_trace(const svc::TraceDump& dump,
                                     const SvcWorkload& w,
                                     const OpenLoop& run) {
  std::unordered_map<svc::RequestId, std::size_t> index_of;
  for (std::size_t i = 0; i < run.verdicts.size(); ++i) {
    if (run.verdicts[i].id != 0) index_of.emplace(run.verdicts[i].id, i);
  }
  std::map<std::uint64_t, Batch> by_shard;
  for (const svc::RequestTraceEvent& ev : dump.events) {
    if (ev.kind != svc::TraceEventKind::kQueueWait) continue;
    const Request& r = w.reqs.at(index_of.at(ev.id));
    Batch& batch = by_shard[ev.aux0];
    batch.push_back(
        {static_cast<std::uint32_t>(batch.size()), r.a, r.b});
  }
  std::vector<Batch> batches;
  for (auto& [shard, batch] : by_shard) batches.push_back(std::move(batch));
  return batches;
}

Report run_svc_traced(const Options& o) {
  Report rep;
  const SvcWorkload w = make_svc_workload(o.seed);
  const std::vector<std::uint64_t> due = due_cycles(w, o.svc.rate_rpmc);
  const svc::ServiceConfig cfg = svc_config(false);

  std::vector<LadderTimes> times;
  std::optional<OpenLoop> untraced;
  svc::ServiceStats untraced_stats;
  std::vector<DeviceBank> untraced_banks;
  std::optional<OpenLoop> traced;
  svc::ServiceStats traced_stats;
  std::vector<DeviceBank> traced_banks;
  engine::EngineMetrics service_engine_metrics;
  std::uint64_t traced_now = 0;
  svc::TraceDump dump;
  std::vector<Batch> batches;
  std::optional<DeviceLevel> dev;
  EngineLevel eng_level;
  std::vector<core::AlignResult> engine_results;
  repeat_for(o.seconds, [&](unsigned i) {
    LadderTimes t;
    {
      svc::AlignService service(cfg);
      const Clock::time_point t0 = Clock::now();
      OpenLoop run = run_open_loop<false>(service, w, due);
      t.top_untraced = ns_between(t0, Clock::now());
      if (i == 0) {
        untraced = std::move(run);
        untraced_stats = service.stats();
        untraced_banks = read_banks(service.engine());
      }
    }
    {
      // Level 6: the service with every call timed and the flight
      // recorder keeping the full event stream.
      svc::AlignService service(svc_config(true));
      const Clock::time_point t0 = Clock::now();
      OpenLoop run = run_open_loop<true>(service, w, due);
      t.service = ns_between(t0, Clock::now());
      t.svc_pump = run.pump_ns;
      t.svc_submit = run.submit_ns;
      if (i == 0) {
        traced = std::move(run);
        traced_stats = service.stats();
        traced_banks = read_banks(service.engine());
        service_engine_metrics = service.engine().metrics();
        traced_now = service.now();
        dump = service.trace_dump();
        batches = shards_from_trace(dump, w, *traced);
      }
    }
    t.core = time_core(batches, false, cfg.engine.device.accel.pen);
    DeviceLevel d = run_device_levels(batches, cfg.engine.device, false, t);
    // Level 5: the engine's asynchronous surface on the same shards.
    engine::Engine eng(cfg.engine);
    std::vector<engine::JobHandle> handles;
    std::vector<unsigned> device_of;
    const Clock::time_point t0 = Clock::now();
    for (const Batch& batch : batches) {
      engine::BatchJob job;
      job.pairs = batch;
      handles.push_back(eng.submit(std::move(job)));
      device_of.push_back(eng.handle_device(handles.back()));
    }
    while (eng.poll()) {
    }
    std::vector<engine::Completion> done;
    for (const engine::JobHandle h : handles) {
      std::optional<engine::Completion> c = eng.try_collect(h);
      if (!c.has_value()) throw std::runtime_error("engine lost a shard");
      done.push_back(std::move(*c));
    }
    t.engine = ns_between(t0, Clock::now());
    times.push_back(t);
    if (i == 0) {
      dev = std::move(d);
      std::vector<engine::PhaseSample> samples;
      for (std::size_t j = 0; j < done.size(); ++j) {
        const engine::Completion& c = done[j];
        eng_level.encode += c.encode_cycles;
        eng_level.accel += c.accel_cycles;
        eng_level.decode += c.decode_cycles;
        eng_level.bt += c.result.cpu_bt_cycles;
        eng_level.phase.extend += c.result.phase.extend;
        eng_level.phase.compute += c.result.phase.compute;
        eng_level.phase.overhead += c.result.phase.overhead;
        samples.push_back({c.encode_cycles, c.accel_cycles, c.decode_cycles,
                           device_of[j]});
        engine_results.insert(engine_results.end(),
                              c.result.alignments.begin(),
                              c.result.alignments.end());
      }
      eng_level.makespan =
          engine::pipelined_makespan(samples, eng.num_devices());
      eng_level.banks = read_banks(eng);
      // Utilization and queue depth as the service's engine saw them.
      eng_level.metrics = service_engine_metrics;
      eng_level.span = traced_now;
    } else if (d.cycles != dev->cycles) {
      rep.fail("modeled results differ between ladder repetitions");
    }
  });

  // Traced-run integrity: the timed, fully recorded service reproduces
  // the untraced run's modeled results and device counters exactly.
  if (!same_completions(untraced->completions, traced->completions) ||
      untraced->pumps != traced->pumps) {
    rep.fail("traced service run differs from the untraced run in modeled "
             "results");
  }
  if (untraced_banks != traced_banks) {
    rep.fail("traced service run's device PMU banks differ from the "
             "untraced run's");
  }
  check_device_level(*dev, eng_level, engine_results, rep);
  std::string why;
  if (!svc::validate_trace_dump(dump, &why)) {
    rep.fail("svc: trace dump invalid: " + why);
  }

  const std::vector<core::AlignResult> reference = svc_reference(w);
  const SvcOutcome out = check_open_loop(
      w, *traced, traced_stats, reference, cfg.engine.device.accel.pen, rep);
  rep.attempted = times.size() * w.reqs.size();
  rep.failed = times.size() * out.typed_failures;

  std::size_t pairs = 0;
  std::uint64_t cells = 0;
  for (const Batch& b : batches) {
    pairs += b.size();
    for (const auto& p : b) cells += cells_of(p.a, p.b);
  }
  const LadderTimes med = median_times(times);
  add_layer_metrics(rep, pairs, cells, med, *dev, eng_level,
                    /*has_service=*/true);

  rep.add("svc.host_pump_ns", static_cast<double>(med.svc_pump), "ns");
  rep.add("svc.host_submit_ns", static_cast<double>(med.svc_submit), "ns");
  rep.add("svc.pumps", static_cast<double>(traced->pumps), "count", true);
  rep.add("svc.host_ns_per_pump",
          per(static_cast<double>(med.svc_pump),
              static_cast<double>(traced->pumps)),
          "ns");
  std::vector<std::uint64_t> lag;
  for (std::size_t i = 0; i < traced->admitted_at.size(); ++i) {
    lag.push_back(traced->admitted_at[i] - traced->due[i]);
  }
  std::vector<std::uint64_t> queue_wait;
  for (const svc::RequestTraceEvent& ev : dump.events) {
    if (ev.kind == svc::TraceEventKind::kQueueWait) queue_wait.push_back(ev.dur);
  }
  std::vector<std::uint64_t> interactive = out.lane_latency[kInteractive];
  std::vector<std::uint64_t> bulk = out.lane_latency[kBulk];
  const Percentile lag99 = tail_percentile(lag, 0.99);
  const Percentile wait99 = tail_percentile(queue_wait, 0.99);
  const Percentile int99 = tail_percentile(interactive, 0.99);
  const Percentile bulk99 = tail_percentile(bulk, 0.99);
  rep.add("svc.generator_lag_p99_cycles", static_cast<double>(lag99.value),
          "cycles", true);
  rep.add("svc.queue_wait_p99_cycles", static_cast<double>(wait99.value),
          "cycles", true);
  rep.add("svc.interactive_p99_cycles", static_cast<double>(int99.value),
          "cycles", true);
  rep.add("svc.bulk_p99_cycles", static_cast<double>(bulk99.value), "cycles",
          true);
  for (const auto& [name, pct] :
       {std::pair{"generator lag", lag99}, std::pair{"queue wait", wait99},
        std::pair{"interactive", int99}, std::pair{"bulk", bulk99}}) {
    std::printf("# %s: p%.1f of %zu samples%s\n", name, 100 * pct.used,
                pct.samples, pct.exact() ? "" : " (too few for p99)");
  }
  rep.add("svc.useful_attempt_ratio",
          per(static_cast<double>(traced_stats.shards_dispatched),
              static_cast<double>(traced_stats.shard_attempts)),
          "ratio", true);
  rep.add("svc.hedges_launched",
          static_cast<double>(traced_stats.hedges_launched), "count", true);
  rep.add("svc.duplicates_suppressed",
          static_cast<double>(traced_stats.duplicates_suppressed), "count",
          true);
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"nbt_long", "bt_1k",
                                                 "svc_mix"};
  return names;
}

Report run_workload(const Options& o) {
  if (o.workload == "nbt_long") {
    return o.trace ? run_batch_traced(kNbtLong, o)
                   : run_batch_untraced(kNbtLong, o);
  }
  if (o.workload == "bt_1k") {
    return o.trace ? run_batch_traced(kBt1k, o) : run_batch_untraced(kBt1k, o);
  }
  if (o.workload == "svc_mix") {
    return o.trace ? run_svc_traced(o) : run_svc_untraced(o);
  }
  throw std::invalid_argument("unknown workload: " + o.workload);
}

}  // namespace perfbench

// Mixed fault campaign driver (docs/RELIABILITY.md §5): every fault class
// at once — memory/RAM single and double bit flips, AXI read errors,
// dropped/duplicated/corrupted read beats, write-beat corruption and
// drops, FIFO stalls — against a K-device engine with ECC and CRC on,
// across many seeds.
//
// For every seed the resilient run's merged results are compared against
// the fault-free software reference. Any divergence on a resolved pair is
// a SILENT CORRUPTION (an escape: a fault survived ECC, CRC and the
// verify layer and reached the caller as a plausible result); any
// unresolved pair is a completion failure. Either makes the tool exit
// non-zero, which is what tools/run_fault_campaign.sh and CI gate on.
//
// Usage: wfasic-fault-campaign [seeds] [devices] [pairs] [read_len]
//                              [--stats] [--trace=<out.json>] [--failover]
//   defaults: 200 seeds, K=4 devices, 12 pairs of ~130 bp per seed.
//
// --failover runs the checkpoint-failover campaign instead
// (docs/RELIABILITY.md §7): periodic device checkpointing on, long reads,
// and a per-seed schedule of silently dropped result-write beats that CRC
// detection turns into mid-run device kills. Every killed run must
// migrate its checkpoint onto a healthy device and finish bit-exact, with
// total recomputed cycles bounded by
//   restores x (checkpoint_interval + poll_quantum);
// any corruption, unresolved pair or bound violation exits non-zero.
//   defaults: 200 seeds, K=2 devices, 4 pairs of ~1200 bp per seed.
//
// --stats dumps the last seed's engine metrics and device-0 PMU counters
// to stderr; --trace writes a Chrome trace-event JSON of the last seed's
// device 0 (the faulted runs themselves — the trace shows error instants
// and aborted spans; see docs/OBSERVABILITY.md). Observational only: the
// campaign verdict is bit-identical with and without them.
//
// --artifacts=<dir> turns on post-mortem collection (docs/OBSERVABILITY.md
// §3): the campaign keeps its own flight recorder (one admit + verdict
// event per seed, seed index as the clock), device tracing runs for every
// seed, and each FAILING seed leaves <dir>/seed<N>_device0_trace.json plus
// <dir>/seed<N>_stats.txt (PMU counters + engine metrics). The recorder
// ring itself is written to <dir>/campaign.trace — wfasic-trace can
// validate and summarize it. Observational only, like --stats/--trace.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/trace_json.hpp"
#include "core/wfa.hpp"
#include "drv/driver.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"
#include "sim/fault_injector.hpp"
#include "svc/trace_io.hpp"
#include "tools/stats_util.hpp"

namespace {

struct Options {
  std::uint64_t seeds = 200;
  unsigned devices = 4;
  std::size_t pairs = 12;
  std::size_t read_len = 130;
  bool stats = false;
  bool failover = false;
  std::string trace_path;
  std::string artifacts_dir;
};

// Post-mortem artifact collection for failing seeds (--artifacts). The
// campaign's flight recorder reuses the service trace-event schema with
// the seed index as the clock: each seed records an `admit` (id = seed)
// and, if it passed, a `complete` (aux0 = faults fired, or restores in
// the failover campaign); each failure
// records an `attempt-failed` (aux0 = pair, aux1 = 1 corruption /
// 2 unresolved / 3 recompute-bound violation) and latches the anomaly, so
// `wfasic-trace --validate --summary <dir>/campaign.trace` gives the
// whole campaign's shape at a glance.
class CampaignArtifacts {
 public:
  explicit CampaignArtifacts(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }

  bool prepare() {
    if (!enabled()) return true;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create artifact dir %s: %s\n",
                   dir_.c_str(), ec.message().c_str());
      return false;
    }
    return true;
  }

  void seed_started(std::uint64_t seed) {
    if (!enabled()) return;
    wfasic::svc::RequestTraceEvent ev;
    ev.ts = seed;
    ev.id = seed;
    ev.kind = wfasic::svc::TraceEventKind::kAdmit;
    recorder_.record(ev);
  }

  void seed_passed(std::uint64_t seed, std::uint64_t faults_fired) {
    if (!enabled()) return;
    wfasic::svc::RequestTraceEvent ev;
    ev.ts = seed;
    ev.id = seed;
    ev.aux0 = faults_fired;
    ev.kind = wfasic::svc::TraceEventKind::kComplete;
    recorder_.record(ev);
  }

  /// Records the failure event and dumps the seed's device-0 trace and
  /// stats files. `why`: 1 = corruption, 2 = unresolved, 3 = recompute
  /// bound violated.
  void seed_failed(wfasic::engine::Engine& engine, std::uint64_t seed,
                   std::size_t pair, std::uint64_t why) {
    if (!enabled()) return;
    wfasic::svc::RequestTraceEvent ev;
    ev.ts = seed;
    ev.id = seed;
    ev.aux0 = pair;
    ev.aux1 = why;
    ev.kind = wfasic::svc::TraceEventKind::kAttemptFailed;
    recorder_.record(ev);
    recorder_.note_anomaly(wfasic::svc::AnomalyKind::kAttemptFailure, seed);
    if (dumped_seeds_.empty() || dumped_seeds_.back() != seed) {
      dumped_seeds_.push_back(seed);
      dump_seed(engine, seed);
    }
  }

  /// Writes <dir>/campaign.trace (always when --artifacts is given, green
  /// or red: a green campaign's dump is the baseline a red one is read
  /// against). Returns false on I/O failure.
  bool finish(std::uint64_t seeds, unsigned devices) {
    if (!enabled()) return true;
    wfasic::svc::TraceDump dump;
    dump.now = seeds;
    dump.lanes = 1;
    dump.devices = devices;
    dump.recorded = recorder_.recorded();
    dump.dropped = recorder_.events_dropped();
    dump.anomalies = recorder_.anomalies();
    dump.last_anomaly = recorder_.last_anomaly();
    dump.last_anomaly_cycle = recorder_.last_anomaly_cycle();
    dump.events = recorder_.export_events();
    const std::string path = dir_ + "/campaign.trace";
    if (!wfasic::svc::write_trace_dump_file(dump, path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(stderr, "# artifacts: wrote %s (%zu events, %zu failing "
                 "seed dumps)\n",
                 path.c_str(), dump.events.size(), dumped_seeds_.size());
    return true;
  }

 private:
  void dump_seed(wfasic::engine::Engine& engine, std::uint64_t seed) {
    const std::string base = dir_ + "/seed" + std::to_string(seed);
    const wfasic::sim::TraceSink& sink =
        engine.device(0).accelerator().trace();
    if (sink.enabled()) {
      const std::string trace_path = base + "_device0_trace.json";
      if (!wfasic::common::write_chrome_trace_file(sink, trace_path)) {
        std::fprintf(stderr, "# artifacts: cannot write %s\n",
                     trace_path.c_str());
      }
    }
    const std::string stats_path = base + "_stats.txt";
    std::FILE* f = std::fopen(stats_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "# artifacts: cannot write %s\n",
                   stats_path.c_str());
      return;
    }
    wfasic::drv::Driver driver(engine.device(0).accelerator());
    wfasic::tools::print_perf_snapshot(driver.read_perf_counters(), f);
    wfasic::tools::print_engine_metrics(engine.metrics(), f);
    std::fclose(f);
  }

  std::string dir_;
  wfasic::svc::FlightRecorder recorder_;
  std::vector<std::uint64_t> dumped_seeds_;
};

wfasic::sim::FaultInjector::CampaignConfig mixed_campaign(
    const wfasic::engine::EngineConfig& cfg) {
  wfasic::sim::FaultInjector::CampaignConfig campaign;
  campaign.mem_begin = cfg.device.in_addr;
  campaign.mem_end = cfg.device.in_addr + 16'384;
  campaign.mem_bit_flips = 2;
  campaign.mem_double_flips = 1;
  campaign.axi_errors = 1;
  campaign.dropped_beats = 1;
  campaign.beat_corruptions = 1;
  campaign.ram_bit_flips = 2;
  campaign.ram_double_flips = 1;
  campaign.write_beat_corruptions = 1;
  campaign.write_beat_drops = 1;
  return campaign;
}

// The checkpoint-failover campaign (--failover, docs/RELIABILITY.md §7).
// Long reads with checkpointing on; each seed silently drops a handful of
// result-write beats spread across the output stream, so CRC verification
// kills runs at varying points mid-flight. run_dataset's failover path
// must adopt each victim's last checkpoint on a healthy device and merge
// bit-exact results, recomputing no more than the checkpoint bound allows.
int run_failover_campaign(const Options& opt) {
  using namespace wfasic;

  CampaignArtifacts artifacts(opt.artifacts_dir);
  if (!artifacts.prepare()) return 1;

  const auto pairs = gen::generate_input_set(
      {opt.read_len, 0.1, opt.pairs, /*seed=*/0xFA58});

  core::WfaConfig ref_cfg;
  ref_cfg.traceback = core::Traceback::kEnabled;
  ref_cfg.extend = core::ExtendMode::kScalar;
  core::WfaAligner ref(ref_cfg);
  std::vector<core::AlignResult> expected;
  expected.reserve(pairs.size());
  for (const auto& pair : pairs) expected.push_back(ref.align(pair.a, pair.b));

  std::uint64_t escapes = 0;
  std::uint64_t bound_violations = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t migrations = 0;
  std::uint64_t restores = 0;
  std::uint64_t recomputed = 0;
  std::uint64_t scratch_retries = 0;
  std::uint64_t sw_degradations = 0;

  for (std::uint64_t seed = 1; seed <= opt.seeds; ++seed) {
    engine::EngineConfig cfg;
    cfg.num_devices = opt.devices;
    cfg.device.accel.crc = true;  // turns silent write drops into kills
    cfg.device.poll_quantum = 4096;
    cfg.device.checkpoint_interval = 8192;
    // Device tracing per seed when collecting artifacts, so a failing
    // seed's dump is available without a rerun. Observational only.
    cfg.device.accel.trace = artifacts.enabled();

    engine::Engine engine(cfg);
    artifacts.seed_started(seed);
    std::vector<sim::FaultInjector> injectors(opt.devices);
    for (unsigned dev = 0; dev < opt.devices; ++dev) {
      // A seed-dependent spread of dropped write beats per device: early,
      // mid and late kills all occur across the campaign. Beats past the
      // end of a run's output stream simply never fire.
      for (const std::uint64_t beat :
           {(seed + dev) % 5, 8 + (seed * 3 + dev) % 32,
            64 + (seed * 7 + dev) % 192}) {
        sim::FaultEvent drop;
        drop.cls = sim::FaultClass::kWriteBeatDrop;
        drop.beat = beat;
        injectors[dev].schedule(drop);
      }
      engine.device(dev).attach_fault_injector(&injectors[dev]);
    }

    const engine::BatchResult merged =
        engine.run_dataset(pairs, /*batch_pairs=*/2, /*backtrace=*/true,
                           /*separate_data=*/false);
    bool seed_ok = true;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const bool ok = merged.alignments[i].ok &&
                      merged.alignments[i].score == expected[i].score &&
                      merged.alignments[i].cigar.rle() == expected[i].cigar.rle();
      if (!ok) {
        ++escapes;
        seed_ok = false;
        artifacts.seed_failed(engine, seed, i, /*why=*/1);
        std::fprintf(stderr, "seed %llu pair %zu: CORRUPTED AFTER FAILOVER\n",
                     static_cast<unsigned long long>(seed), i);
      }
    }

    const engine::RecoveryMetrics rec = engine.metrics().recovery;
    const std::uint64_t bound =
        rec.restores * (cfg.device.checkpoint_interval + cfg.device.poll_quantum);
    if (rec.recomputed_cycles > bound) {
      ++bound_violations;
      seed_ok = false;
      artifacts.seed_failed(engine, seed, /*pair=*/0, /*why=*/3);
      std::fprintf(stderr,
                   "seed %llu: RECOMPUTE BOUND VIOLATED (%llu > %llu)\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(rec.recomputed_cycles),
                   static_cast<unsigned long long>(bound));
    }
    if (seed_ok) artifacts.seed_passed(seed, rec.restores);
    checkpoints += rec.checkpoints;
    migrations += rec.migrations;
    restores += rec.restores;
    recomputed += rec.recomputed_cycles;
    scratch_retries += rec.dataset_retries;
    sw_degradations += rec.sw_degradations;
    for (const sim::FaultInjector& injector : injectors) {
      faults_fired += injector.fired_count();
    }
  }

  std::printf(
      "checkpoint-failover campaign: %llu seeds x K=%u devices, CRC on,\n"
      "checkpoint interval 8192 + poll quantum 4096 cycles\n"
      "  faults fired:      %llu\n"
      "  checkpoints taken: %llu\n"
      "  migrations:        %llu\n"
      "  restores:          %llu\n"
      "  recomputed cycles: %llu\n"
      "  scratch retries:   %llu\n"
      "  sw degradations:   %llu\n"
      "  bound violations:  %llu\n"
      "  corruptions:       %llu\n",
      static_cast<unsigned long long>(opt.seeds), opt.devices,
      static_cast<unsigned long long>(faults_fired),
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(migrations),
      static_cast<unsigned long long>(restores),
      static_cast<unsigned long long>(recomputed),
      static_cast<unsigned long long>(scratch_retries),
      static_cast<unsigned long long>(sw_degradations),
      static_cast<unsigned long long>(bound_violations),
      static_cast<unsigned long long>(escapes));

  if (!artifacts.finish(opt.seeds, opt.devices)) return 1;
  if (escapes != 0 || bound_violations != 0) {
    std::fprintf(stderr, "FAIL: %llu corruptions, %llu bound violations\n",
                 static_cast<unsigned long long>(escapes),
                 static_cast<unsigned long long>(bound_violations));
    return 1;
  }
  if (migrations == 0) {
    // A campaign that never exercised the failover path proves nothing.
    std::fprintf(stderr, "FAIL: no migration ever occurred\n");
    return 1;
  }
  std::puts("PASS: every kill failed over, recompute within bound");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int positional = 0;
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--stats") == 0) {
      opt.stats = true;
    } else if (std::strcmp(argv[arg], "--failover") == 0) {
      opt.failover = true;
    } else if (std::strncmp(argv[arg], "--trace=", 8) == 0) {
      opt.trace_path = argv[arg] + 8;
    } else if (std::strncmp(argv[arg], "--artifacts=", 12) == 0) {
      opt.artifacts_dir = argv[arg] + 12;
    } else if (std::strncmp(argv[arg], "--", 2) == 0) {
      // An unrecognized flag would otherwise strtoull to 0 and silently
      // become "run 0 seeds" — a campaign that passes without testing
      // anything.
      std::fprintf(stderr, "error: unknown flag %s\n", argv[arg]);
      std::fprintf(stderr,
                   "usage: %s [seeds] [devices] [pairs] [read_len]"
                   " [--stats] [--trace=<out.json>] [--failover]"
                   " [--artifacts=<dir>]\n",
                   argv[0]);
      return 2;
    } else {
      const std::uint64_t value = std::strtoull(argv[arg], nullptr, 10);
      switch (positional++) {
        case 0: opt.seeds = value; break;
        case 1: opt.devices = static_cast<unsigned>(value); break;
        case 2: opt.pairs = value; break;
        case 3: opt.read_len = value; break;
        default:
          std::fprintf(stderr,
                       "usage: %s [seeds] [devices] [pairs] [read_len]"
                       " [--stats] [--trace=<out.json>] [--failover]"
                       " [--artifacts=<dir>]\n",
                       argv[0]);
          return 2;
      }
    }
  }

  if (opt.failover) {
    // Failover-campaign defaults: a small fleet of long reads, so every
    // run spans many checkpoint intervals. Explicit positionals win.
    if (positional < 2) opt.devices = 2;
    if (positional < 3) opt.pairs = 4;
    if (positional < 4) opt.read_len = 1200;
    return run_failover_campaign(opt);
  }

  using namespace wfasic;

  CampaignArtifacts artifacts(opt.artifacts_dir);
  if (!artifacts.prepare()) return 1;

  const auto pairs = gen::generate_input_set(
      {opt.read_len, 0.1, opt.pairs, /*seed=*/0xFA57});

  // Fault-free software reference (scores + CIGARs).
  core::WfaConfig ref_cfg;
  ref_cfg.traceback = core::Traceback::kEnabled;
  ref_cfg.extend = core::ExtendMode::kScalar;
  core::WfaAligner ref(ref_cfg);
  std::vector<core::AlignResult> expected;
  expected.reserve(pairs.size());
  for (const auto& pair : pairs) expected.push_back(ref.align(pair.a, pair.b));

  std::uint64_t escapes = 0;
  std::uint64_t incompletes = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t retirements = 0;
  std::uint64_t cpu_fallbacks = 0;
  std::uint64_t launches = 0;

  for (std::uint64_t seed = 1; seed <= opt.seeds; ++seed) {
    const bool last_seed = seed == opt.seeds;
    engine::EngineConfig cfg;
    cfg.num_devices = opt.devices;
    cfg.device.watchdog = 20'000;
    cfg.device.accel.ecc = true;
    cfg.device.accel.crc = true;
    // Observability of the last seed only (one trace file, one stats
    // dump) — or of every seed when collecting failure artifacts.
    cfg.device.accel.trace =
        (last_seed && !opt.trace_path.empty()) || artifacts.enabled();

    engine::Engine engine(cfg);
    artifacts.seed_started(seed);
    std::vector<sim::FaultInjector> injectors;
    injectors.reserve(opt.devices);
    for (unsigned dev = 0; dev < opt.devices; ++dev) {
      injectors.push_back(sim::FaultInjector::make_campaign(
          seed * 1000 + dev, mixed_campaign(cfg)));
    }
    for (unsigned dev = 0; dev < opt.devices; ++dev) {
      engine.device(dev).attach_fault_injector(&injectors[dev]);
    }

    engine::ResilientConfig rc;
    rc.launch_cycle_budget = 2'000'000;
    const engine::ResilientReport report = engine.run_resilient(pairs, rc);

    bool seed_ok = true;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (!report.outcomes[i].resolved) {
        ++incompletes;
        seed_ok = false;
        artifacts.seed_failed(engine, seed, i, /*why=*/2);
        std::fprintf(stderr, "seed %llu pair %zu: UNRESOLVED\n",
                     static_cast<unsigned long long>(seed), i);
        continue;
      }
      const bool score_ok =
          report.outcomes[i].result.score == expected[i].score;
      const bool cigar_ok =
          report.outcomes[i].result.cigar.rle() == expected[i].cigar.rle();
      if (!score_ok || !cigar_ok) {
        ++escapes;
        seed_ok = false;
        artifacts.seed_failed(engine, seed, i, /*why=*/1);
        std::fprintf(
            stderr,
            "seed %llu pair %zu: SILENT CORRUPTION (score %d vs %d)\n",
            static_cast<unsigned long long>(seed), i,
            report.outcomes[i].result.score, expected[i].score);
      }
    }

    std::uint64_t seed_faults = 0;
    for (const sim::FaultInjector& injector : injectors) {
      seed_faults += injector.fired_count();
    }
    faults_fired += seed_faults;
    if (seed_ok) artifacts.seed_passed(seed, seed_faults);
    for (unsigned dev = 0; dev < opt.devices; ++dev) {
      const engine::DeviceScoreboard& board = engine.health().board(dev);
      quarantines += board.quarantines;
      if (board.health == engine::DeviceHealth::kRetired) ++retirements;
    }
    cpu_fallbacks += report.cpu_fallbacks;
    launches += report.launches;

    if (last_seed && opt.stats) {
      drv::Driver driver(engine.device(0).accelerator());
      tools::print_perf_snapshot(driver.read_perf_counters(), stderr);
      tools::print_engine_metrics(engine.metrics(), stderr);
    }
    if (last_seed && !opt.trace_path.empty()) {
      const sim::TraceSink& sink = engine.device(0).accelerator().trace();
      if (!common::write_chrome_trace_file(sink, opt.trace_path)) {
        std::fprintf(stderr, "# trace: cannot write %s\n",
                     opt.trace_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "# trace: wrote %s (%zu events)\n",
                   opt.trace_path.c_str(), sink.events().size());
    }
  }

  std::printf(
      "fault campaign: %llu seeds x K=%u devices, ECC+CRC on\n"
      "  faults fired:      %llu\n"
      "  launches:          %llu\n"
      "  cpu fallbacks:     %llu\n"
      "  quarantines:       %llu\n"
      "  retirements:       %llu\n"
      "  unresolved pairs:  %llu\n"
      "  silent corruptions: %llu\n",
      static_cast<unsigned long long>(opt.seeds), opt.devices,
      static_cast<unsigned long long>(faults_fired),
      static_cast<unsigned long long>(launches),
      static_cast<unsigned long long>(cpu_fallbacks),
      static_cast<unsigned long long>(quarantines),
      static_cast<unsigned long long>(retirements),
      static_cast<unsigned long long>(incompletes),
      static_cast<unsigned long long>(escapes));

  if (!artifacts.finish(opt.seeds, opt.devices)) return 1;
  if (escapes != 0 || incompletes != 0) {
    std::fprintf(stderr, "FAIL: %llu escapes, %llu unresolved\n",
                 static_cast<unsigned long long>(escapes),
                 static_cast<unsigned long long>(incompletes));
    return 1;
  }
  std::puts("PASS: zero silent corruptions, every pair resolved");
  return 0;
}

// The benchmark's workloads and the report each run produces.
//
// A run drives one workload through the simulator's public API for a
// fixed host-time window, checks every output, and reports either the
// end-to-end metrics (untraced) or the per-layer metrics (traced layer
// ladder). Modeled ("sim") figures are cycles of the simulated SoC and
// repeat exactly for a seed; host figures are wall time of the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The service workload's open-loop constants. They are passed in from
/// the benchmark's command line (recorded in BENCHMARK.json), never
/// derived from a measured saturation, so a capacity change shows.
struct SvcParams {
  double rate_rpmc = 300;  ///< fixed offered rate, requests per Mcycle
  std::vector<double> ladder_rpmc;  ///< ascending rates for the SLO search
  std::uint64_t slo_cycles = 100'000;  ///< p99 latency limit
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  SvcParams svc;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Modeled (simulated-SoC) figure: must repeat exactly for a seed.
  bool modeled = false;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit,
           bool modeled = false) {
    metrics.push_back({std::move(name), value, std::move(unit), modeled});
  }
  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
};

/// Names of the workloads run_workload accepts.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] Report run_workload(const Options& opts);

}  // namespace perfbench

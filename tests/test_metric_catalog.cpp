// Metric names as a contract: the registry names the engine and the
// service export, the PMU counter table (names, order, rebase kind), and
// the counter catalog in docs/OBSERVABILITY.md §2. Every view of a
// metric (register window, --stats, registry, BENCH_*.json keys) is
// derived from one definition, so these pins catch a rename or reorder
// at the definition and a doc that drifted from it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics_registry.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "gen/seqgen.hpp"
#include "hw/perf.hpp"
#include "hw/regs.hpp"
#include "svc/service.hpp"

namespace wfasic {
namespace {

/// The metric names of a registry's text exposition, in its sorted order.
std::vector<std::string> text_names(const common::MetricsRegistry& reg) {
  std::vector<std::string> names;
  for (const std::string& line : reg.text_lines()) {
    names.push_back(line.substr(0, line.find(' ')));
  }
  return names;
}

/// Small per-device arenas, as the service tests and benches use.
engine::EngineConfig two_device_config() {
  engine::EngineConfig cfg;
  cfg.num_devices = 2;
  cfg.device.memory_bytes = 16ull << 20;
  cfg.device.out_addr = 12ull << 20;
  return cfg;
}

std::vector<std::string> lane_names(const std::string& lane) {
  std::vector<std::string> names;
  for (const char* suffix :
       {"_busy_cycles", "_jobs_completed", "_jobs_failed",
        "_queue_high_water", "_total_cycles", "_utilization"}) {
    names.push_back(lane + suffix);
  }
  return names;
}

std::vector<std::string> histogram_names(const std::string& name) {
  std::vector<std::string> names;
  for (const char* suffix :
       {"_count", "_max", "_mean", "_min", "_p50", "_p90", "_p99", "_sum"}) {
    names.push_back(name + suffix);
  }
  return names;
}

/// Every name engine::export_to_registry writes for a K=2 engine under
/// prefix "engine", sorted as text_lines() sorts them.
std::vector<std::string> expected_engine_names() {
  std::vector<std::string> names;
  for (const char* lane : {"engine_dev0", "engine_dev1"}) {
    for (std::string& n : lane_names(lane)) names.push_back(std::move(n));
  }
  names.push_back("engine_completions");
  names.push_back("engine_health_transitions");
  names.push_back("engine_inflight_high_water");
  for (std::string& n : histogram_names("engine_latency_cycles")) {
    names.push_back(std::move(n));
  }
  for (const char* n :
       {"engine_recovery_checkpoints", "engine_recovery_dataset_retries",
        "engine_recovery_migrations", "engine_recovery_preemptions",
        "engine_recovery_recomputed_cycles", "engine_recovery_restores",
        "engine_recovery_resumes", "engine_recovery_sw_degradations"}) {
    names.push_back(n);
  }
  names.push_back("engine_submits");
  for (std::string& n : lane_names("engine_sw")) names.push_back(std::move(n));
  std::sort(names.begin(), names.end());
  return names;
}

TEST(MetricNames, EngineRegistryNamesPinned) {
  engine::Engine eng(two_device_config());
  const auto pairs = gen::generate_input_set({120, 0.05, 4, 17});
  for (unsigned d = 0; d < 2; ++d) {
    engine::BatchJob job;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      job.pairs.push_back({static_cast<std::uint32_t>(i), pairs[i].a,
                           pairs[i].b});
    }
    (void)eng.wait(eng.submit_on(d, std::move(job)));
  }
  engine::BatchJob sw_job;
  sw_job.pairs.push_back({0, pairs[0].a, pairs[0].b});
  (void)eng.wait(eng.submit_software(std::move(sw_job)));

  const engine::EngineMetrics& m = eng.metrics();
  ASSERT_EQ(m.devices.size(), 3u);
  EXPECT_EQ(m.devices[0].jobs_completed, 1u);
  EXPECT_EQ(m.devices[1].jobs_completed, 1u);
  EXPECT_EQ(m.devices[2].jobs_completed, 1u);

  common::MetricsRegistry reg;
  engine::export_to_registry(m, reg, "engine");
  EXPECT_EQ(text_names(reg), expected_engine_names());
}

TEST(MetricNames, ServiceRegistryNamesPinned) {
  svc::ServiceConfig cfg;
  cfg.engine = two_device_config();
  cfg.lanes = {svc::LaneConfig{}, svc::LaneConfig{}};
  svc::AlignService service(cfg);
  const auto pairs = gen::generate_input_set({150, 0.05, 6, 23});
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(service
                    .submit(static_cast<unsigned>(i % 2), pairs[i].a,
                            pairs[i].b)
                    .accepted());
  }
  service.drain();
  EXPECT_EQ(service.harvest().size(), pairs.size());

  common::MetricsRegistry reg;
  service.export_metrics(reg);

  std::vector<std::string> expected = expected_engine_names();
  for (const char* n :
       {"svc_cancels_attempted", "svc_cancels_succeeded",
        "svc_duplicates_suppressed", "svc_hedges_launched",
        "svc_inflight_high_water", "svc_now", "svc_preemptions",
        "svc_resumes", "svc_shard_attempts", "svc_shards_dispatched",
        "svc_shards_failed", "svc_sw_shards", "svc_trace_anomalies",
        "svc_trace_dropped", "svc_trace_recorded"}) {
    expected.push_back(n);
  }
  for (const std::string lane : {"svc_lane0", "svc_lane1"}) {
    for (const char* suffix :
         {"_accepted", "_completed_ok", "_deadline_miss", "_device_cycles",
          "_hedge_win_rate", "_hedges_launched", "_hedges_won", "_miss_rate",
          "_queue_high_water", "_rejected", "_retries", "_shed",
          "_shed_rate", "_slo_attainment", "_submitted", "_sw_cycles",
          "_sw_resolved", "_would_block"}) {
      expected.push_back(lane + suffix);
    }
    for (std::string& n : histogram_names(lane + "_latency_cycles")) {
      expected.push_back(std::move(n));
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(text_names(reg), expected);
}

TEST(MetricNames, PmuCounterTablePinned) {
  const std::vector<std::string> names = {
      "extractor_pairs_accepted",     "extractor_pairs_rejected",
      "extractor_wait_cycles",        "extend_invocations",
      "extend_matched_bases",         "aligner_wavefront_steps",
      "aligner_busy_cycles",          "aligner_stall_cycles",
      "dma_beats_read",               "dma_beats_written",
      "dma_stall_fifo_full",          "dma_stall_port_busy",
      "input_fifo_occupancy_cycles",  "input_fifo_high_water",
      "output_fifo_occupancy_cycles", "output_fifo_high_water",
      "ecc_corrected",                "err_count",
      "host_idle_skipped_cycles"};
  ASSERT_EQ(hw::kNumPerfCounters, names.size());
  EXPECT_EQ(hw::PerfIdx::kHostIdleSkippedCycles, static_cast<hw::PerfIdx>(18));

  const std::set<std::uint32_t> absolute = {13, 15, 16, 17};
  for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
    const auto idx = static_cast<hw::PerfIdx>(i);
    EXPECT_EQ(hw::perf_counter_name(idx), names[i]) << i;
    EXPECT_EQ(hw::PerfSnapshot::is_absolute(idx), absolute.count(i) != 0)
        << i;
  }

  // Each index reads and writes its own field, and only that field.
  hw::PerfSnapshot by_field;
  by_field.extractor_pairs_accepted = 1;
  by_field.extractor_pairs_rejected = 2;
  by_field.extractor_wait_cycles = 3;
  by_field.extend_invocations = 4;
  by_field.extend_matched_bases = 5;
  by_field.aligner_wavefront_steps = 6;
  by_field.aligner_busy_cycles = 7;
  by_field.aligner_stall_cycles = 8;
  by_field.dma_beats_read = 9;
  by_field.dma_beats_written = 10;
  by_field.dma_stall_fifo_full = 11;
  by_field.dma_stall_port_busy = 12;
  by_field.input_fifo_occupancy_cycles = 13;
  by_field.input_fifo_high_water = 14;
  by_field.output_fifo_occupancy_cycles = 15;
  by_field.output_fifo_high_water = 16;
  by_field.ecc_corrected = 17;
  by_field.err_count = 18;
  by_field.host_idle_skipped_cycles = 19;
  hw::PerfSnapshot by_index;
  for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
    const auto idx = static_cast<hw::PerfIdx>(i);
    EXPECT_EQ(by_field.counter(idx), i + 1) << names[i];
    hw::PerfSnapshot one;
    one.set_counter(idx, 77);
    for (std::uint32_t j = 0; j < hw::kNumPerfCounters; ++j) {
      EXPECT_EQ(one.counter(static_cast<hw::PerfIdx>(j)), i == j ? 77u : 0u)
          << names[i] << " wrote " << names[j];
    }
    by_index.set_counter(idx, i + 1);
  }
  EXPECT_EQ(by_index, by_field);

  // Rebasing subtracts the base from monotone counters only.
  hw::PerfSnapshot base;
  hw::PerfSnapshot cur;
  for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
    base.set_counter(static_cast<hw::PerfIdx>(i), i);
    cur.set_counter(static_cast<hw::PerfIdx>(i), 1000 + i);
  }
  const hw::PerfSnapshot run = cur.rebased(base);
  for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
    EXPECT_EQ(run.counter(static_cast<hw::PerfIdx>(i)),
              absolute.count(i) != 0 ? 1000u + i : 1000u)
        << names[i];
  }
}

std::string read_doc(const std::string& relative) {
  std::ifstream in(std::string(WFASIC_SOURCE_DIR) + "/" + relative);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The counter table of docs/OBSERVABILITY.md §2 and its rebase sentence
/// must describe the PMU exactly as hw/perf.hpp defines it.
TEST(MetricCatalog, ObservabilityDocMatchesPmuTable) {
  const std::string doc = read_doc("docs/OBSERVABILITY.md");
  ASSERT_FALSE(doc.empty()) << "docs/OBSERVABILITY.md not found";

  const std::regex row(
      R"(^\| (\d+) \| 0x([0-9A-F]+)/0x([0-9A-F]+) \| `(\w+)` \|.*\|$)");
  std::istringstream lines(doc);
  std::string line;
  std::uint32_t rows = 0;
  while (std::getline(lines, line)) {
    std::smatch m;
    if (!std::regex_match(line, m, row)) continue;
    const std::uint32_t i = rows++;
    ASSERT_LT(i, hw::kNumPerfCounters) << line;
    EXPECT_EQ(std::stoul(m[1]), i) << line;
    EXPECT_EQ(std::stoul(m[2], nullptr, 16),
              hw::perf_reg_lo(i) - hw::kRegPerfBase)
        << line;
    EXPECT_EQ(std::stoul(m[3], nullptr, 16),
              hw::perf_reg_hi(i) - hw::kRegPerfBase)
        << line;
    EXPECT_EQ(m[4].str(), hw::perf_counter_name(static_cast<hw::PerfIdx>(i)))
        << line;
  }
  EXPECT_EQ(rows, hw::kNumPerfCounters);

  // "Rebase semantics: counters 13, 15 (…), 16 and 17 (…) are **absolute**"
  const std::size_t begin = doc.find("Rebase semantics:");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = doc.find("**absolute**", begin);
  ASSERT_NE(end, std::string::npos);
  const std::string sentence = doc.substr(begin, end - begin);
  std::set<std::uint32_t> documented;
  const std::regex number(R"(\d+)");
  for (auto it = std::sregex_iterator(sentence.begin(), sentence.end(), number);
       it != std::sregex_iterator(); ++it) {
    documented.insert(static_cast<std::uint32_t>(std::stoul(it->str())));
  }
  std::set<std::uint32_t> absolute;
  for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
    if (hw::PerfSnapshot::is_absolute(static_cast<hw::PerfIdx>(i))) {
      absolute.insert(i);
    }
  }
  EXPECT_EQ(documented, absolute);
}

}  // namespace
}  // namespace wfasic

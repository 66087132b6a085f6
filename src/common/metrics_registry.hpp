// Unified metrics registry (docs/OBSERVABILITY.md §4).
//
// One namespace of stable metric names over three instrument kinds —
// counters (monotone uint64), gauges (double, last-write-wins) and log2
// histograms — absorbing the engine's EngineMetrics, the service layer's
// ServiceStats/LaneStats and the RecoveryMetrics into a single
// exposition surface:
//   - write_text(): "<name> <value>" lines (histograms as
//     name{count,sum,mean,min,max,p50,p90,p99} sub-keys), sorted by
//     name, so a dump diffs cleanly;
//   - to_json(): the same data as one JSON object;
//   - sample(now): appends one row of every counter/gauge value at a
//     modeled-time cycle into a bounded in-memory series, so a service
//     can record its trajectory (queue depths, SLO attainment) at a
//     fixed modeled cadence and export it after the fact.
//
// The registry is an *export* surface, not a hot-path instrument: the
// authoritative accumulators stay where they always were (ServiceStats,
// EngineMetrics, …) and are re-exported into the registry on demand, so
// registering and refreshing metrics can never perturb scheduling or
// simulated time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <type_traits>
#include <vector>

#include "common/quantile.hpp"

namespace wfasic::common {

class MetricsRegistry {
 public:
  /// One sampled row: every counter and gauge value (in registration
  /// order) at one modeled-time cycle.
  struct Sample {
    std::uint64_t cycle = 0;
    std::vector<double> values;
  };

  /// Bounded sample series: the oldest rows are dropped beyond this.
  explicit MetricsRegistry(std::size_t max_samples = 1024)
      : max_samples_(max_samples) {}

  // --- Instruments ----------------------------------------------------------
  /// Returns the counter registered under `name`, creating it at zero.
  std::uint64_t& counter(const std::string& name) {
    return counters_[find_or_add(counters_names_, name, counters_)].second;
  }
  /// Returns the gauge registered under `name`, creating it at zero.
  double& gauge(const std::string& name) {
    return gauges_[find_or_add(gauges_names_, name, gauges_)].second;
  }
  /// Returns the histogram registered under `name`, creating it empty.
  Log2Histogram& histogram(const std::string& name) {
    return hists_[find_or_add(hists_names_, name, hists_)].second;
  }

  /// Drops every instrument and sample (names included) — what the
  /// periodic re-export does before repopulating, so renamed or removed
  /// metrics cannot linger.
  void clear() {
    counters_.clear();
    gauges_.clear();
    hists_.clear();
    counters_names_.clear();
    gauges_names_.clear();
    hists_names_.clear();
  }

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + hists_.size();
  }

  // --- Sampling -------------------------------------------------------------
  /// Appends one row of every counter + gauge (registration order:
  /// counters first). Bounded: the oldest row is dropped past
  /// max_samples.
  void sample(std::uint64_t cycle) {
    Sample row;
    row.cycle = cycle;
    row.values.reserve(counters_.size() + gauges_.size());
    for (const auto& [name, v] : counters_) {
      row.values.push_back(static_cast<double>(v));
    }
    for (const auto& [name, v] : gauges_) row.values.push_back(v);
    samples_.push_back(std::move(row));
    while (samples_.size() > max_samples_) samples_.pop_front();
  }
  [[nodiscard]] const std::deque<Sample>& samples() const { return samples_; }
  void clear_samples() { samples_.clear(); }

  // --- Exposition -----------------------------------------------------------
  /// Plain-text exposition, one "<name> <value>" line per metric, sorted
  /// by name (counters as integers, gauges with 6 decimals, histograms
  /// as summary sub-keys).
  void write_text(std::FILE* out) const {
    for (const std::string& line : text_lines()) {
      std::fprintf(out, "%s\n", line.c_str());
    }
  }

  [[nodiscard]] std::vector<std::string> text_lines() const {
    std::vector<std::string> lines;
    for_each_value([&](const std::string& name, auto value) {
      if constexpr (std::is_same_v<decltype(value), double>) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", value);
        lines.push_back(name + " " + buf);
      } else {
        lines.push_back(name + " " + std::to_string(value));
      }
    });
    std::sort(lines.begin(), lines.end());
    return lines;
  }

  /// Calls fn(name, value) once per exported value, in registration
  /// order: every counter (std::uint64_t), every gauge (double), then each
  /// histogram as its summary sub-keys `<name>_count`, `_sum`, `_mean`
  /// (double), `_min`, `_max`, `_p50`, `_p90`, `_p99` (std::uint64_t).
  /// The one place those sub-keys are named: text_lines() and the bench
  /// reports (bench/bench_util.hpp) both iterate it.
  template <typename Fn>
  void for_each_value(Fn&& fn) const {
    for (const auto& [name, v] : counters_) fn(name, v);
    for (const auto& [name, v] : gauges_) fn(name, v);
    for (const auto& [name, h] : hists_) {
      const HistogramSummary s = summarize(h);
      fn(name + "_count", s.count);
      fn(name + "_sum", s.sum);
      fn(name + "_mean", s.mean);
      fn(name + "_min", s.min);
      fn(name + "_max", s.max);
      fn(name + "_p50", s.p50);
      fn(name + "_p90", s.p90);
      fn(name + "_p99", s.p99);
    }
  }

  /// JSON exposition: {"counters":{...},"gauges":{...},"histograms":
  /// {name:{count,...}},"samples":[{"cycle":c,"values":[...]}]}. Metric
  /// names are ASCII identifiers by convention; they are escaped anyway.
  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : counters_) {
      if (!first) out += ",";
      first = false;
      append_key(out, name);
      out += std::to_string(v);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, v] : gauges_) {
      if (!first) out += ",";
      first = false;
      append_key(out, name);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6f", v);
      out += buf;
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : hists_) {
      if (!first) out += ",";
      first = false;
      append_key(out, name);
      const HistogramSummary s = summarize(h);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "{\"count\":%llu,\"sum\":%llu,\"mean\":%.6f,"
                    "\"min\":%llu,\"max\":%llu,\"p50\":%llu,\"p90\":%llu,"
                    "\"p99\":%llu}",
                    static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.sum), s.mean,
                    static_cast<unsigned long long>(s.min),
                    static_cast<unsigned long long>(s.max),
                    static_cast<unsigned long long>(s.p50),
                    static_cast<unsigned long long>(s.p90),
                    static_cast<unsigned long long>(s.p99));
      out += buf;
    }
    out += "},\"samples\":[";
    first = true;
    for (const Sample& row : samples_) {
      if (!first) out += ",";
      first = false;
      out += "{\"cycle\":" + std::to_string(row.cycle) + ",\"values\":[";
      for (std::size_t i = 0; i < row.values.size(); ++i) {
        if (i != 0) out += ",";
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", row.values[i]);
        out += buf;
      }
      out += "]}";
    }
    out += "]}";
    return out;
  }

 private:
  template <typename Vec>
  static std::size_t find_or_add(std::vector<std::string>& names,
                                 const std::string& name, Vec& store) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    names.push_back(name);
    store.emplace_back(name, typename Vec::value_type::second_type{});
    return names.size() - 1;
  }

  static void append_key(std::string& out, const std::string& name) {
    out += "\"";
    for (const char c : name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\":";
  }

  // Parallel name indexes keep the find path allocation-free; the stores
  // pair names back in so exposition needs no second lookup.
  std::vector<std::string> counters_names_;
  std::vector<std::string> gauges_names_;
  std::vector<std::string> hists_names_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<std::pair<std::string, Log2Histogram>> hists_;
  std::deque<Sample> samples_;
  std::size_t max_samples_;
};

}  // namespace wfasic::common

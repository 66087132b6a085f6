// perfbench: the repository benchmark's command-line driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--svc-rate-rpmc R] [--svc-ladder-rpmc R1,R2,...]
//             [--svc-slo-cycles C]
//
// Prints the run conditions, one line per metric (name, value, unit) and,
// as the last line, one JSON object with the keys correct, attempted,
// failed and metrics. Exits non-zero, without a result line, when an
// output check fails or the build cannot give trustworthy host times.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

/// The sanitizer compiled in, if any ("none" otherwise).
const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#endif
#endif
  return "none";
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

const char* env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "unset" : v;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--svc-rate-rpmc R] "
               "[--svc-ladder-rpmc R1,R2,...] [--svc-slo-cycles C]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        opts.workload = val;
      } else if (key == "--seed") {
        opts.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(val);
      } else if (key == "--trace") {
        opts.trace = val != "0";
      } else if (key == "--svc-rate-rpmc") {
        opts.svc.rate_rpmc = std::stod(val);
      } else if (key == "--svc-ladder-rpmc") {
        std::stringstream ss(val);
        std::string rate;
        while (std::getline(ss, rate, ',')) {
          opts.svc.ladder_rpmc.push_back(std::stod(rate));
        }
      } else if (key == "--svc-slo-cycles") {
        opts.svc.slo_cycles = std::stoull(val);
      } else {
        return usage(("unknown option " + key).c_str());
      }
    }
    if (argc % 2 == 0) return usage("every option takes a value");
  } catch (const std::exception&) {
    return usage("malformed option value");
  }
  if (opts.workload.empty()) return usage("--workload is required");
  if (opts.workload == "svc_mix" && (opts.svc.ladder_rpmc.empty() ||
      !std::is_sorted(opts.svc.ladder_rpmc.begin(),
                      opts.svc.ladder_rpmc.end()) ||
      opts.svc.rate_rpmc <= 0)) {
    return usage("the service rate must be positive and the SLO ladder an "
                 "ascending list");
  }

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::printf("# build_type=%s optimized=%s sanitizer=%s "
              "WFASIC_EVENT_KERNEL=%s WFASIC_MACRO_STEP=%s\n",
              PERFBENCH_BUILD_TYPE, kOptimized ? "yes" : "no", sanitizer(),
              env_or_unset("WFASIC_EVENT_KERNEL"),
              env_or_unset("WFASIC_MACRO_STEP"));
  // Sanitizer and unoptimized builds distort every host time.
  if (std::string(sanitizer()) != "none" || !kOptimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report host metrics from a "
                 "sanitizer or unoptimized build\n");
    return 3;
  }

  perfbench::Report report;
  try {
    report = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-34s %20.6f %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.modeled ? "  (modeled)" : "");
  }
  if (!report.correct) {
    for (const std::string& p : report.problems) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
    }
    return 1;
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

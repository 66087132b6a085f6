// The benchmark's own tests: the percentile sample-count rule, the SLO
// ladder search, and exact repetition of every modeled metric for a seed.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The smallest sample count at which percentile `p` meets the rule.
std::size_t min_samples_for(double p) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinSamplesBeyond) / (1.0 - p) - 1e-9));
}

std::vector<std::uint64_t> iota_samples(std::size_t n) {
  std::vector<std::uint64_t> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, ReportsTheRequestedPercentileWithTenSamplesBeyond) {
  auto v = iota_samples(1000);
  const Percentile p = tail_percentile(v, 0.99);
  EXPECT_TRUE(p.exact());
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_EQ(p.value, 990u);  // 10 samples (991..1000) lie beyond it
}

TEST(Percentile, FallsBackWhenTooFewSamplesLieBeyond) {
  auto v = iota_samples(999);
  const Percentile p = tail_percentile(v, 0.99);
  EXPECT_FALSE(p.exact());
  EXPECT_LT(p.used, 0.99);
  EXPECT_EQ(p.value, 989u);  // exactly 10 samples beyond
  EXPECT_EQ(min_samples_for(0.99), 1000u);
  EXPECT_EQ(min_samples_for(0.50), 20u);
}

TEST(Percentile, NeverLeavesFewerThanTenSamplesBeyond) {
  for (std::size_t n = 11; n <= 400; ++n) {
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      auto v = iota_samples(n);
      const Percentile p = tail_percentile(v, q);
      EXPECT_GE(n - p.value, kMinSamplesBeyond) << "n=" << n << " q=" << q;
      EXPECT_LE(p.used, q);
      EXPECT_EQ(p.exact(), n >= min_samples_for(q)) << "n=" << n << " q=" << q;
    }
  }
}

TEST(Percentile, NoPercentileQualifiesWithTenSamplesOrFewer) {
  auto v = iota_samples(10);
  const Percentile p = tail_percentile(v, 0.5);
  EXPECT_EQ(p.used, 0.0);
  EXPECT_FALSE(p.exact());
}

TEST(SloSearch, ReturnsTheHighestRungBelowTheKnee) {
  const std::vector<double> ladder = {100, 200, 300, 400, 500};
  EXPECT_EQ(slo_search(ladder, [](double r) { return r <= 350; }), 300);
  EXPECT_EQ(slo_search(ladder, [](double) { return true; }), 500);
  EXPECT_EQ(slo_search(ladder, [](double) { return false; }), 0);
}

TEST(SloSearch, IsMonotoneInTheLimit) {
  const std::vector<double> ladder = {100, 150, 200, 250, 300, 350, 400};
  double previous = 0;
  for (double knee = 0; knee <= 450; knee += 10) {
    const double got = slo_search(ladder, [&](double r) { return r <= knee; });
    EXPECT_GE(got, previous) << "knee " << knee;
    previous = got;
  }
}

TEST(SloSearch, NeverReportsARateAboveAFailedRung) {
  const std::vector<double> ladder = {100, 200, 300, 400};
  // 200 fails but 300 passes by chance: the search must stop at 100.
  EXPECT_EQ(slo_search(ladder, [](double r) { return r != 200; }), 100);
}

/// Runs a workload twice with the same seed; every modeled metric must
/// repeat bit for bit.
void expect_modeled_repeat(const std::string& workload, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = 1;
  o.seconds = 0;  // the minimum number of repetitions
  o.trace = trace;
  o.svc.rate_rpmc = 300;
  o.svc.ladder_rpmc = {250, 300};
  o.svc.slo_cycles = 200'000;
  const Report first = run_workload(o);
  const Report second = run_workload(o);
  ASSERT_TRUE(first.correct) << workload;
  ASSERT_TRUE(second.correct) << workload;
  ASSERT_EQ(first.metrics.size(), second.metrics.size());
  std::size_t modeled = 0;
  for (std::size_t i = 0; i < first.metrics.size(); ++i) {
    ASSERT_EQ(first.metrics[i].name, second.metrics[i].name);
    if (!first.metrics[i].modeled) continue;
    ++modeled;
    EXPECT_EQ(first.metrics[i].value, second.metrics[i].value)
        << workload << " " << first.metrics[i].name;
  }
  EXPECT_GT(modeled, 0u);
}

TEST(Repeatability, ModeledMetricsRepeatExactlyForOneSeed) {
  for (const std::string& w : workload_names()) {
    expect_modeled_repeat(w, /*trace=*/false);
    expect_modeled_repeat(w, /*trace=*/true);
  }
}

}  // namespace
}  // namespace perfbench

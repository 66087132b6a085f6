// Microbench for the simulation kernel (sim/scheduler.hpp): exact
// per-cycle stepping vs the fast path (one quiescence poll per iteration,
// then skip, macro-step grant or exact step), over synthetic component
// graphs with four activity profiles:
//
//   idle    — one slow pulse source, a long relay chain: almost every
//             cycle is globally quiet, so the fast path skips nearly all
//             of them.
//   steady  — several fast sources keep most components busy most
//             cycles: global quiescence is rare, so the fast path mostly
//             pays its poll on top of an exact step (its worst case).
//   bursty  — long quiet gaps separating dense bursts: the fast path
//             skips the gaps and pays dispatch only inside bursts.
//   macro_steady — one source whose per-cycle work is data-dependent
//             (not a linear counter), so it can never report quiet and
//             exact stepping must dispatch it every single cycle. Its
//             macro_step() fuses the inter-emit span into one granted
//             call: this is the steady-graph dispatch metric,
//             self-checked to cut kernel dispatches per simulated cycle
//             by at least 3x against exact stepping.
//
// Self-verifying: both stepping strategies must produce bit-identical
// component state (pop traces, signatures, counters) — any divergence is
// a kernel bug and exits non-zero. Emits BENCH_sim_kernel.json with the
// deterministic work and dispatch counts (gated exactly via *_sim_cycles)
// plus machine-dependent wall-clock and derived events/sec /
// dispatch-overhead metrics (informational; compare ratios across hosts,
// not nanoseconds).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "sim/scheduler.hpp"

namespace wfasic {
namespace {

/// Emits `burst` tokens on consecutive cycles, then sleeps `gap` cycles.
/// burst = 1 makes it a plain periodic source.
class BurstSource final : public sim::Component {
 public:
  BurstSource(std::string name, sim::cycle_t burst, sim::cycle_t gap,
              sim::cycle_t phase, std::deque<sim::cycle_t>* out)
      : sim::Component(std::move(name)),
        burst_(burst),
        gap_(gap),
        countdown_(phase),
        out_(out) {}

  void tick(sim::cycle_t now) override {
    if (countdown_ > 0) {
      --countdown_;
      return;
    }
    out_->push_back(now);
    ++emitted_;
    ++in_burst_;
    if (in_burst_ >= burst_) {
      in_burst_ = 0;
      countdown_ = gap_;
    }
  }
  [[nodiscard]] sim::cycle_t quiet_for(sim::cycle_t /*now*/) const override {
    return countdown_;
  }
  void skip_quiet(sim::cycle_t n) override { countdown_ -= n; }

  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

 private:
  sim::cycle_t burst_;
  sim::cycle_t gap_;
  sim::cycle_t countdown_;
  sim::cycle_t in_burst_ = 0;
  std::deque<sim::cycle_t>* out_;
  std::uint64_t emitted_ = 0;
};

/// A source whose per-cycle work is an xorshift state update — data
/// dependent, not a pure linear counter — so quiet_for() must report 0
/// on every cycle and exact stepping has to dispatch it per cycle.
/// Every `period` cycles the tick is externally visible (emits a token
/// stamped with the evolving state). macro_step() proves the component
/// steady: it runs the same state updates fused, stopping one cycle
/// before the emitting tick, which then runs as a normal tick.
class MacroSource final : public sim::Component {
 public:
  MacroSource(std::string name, sim::cycle_t period,
              std::deque<sim::cycle_t>* out)
      : sim::Component(std::move(name)), period_(period), out_(out) {}

  void tick(sim::cycle_t now) override {
    advance_state();
    ++phase_;
    if (phase_ >= period_) {
      phase_ = 0;
      out_->push_back(now + static_cast<sim::cycle_t>(state_ & 3));
      ++emitted_;
    }
  }
  // The per-cycle state update is not a linear counter update, so no
  // cycle is ever quiet — the honest report is 0 every cycle.
  [[nodiscard]] sim::cycle_t quiet_for(sim::cycle_t /*now*/) const override {
    return 0;
  }

  [[nodiscard]] sim::cycle_t macro_step(sim::cycle_t /*now*/,
                                        sim::cycle_t budget) override {
    // Fuse up to the cycle *before* the next emitting tick: those ticks
    // only mutate private state (state_, phase_), never the output queue.
    const sim::cycle_t until_emit = period_ - 1 - phase_;
    const sim::cycle_t take = std::min(budget, until_emit);
    for (sim::cycle_t i = 0; i < take; ++i) advance_state();
    phase_ += take;
    return take;
  }

  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t state() const { return state_; }

 private:
  void advance_state() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
  }

  sim::cycle_t period_;
  sim::cycle_t phase_ = 0;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::deque<sim::cycle_t>* out_;
  std::uint64_t emitted_ = 0;
};

/// Pops one token per cycle, forwards downstream; order- and
/// timing-sensitive signature so any stepping divergence is caught.
class Relay final : public sim::Component {
 public:
  Relay(std::string name, std::deque<sim::cycle_t>* in,
        std::deque<sim::cycle_t>* out)
      : sim::Component(std::move(name)), in_(in), out_(out) {}

  void tick(sim::cycle_t now) override {
    if (in_->empty()) {
      ++idle_cycles_;  // quiet-tick body: pure linear counter update
      return;
    }
    const sim::cycle_t born = in_->front();
    in_->pop_front();
    ++popped_;
    signature_ = signature_ * 1315423911u + now * 3u + born;
    if (out_ != nullptr) out_->push_back(now);
  }
  [[nodiscard]] sim::cycle_t quiet_for(sim::cycle_t /*now*/) const override {
    return in_->empty() ? kQuietForever : 0;
  }
  void skip_quiet(sim::cycle_t n) override { idle_cycles_ += n; }

  [[nodiscard]] std::uint64_t popped() const { return popped_; }
  [[nodiscard]] std::uint64_t signature() const { return signature_; }
  [[nodiscard]] std::uint64_t idle_cycles() const { return idle_cycles_; }

 private:
  std::deque<sim::cycle_t>* in_;
  std::deque<sim::cycle_t>* out_;
  std::uint64_t popped_ = 0;
  std::uint64_t signature_ = 0;
  std::uint64_t idle_cycles_ = 0;
};

struct WorkloadSpec {
  const char* name;
  std::size_t sources;
  sim::cycle_t burst;
  sim::cycle_t gap;
  std::size_t relays;
  sim::cycle_t cycles;
  /// > 0: the sources are MacroSources with this emit period instead of
  /// BurstSources (exactly one source, so the single-due grant rule of
  /// Scheduler::grant can fire between emits).
  sim::cycle_t macro_period = 0;
};

// Graph sizes chosen so the whole bench (4 workloads x 2 strategies x
// kReps) finishes well under a second as a smoke test while each timed
// section is long enough to resolve.
constexpr WorkloadSpec kWorkloads[] = {
    {"idle", 1, 1, 5'000, 8, 1'000'000},
    {"steady", 4, 1, 2, 8, 200'000},
    {"bursty", 2, 32, 2'000, 8, 500'000},
    {"macro_steady", 1, 0, 0, 2, 200'000, /*macro_period=*/16},
};

/// Index 0 is exact stepping, index 1 the fast path.
constexpr const char* kStrategyNames[] = {"exact", "fast"};
constexpr int kNumStrategies = 2;

struct Graph {
  sim::Scheduler sched;
  std::vector<std::unique_ptr<std::deque<sim::cycle_t>>> queues;
  std::vector<std::unique_ptr<BurstSource>> sources;
  std::vector<std::unique_ptr<MacroSource>> macro_sources;
  std::vector<std::unique_ptr<Relay>> relays;

  explicit Graph(const WorkloadSpec& spec) {
    for (std::size_t i = 0; i <= spec.relays; ++i) {
      queues.push_back(std::make_unique<std::deque<sim::cycle_t>>());
    }
    for (std::size_t i = 0; i < spec.relays; ++i) {
      relays.push_back(std::make_unique<Relay>(
          "relay" + std::to_string(i), queues[i].get(),
          i + 1 < spec.relays ? queues[i + 1].get() : nullptr));
    }
    if (spec.macro_period > 0) {
      for (std::size_t i = 0; i < spec.sources; ++i) {
        macro_sources.push_back(std::make_unique<MacroSource>(
            "src" + std::to_string(i), spec.macro_period, queues[0].get()));
      }
    } else {
      for (std::size_t i = 0; i < spec.sources; ++i) {
        sources.push_back(std::make_unique<BurstSource>(
            "src" + std::to_string(i), spec.burst,
            spec.gap + static_cast<sim::cycle_t>(i), /*phase=*/i,
            queues[0].get()));
      }
    }
    for (auto& s : sources) sched.add(s.get(), /*needs_commit=*/false);
    for (auto& s : macro_sources) sched.add(s.get(), /*needs_commit=*/false);
    for (auto& r : relays) sched.add(r.get(), /*needs_commit=*/false);
  }

  /// Everything observable, for cross-strategy bit-identity checks.
  [[nodiscard]] std::vector<std::uint64_t> observation() const {
    std::vector<std::uint64_t> obs{sched.now()};
    for (const auto& s : sources) obs.push_back(s->emitted());
    for (const auto& s : macro_sources) {
      obs.push_back(s->emitted());
      obs.push_back(s->state());
    }
    for (const auto& r : relays) {
      obs.push_back(r->popped());
      obs.push_back(r->signature());
      obs.push_back(r->idle_cycles());
    }
    return obs;
  }

  /// Non-quiet ticks actually performed ("work events"): emissions plus
  /// pops. Deterministic — identical under every stepping strategy.
  [[nodiscard]] std::uint64_t work_events() const {
    std::uint64_t n = 0;
    for (const auto& s : sources) n += s->emitted();
    for (const auto& s : macro_sources) n += s->emitted();
    for (const auto& r : relays) n += r->popped();
    return n;
  }
};

struct RunResult {
  std::vector<std::uint64_t> observation;
  std::uint64_t work_events = 0;
  std::uint64_t wall_ns = 0;
  /// Kernel dispatches issued: per-component tick() calls plus fused
  /// macro_step() calls. Deterministic per strategy.
  std::uint64_t dispatches = 0;
};

RunResult run_workload(const WorkloadSpec& spec, bool fast) {
  Graph graph(spec);
  const auto never = [] { return false; };
  const bench::WallTimer timer;
  if (fast) {
    (void)graph.sched.run_until(never, spec.cycles, /*skip_quiescent=*/true);
  } else {
    graph.sched.step_n(spec.cycles);
  }
  RunResult result;
  result.wall_ns = timer.elapsed_ns();
  result.observation = graph.observation();
  result.work_events = graph.work_events();
  const sim::Scheduler::DispatchStats& st = graph.sched.dispatch_stats();
  result.dispatches = st.ticks + st.macro_dispatches;
  return result;
}

struct WallStats {
  std::uint64_t min = 0;
  double median = 0;
  double stddev = 0;
};

WallStats wall_stats(std::vector<std::uint64_t> ns) {
  std::sort(ns.begin(), ns.end());
  WallStats w;
  w.min = ns.front();
  w.median = ns.size() % 2 != 0
                 ? static_cast<double>(ns[ns.size() / 2])
                 : 0.5 * (static_cast<double>(ns[ns.size() / 2 - 1]) +
                          static_cast<double>(ns[ns.size() / 2]));
  double mean = 0;
  for (const std::uint64_t v : ns) mean += static_cast<double>(v);
  mean /= static_cast<double>(ns.size());
  double var = 0;
  for (const std::uint64_t v : ns) {
    const double d = static_cast<double>(v) - mean;
    var += d * d;
  }
  w.stddev = std::sqrt(var / static_cast<double>(ns.size()));
  return w;
}

int run() {
  bench::BenchReport report("sim_kernel");
  bool ok = true;
  constexpr int kReps = 5;  // best-of-N: wall time is noisy, state is not

  bench::print_header(
      "Simulation-kernel dispatch: exact vs fast path",
      "(identical component state; host wall-clock per strategy, best of 5)");
  std::printf("%-12s %11s %10s %10s %9s\n", "workload", "work events",
              "exact ms", "fast ms", "speedup");
  bench::print_rule(56);

  for (const WorkloadSpec& spec : kWorkloads) {
    std::vector<std::vector<std::uint64_t>> samples(kNumStrategies);
    std::uint64_t dispatches[kNumStrategies] = {0, 0};
    std::vector<std::uint64_t> reference;
    std::uint64_t work = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (int s = 0; s < kNumStrategies; ++s) {
        const RunResult r = run_workload(spec, /*fast=*/s == 1);
        samples[s].push_back(r.wall_ns);
        dispatches[s] = r.dispatches;
        if (reference.empty()) {
          reference = r.observation;
          work = r.work_events;
        } else if (r.observation != reference) {
          std::fprintf(stderr,
                       "FAIL: %s: strategy %s diverged from exact "
                       "stepping (kernel bug)\n",
                       spec.name, kStrategyNames[s]);
          ok = false;
        }
      }
    }
    WallStats stats[kNumStrategies];
    for (int s = 0; s < kNumStrategies; ++s) stats[s] = wall_stats(samples[s]);
    const double speedup = static_cast<double>(stats[0].min) /
                           static_cast<double>(stats[1].min);
    std::printf("%-12s %11llu %10.3f %10.3f %8.2fx\n", spec.name,
                static_cast<unsigned long long>(work),
                static_cast<double>(stats[0].min) / 1e6,
                static_cast<double>(stats[1].min) / 1e6, speedup);

    const std::string p = spec.name;
    // Deterministic keys (exact-gated): the simulated span, the work
    // performed inside it, and the kernel dispatch counts per strategy
    // must never drift.
    report.metric(p + "_sim_cycles", static_cast<double>(spec.cycles));
    report.metric(p + "_work_events_sim_cycles",
                  static_cast<double>(work));
    report.metric(p + "_exact_dispatches_sim_cycles",
                  static_cast<double>(dispatches[0]));
    report.metric(p + "_fast_dispatches_sim_cycles",
                  static_cast<double>(dispatches[1]));
    // Host wall-clock keys (informational, machine-dependent): minima,
    // medians and stddevs per strategy so a flapping CI number is
    // diagnosable from the report alone.
    for (int s = 0; s < kNumStrategies; ++s) {
      const std::string stem = "wall_ns_" + p + "_" + kStrategyNames[s];
      report.metric(stem, static_cast<double>(stats[s].min));
      report.metric("host_" + stem + "_median", stats[s].median);
      report.metric("host_" + stem + "_stddev", stats[s].stddev);
    }
    report.metric("host_wall_" + p + "_fast_speedup", speedup);
    report.metric("host_wall_" + p + "_events_per_sec",
                  static_cast<double>(work) /
                      (static_cast<double>(stats[1].min) / 1e9));
    report.metric("host_wall_" + p + "_dispatch_ns_per_event",
                  static_cast<double>(stats[1].min) /
                      static_cast<double>(std::max<std::uint64_t>(work, 1)));

    if (spec.macro_period > 0) {
      // The steady-graph dispatch metric: with a component exact stepping
      // must dispatch every cycle, granted macro-steps must cut kernel
      // dispatches per simulated cycle by at least 3x.
      const double reduction = static_cast<double>(dispatches[0]) /
                               static_cast<double>(dispatches[1]);
      report.metric(p + "_dispatch_reduction", reduction);
      std::printf("%-12s exact %llu dispatches -> fast %llu "
                  "(%.1fx fewer per simulated cycle)\n",
                  "", static_cast<unsigned long long>(dispatches[0]),
                  static_cast<unsigned long long>(dispatches[1]), reduction);
      if (reduction < 3.0) {
        std::fprintf(stderr,
                     "FAIL: %s: macro-step dispatch reduction %.2fx < 3x\n",
                     spec.name, reduction);
        ok = false;
      }
    }
  }
  bench::print_rule(56);

  if (!report.write()) ok = false;
  if (ok) {
    std::printf("OK: both stepping strategies produced bit-identical "
                "state.\n");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace wfasic

int main() { return wfasic::run(); }

// Simulation kernel: per-cycle two-phase stepping plus one quiescence-
// polled fast path.
//
// Components register with a Scheduler and are ticked once per cycle in two
// phases: tick() (combinational work / issue requests) then commit()
// (sequential state update), which lets two components exchange data in the
// same cycle without order-dependence bugs.
//
// Quiescence protocol: a component may report a span of upcoming cycles
// whose ticks are no-ops or pure linear counter updates (countdowns, stall
// counters) via quiet_for(), and apply them in bulk via skip_quiet().
// The fast path polls every component once (poll()) and then takes one of
// three moves, each bit-identical to exact stepping by construction:
//
//   - skip: nobody must tick now, so the span up to the earliest report is
//     compressed into one skip() call;
//   - grant: exactly one component must tick now, so it may advance on its
//     own in one fused macro_step() call (grant()) up to the earliest
//     other report, while every other component bulk-applies the same
//     span through skip_quiet();
//   - exact step: two or more components must tick, or the due component
//     declines its grant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/trace.hpp"

namespace wfasic::sim {

/// Base class for everything that owns per-cycle behaviour.
class Component {
 public:
  /// quiet_for() return value meaning "idle until some other component
  /// wakes me" (no self-scheduled event of my own).
  static constexpr cycle_t kQuietForever =
      std::numeric_limits<cycle_t>::max();

  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Phase 1: observe current state, issue requests.
  virtual void tick(cycle_t now) = 0;
  /// Phase 2: latch new state. Default: nothing.
  virtual void commit(cycle_t now) { (void)now; }

  /// Quiescence report: the number of upcoming cycles for which this
  /// component's tick is a no-op or a pure linear counter update — no
  /// FIFO/queue push or pop, no state-machine transition, no interaction
  /// with another component. 0 means "I must tick this cycle" (the safe
  /// default); kQuietForever means "idle until another component acts".
  /// The report must stay valid for as long as no other component performs
  /// a non-quiet tick; the Scheduler re-polls after every such tick.
  [[nodiscard]] virtual cycle_t quiet_for(cycle_t now) const {
    (void)now;
    return 0;
  }
  /// Applies `n` ticks' worth of quiet updates in bulk. Called only with
  /// n <= the component's own quiet_for() report, and only when no other
  /// component acted visibly inside the span (the state the skipped ticks
  /// would have read is still in place).
  virtual void skip_quiet(cycle_t n) { (void)n; }

  /// Compiled macro-step contract (the steady-state fast path): advance up
  /// to `budget` cycles of this component's own behaviour in one fused
  /// call, and return the cycles actually consumed (0 = not applicable
  /// here, fall back to per-cycle stepping).
  ///
  /// The Scheduler only calls this when this component is the only one
  /// that must tick and every other component is quiet for at least
  /// `budget` cycles (Scheduler::grant), so the implementation may run its
  /// hot loop without re-checking FIFO handshakes. In exchange it must
  /// guarantee, for the consumed span:
  ///   - no externally-visible effect: nothing another component or the
  ///     host could observe (queue/FIFO pushes, idle() flips, interrupt
  ///     conditions) happens inside the span — the fused loop stops one
  ///     cycle *before* its first externally-visible tick, which then runs
  ///     as a normal tick();
  ///   - observational identity: at span end, every externally-queriable
  ///     value (counters, quiet_for() schedule, results) reads exactly as
  ///     if the span had been stepped per cycle;
  ///   - budget compliance: the return value never exceeds `budget`
  ///     (enforced by an assert in the Scheduler).
  /// The default declines, so components are per-cycle unless they opt in.
  [[nodiscard]] virtual cycle_t macro_step(cycle_t now, cycle_t budget) {
    (void)now;
    (void)budget;
    return 0;
  }

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Wires a trace sink into this component. Each component gets a track
  /// named after itself; emission is observational only, so wiring (or not)
  /// never changes simulated behaviour. Passing nullptr unwires.
  void set_trace(TraceSink* sink) {
    trace_ = sink;
    trace_track_ = sink != nullptr ? sink->register_track(name_) : 0;
  }

 protected:
  /// Non-null and enabled iff this component should emit trace events.
  /// The double test compiles to one pointer load + flag test — the no-op
  /// fast path when tracing is off.
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled();
  }
  [[nodiscard]] TraceSink* trace() const { return trace_; }
  [[nodiscard]] std::uint32_t trace_track() const { return trace_track_; }

 private:
  std::string name_;
  TraceSink* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

/// How a bounded Scheduler::run_until ended.
enum class RunUntilStatus : std::uint8_t {
  kDone,     ///< the predicate became true
  kTimeout,  ///< `max_cycles` elapsed first (likely deadlock)
};

struct RunUntilResult {
  RunUntilStatus status = RunUntilStatus::kDone;
  cycle_t now = 0;  ///< scheduler time at exit

  [[nodiscard]] bool timed_out() const {
    return status == RunUntilStatus::kTimeout;
  }
};

/// Advances a set of components cycle by cycle. Does not own them.
class Scheduler {
 public:
  /// Registers a component. `needs_commit = false` keeps it off the
  /// commit-phase list (most components never override commit(); skipping
  /// the empty virtual call halves the per-cycle dispatch cost).
  /// Registering the same component twice would double-tick it — silent
  /// state corruption — so it is rejected.
  void add(Component* component, bool needs_commit = true) {
    WFASIC_REQUIRE(component != nullptr, "Scheduler::add: null component");
    WFASIC_REQUIRE(std::find(components_.begin(), components_.end(),
                             component) == components_.end(),
                   "Scheduler::add: component already registered (duplicate "
                   "registration would double-tick it)");
    components_.push_back(component);
    if (needs_commit) commit_list_.push_back(component);
  }

  [[nodiscard]] cycle_t now() const { return now_; }

  /// Kernel dispatch accounting (observational, never read by simulation
  /// logic): how many tick() dispatches and fused macro-steps the kernel
  /// issued. `ticks / simulated cycles` is the dispatch density the
  /// bench/sim_kernel steady-graph metric tracks across strategies.
  struct DispatchStats {
    std::uint64_t ticks = 0;             ///< component tick() dispatches
    std::uint64_t macro_dispatches = 0;  ///< fused macro_step() calls
    std::uint64_t macro_cycles = 0;      ///< cycles consumed by macro-steps
  };
  [[nodiscard]] const DispatchStats& dispatch_stats() const { return stats_; }

  /// Runs exactly one cycle.
  void step() { step_n(1); }

  /// Runs exactly `n` cycles with the dispatch lists hoisted out of the
  /// per-cycle loop (the batched stepper behind driver/engine wait loops).
  void step_n(cycle_t n) {
    Component* const* tick_list = components_.data();
    const std::size_t tick_count = components_.size();
    Component* const* commit_list = commit_list_.data();
    const std::size_t commit_count = commit_list_.size();
    stats_.ticks += static_cast<std::uint64_t>(tick_count) * n;
    for (cycle_t c = 0; c < n; ++c) {
      for (std::size_t i = 0; i < tick_count; ++i) tick_list[i]->tick(now_);
      for (std::size_t i = 0; i < commit_count; ++i) {
        commit_list[i]->commit(now_);
      }
      ++now_;
    }
  }

  /// One quiescence poll of every component at now_.
  struct Poll {
    /// Components that must tick now (quiet_for() == 0), saturated at 2:
    /// 0 = skip, 1 = grant candidate, 2 = two or more (exact step).
    unsigned due = 0;
    std::size_t due_idx = 0;  ///< the due component's index when due == 1
    /// The smallest non-zero report (kQuietForever when there is none).
    cycle_t horizon = Component::kQuietForever;
  };

  /// Polls every component's quiet_for() in registration order, stopping
  /// at the second due component (nothing can be skipped or granted then).
  [[nodiscard]] Poll poll() const {
    Poll p;
    for (std::size_t i = 0; i < components_.size(); ++i) {
      const cycle_t q = components_[i]->quiet_for(now_);
      if (q != 0) {
        p.horizon = std::min(p.horizon, q);
      } else if (++p.due == 2) {
        break;
      } else {
        p.due_idx = i;
      }
    }
    return p;
  }

  /// The number of cycles every component reports quiescent from now
  /// (minimum over components). 0 means some component must tick this
  /// cycle; kQuietForever means nothing is self-scheduled.
  [[nodiscard]] cycle_t quiescent_cycles() const {
    const Poll p = poll();
    return p.due == 0 ? p.horizon : 0;
  }

  /// Fast-forwards `n` cycles of system-wide quiescence: bulk-applies the
  /// quiet counter updates and advances now_. Only valid for
  /// n <= quiescent_cycles(). A span that would overflow the cycle counter
  /// is a caller bug (kQuietForever is "no event", not a distance), so it
  /// is rejected here rather than wrapping now_ silently.
  void skip(cycle_t n) {
    if (n == 0) return;
    WFASIC_REQUIRE(n < Component::kQuietForever - now_,
                   "Scheduler::skip: span would overflow the cycle counter "
                   "(a kQuietForever-sized span is not skippable)");
    for (Component* c : components_) c->skip_quiet(n);
    now_ += n;
  }

  /// Offers the single due component of `p` (a poll() taken at now_ with
  /// p.due == 1) one fused macro_step() with a budget of at most
  /// min(p.horizon, max_span), then bulk-applies the consumed span to
  /// every other component via skip_quiet(). Every other component is
  /// quiet for at least p.horizon cycles and the span is externally
  /// invisible by the macro_step() contract, so their skipped ticks would
  /// have read exactly the state they read now. Returns the cycles
  /// consumed; 0 means no grant (a budget of one cycle, which a plain tick
  /// covers, or the component declined) and the caller steps exactly.
  cycle_t grant(const Poll& p, cycle_t max_span) {
    WFASIC_ASSERT(p.due == 1, "Scheduler::grant: needs exactly one due");
    const cycle_t budget = std::min(p.horizon, max_span);
    if (budget <= 1) return 0;
    const cycle_t used = components_[p.due_idx]->macro_step(now_, budget);
    if (used == 0) return 0;
    WFASIC_ASSERT(used <= budget,
                  "Scheduler::grant: macro_step overran its budget");
    for (std::size_t i = 0; i < components_.size(); ++i) {
      if (i != p.due_idx) components_[i]->skip_quiet(used);
    }
    ++stats_.macro_dispatches;
    stats_.macro_cycles += used;
    now_ += used;
    return used;
  }

  /// Snapshot restore (sim/snapshot.hpp): rewinds the clock and dispatch
  /// accounting to a saved point — the Scheduler's entire architectural
  /// state.
  void restore_clock(cycle_t now, const DispatchStats& stats) {
    now_ = now;
    stats_ = stats;
  }

  /// Runs until `done()` returns true (checked between cycles) or
  /// `max_cycles` elapse. A timeout is reported as a typed status, never
  /// an abort — library code must not kill the process on a deadlock
  /// guard; callers (engine, driver, tests) decide how loud to be.
  ///
  /// With `skip_quiescent` each iteration polls first: a span where every
  /// component is quiet is fast-forwarded in one skip(), a span with a
  /// single due component is offered to it as a grant(), and only
  /// otherwise is the cycle stepped exactly. The predicate is then checked
  /// on that coarser grid, so this is only valid for predicates that can
  /// flip solely on non-quiet, externally-visible ticks (e.g. FIFO/queue
  /// occupancy, state-machine phase) — not for predicates on now() or
  /// linear counters.
  RunUntilResult run_until(const std::function<bool()>& done,
                           cycle_t max_cycles, bool skip_quiescent = false) {
    while (!done()) {
      if (now_ >= max_cycles) {
        return {RunUntilStatus::kTimeout, now_};
      }
      if (skip_quiescent) {
        const Poll p = poll();
        if (p.due == 0) {
          skip(std::min(p.horizon, max_cycles - now_));
          continue;
        }
        if (p.due == 1 && grant(p, max_cycles - now_) > 0) continue;
      }
      step_n(1);
    }
    return {RunUntilStatus::kDone, now_};
  }

 private:
  std::vector<Component*> components_;
  std::vector<Component*> commit_list_;
  cycle_t now_ = 0;
  DispatchStats stats_;
};

}  // namespace wfasic::sim

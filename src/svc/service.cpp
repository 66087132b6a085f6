#include "svc/service.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace wfasic::svc {

namespace {

std::vector<unsigned> lane_weights(const std::vector<LaneConfig>& lanes) {
  std::vector<unsigned> weights;
  weights.reserve(lanes.size());
  for (const LaneConfig& lane : lanes) weights.push_back(lane.weight);
  return weights;
}

ServiceConfig normalized(ServiceConfig cfg) {
  if (cfg.lanes.empty()) cfg.lanes.push_back(LaneConfig{});
  WFASIC_REQUIRE(cfg.max_batch_pairs > 0,
                 "AlignService: max_batch_pairs must be positive");
  return cfg;
}

}  // namespace

AlignService::AlignService(const ServiceConfig& cfg)
    : cfg_(normalized(cfg)),
      engine_(cfg_.engine),
      wfq_(lane_weights(cfg_.lanes)),
      queues_(cfg_.lanes.size()),
      tick_(cfg_.engine.device.poll_quantum),
      max_inflight_(cfg_.max_inflight_shards != 0
                        ? cfg_.max_inflight_shards
                        : 2 * engine_.num_devices()),
      recorder_(cfg_.trace.ring_capacity, cfg_.trace.keep_all) {
  stats_.lanes.resize(cfg_.lanes.size());
}

void AlignService::trace(TraceEventKind kind, std::uint64_t id, unsigned lane,
                         std::uint32_t device, std::uint64_t aux0,
                         std::uint64_t aux1, std::uint64_t ts_override,
                         std::uint64_t dur) {
  if (!recorder_.enabled()) return;
  RequestTraceEvent ev;
  ev.kind = kind;
  ev.ts = ts_override != kTraceNow ? ts_override : now_;
  ev.dur = dur;
  ev.id = id;
  ev.lane = lane;
  ev.device = device;
  ev.aux0 = aux0;
  ev.aux1 = aux1;
  recorder_.record(ev);
}

TraceDump AlignService::trace_dump() const {
  TraceDump dump;
  dump.now = now_;
  dump.lanes = num_lanes();
  dump.devices = engine_.num_devices();
  dump.recorded = recorder_.recorded();
  dump.dropped = recorder_.events_dropped();
  dump.anomalies = recorder_.anomalies();
  dump.last_anomaly = recorder_.last_anomaly();
  dump.last_anomaly_cycle = recorder_.last_anomaly_cycle();
  dump.events = recorder_.export_events();
  return dump;
}

void AlignService::export_metrics(common::MetricsRegistry& reg) const {
  reg.clear();
  engine::export_to_registry(engine_.metrics(), reg, "engine");
  reg.counter("svc_now") = now_;
  reg.counter("svc_shards_dispatched") = stats_.shards_dispatched;
  reg.counter("svc_shard_attempts") = stats_.shard_attempts;
  reg.counter("svc_shards_failed") = stats_.shards_failed;
  reg.counter("svc_hedges_launched") = stats_.hedges_launched;
  reg.counter("svc_duplicates_suppressed") = stats_.duplicates_suppressed;
  reg.counter("svc_cancels_attempted") = stats_.cancels_attempted;
  reg.counter("svc_cancels_succeeded") = stats_.cancels_succeeded;
  reg.counter("svc_sw_shards") = stats_.sw_shards;
  reg.counter("svc_preemptions") = stats_.preemptions;
  reg.counter("svc_resumes") = stats_.resumes;
  reg.counter("svc_inflight_high_water") = stats_.inflight_high_water;
  reg.counter("svc_trace_recorded") = recorder_.recorded();
  reg.counter("svc_trace_dropped") = recorder_.dropped();
  reg.counter("svc_trace_anomalies") = recorder_.anomalies();
  for (std::size_t i = 0; i < stats_.lanes.size(); ++i) {
    const LaneStats& ls = stats_.lanes[i];
    const std::string p = "svc_lane" + std::to_string(i);
    reg.counter(p + "_submitted") = ls.submitted;
    reg.counter(p + "_accepted") = ls.accepted;
    reg.counter(p + "_would_block") = ls.would_block;
    reg.counter(p + "_rejected") = ls.rejected;
    reg.counter(p + "_shed") = ls.shed;
    reg.counter(p + "_completed_ok") = ls.completed_ok;
    reg.counter(p + "_deadline_miss") = ls.deadline_miss;
    reg.counter(p + "_hedges_launched") = ls.hedges_launched;
    reg.counter(p + "_hedges_won") = ls.hedges_won;
    reg.counter(p + "_retries") = ls.retries;
    reg.counter(p + "_sw_resolved") = ls.sw_resolved;
    reg.counter(p + "_device_cycles") = ls.device_cycles;
    reg.counter(p + "_sw_cycles") = ls.sw_cycles;
    reg.counter(p + "_queue_high_water") = ls.queue_high_water;
    reg.histogram(p + "_latency_cycles") = ls.latency;
    // Per-tenant SLO attainment: the fraction of terminal requests that
    // completed within their deadline, plus the failure-mode split.
    const std::uint64_t terminal = ls.completed_ok + ls.deadline_miss + ls.shed;
    const double denom =
        terminal != 0 ? static_cast<double>(terminal) : 1.0;
    reg.gauge(p + "_slo_attainment") =
        terminal != 0 ? static_cast<double>(ls.completed_ok) / denom : 1.0;
    reg.gauge(p + "_miss_rate") = static_cast<double>(ls.deadline_miss) / denom;
    reg.gauge(p + "_shed_rate") = static_cast<double>(ls.shed) / denom;
    reg.gauge(p + "_hedge_win_rate") =
        terminal != 0 ? static_cast<double>(ls.hedges_won) / denom : 0.0;
  }
}

SubmitResult AlignService::submit(unsigned lane, std::string a, std::string b,
                                  std::uint64_t deadline_cycle) {
  WFASIC_REQUIRE(lane < queues_.size(), "AlignService::submit: bad lane");
  const LaneConfig& lc = cfg_.lanes[lane];
  LaneStats& ls = stats_.lanes[lane];
  ++ls.submitted;

  std::uint64_t deadline = deadline_cycle;
  if (deadline == 0 && lc.default_deadline_cycles != 0) {
    deadline = now_ + lc.default_deadline_cycles;
  }
  if (deadline != 0 && deadline <= now_) {
    // Dead on arrival: shed without spending queue space or device
    // cycles. The client still gets its one completion.
    const RequestId id = next_request_++;
    trace(TraceEventKind::kShedAdmission, id, lane,
          RequestTraceEvent::kNoDevice, deadline);
    ServiceCompletion shed;
    shed.id = id;
    shed.lane = lane;
    shed.outcome = RequestOutcome::kShed;
    shed.arrival_cycle = now_;
    shed.complete_cycle = now_;
    shed.deadline = deadline;
    emit(std::move(shed));
    return {Admission::kShedExpired, id};
  }
  if (cfg_.degrade == DegradeMode::kRejectNew && !fleet_usable()) {
    ++ls.rejected;
    trace(TraceEventKind::kRejected, 0, lane);
    return {Admission::kRejected, 0};
  }
  if (queues_[lane].size() >= lc.queue_capacity) {
    ++ls.would_block;
    trace(TraceEventKind::kWouldBlock, 0, lane, RequestTraceEvent::kNoDevice,
          queues_[lane].size());
    return {Admission::kWouldBlock, 0};
  }

  QueuedRequest rq;
  rq.id = next_request_++;
  rq.pair.a = std::move(a);
  rq.pair.b = std::move(b);
  rq.arrival = now_;
  rq.deadline = deadline;
  queues_[lane].push_back(std::move(rq));
  ++ls.accepted;
  ls.queue_high_water = std::max(ls.queue_high_water, queues_[lane].size());
  trace(TraceEventKind::kAdmit, next_request_ - 1, lane,
        RequestTraceEvent::kNoDevice, deadline);
  return {Admission::kAccepted, next_request_ - 1};
}

std::vector<ServiceCompletion> AlignService::harvest() {
  std::vector<ServiceCompletion> out = std::move(completions_);
  completions_.clear();
  return out;
}

void AlignService::advance_to(std::uint64_t cycle) {
  WFASIC_REQUIRE(cycle >= now_,
                 "AlignService::advance_to: the clock cannot move backwards");
  now_ = cycle;
}

bool AlignService::busy() const {
  if (!shards_.empty()) return true;
  for (const auto& queue : queues_) {
    if (!queue.empty()) return true;
  }
  return false;
}

std::size_t AlignService::inflight_shards() const {
  // Parked (preempted) shards hold no device and make no progress, so
  // they do not occupy an in-flight slot — that is exactly what lets the
  // urgent shard dispatch in their place.
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.resolved || shard.preempted ? 0 : 1;
  }
  return n;
}

bool AlignService::pump() {
  shed_expired_queued();
  cancel_expired_inflight();
  preempt_for_urgent();
  dispatch();
  resume_preempted();
  check_hedges();
  engine_.poll();
  // The poll simulated one quantum of device time: advance the clock
  // BEFORE collecting, so a completion surfaces one tick after its work
  // and modeled latency includes the device time it consumed.
  now_ += tick_;
  collect();
  // Periodic metrics sampling (TraceConfig::sample_interval): re-export
  // into the registry and append one trajectory row. Runs after every
  // scheduling decision of the round, so it observes but never steers.
  if (cfg_.trace.sample_interval != 0 &&
      now_ - last_sample_ >= cfg_.trace.sample_interval) {
    export_metrics(registry_);
    registry_.sample(now_);
    last_sample_ = now_;
  }
  return busy();
}

void AlignService::drain() {
  std::uint64_t rounds = 0;
  while (busy()) {
    pump();
    WFASIC_REQUIRE(++rounds < 100'000'000ULL,
                   "AlignService::drain: service failed to quiesce");
  }
}

void AlignService::emit(ServiceCompletion&& completion) {
  LaneStats& ls = stats_.lanes[completion.lane];
  // The single terminal-accounting point doubles as the single terminal
  // trace point: exactly one kComplete/kDeadlineMiss/kShed per request.
  switch (completion.outcome) {
    case RequestOutcome::kOk:
      ++ls.completed_ok;
      trace(TraceEventKind::kComplete, completion.id, completion.lane,
            RequestTraceEvent::kNoDevice, completion.latency());
      break;
    case RequestOutcome::kDeadlineMiss:
      ++ls.deadline_miss;
      trace(TraceEventKind::kDeadlineMiss, completion.id, completion.lane,
            RequestTraceEvent::kNoDevice,
            completion.complete_cycle - completion.deadline,
            completion.latency());
      recorder_.note_anomaly(AnomalyKind::kDeadlineMiss, now_);
      break;
    case RequestOutcome::kShed:
      ++ls.shed;
      trace(TraceEventKind::kShed, completion.id, completion.lane,
            RequestTraceEvent::kNoDevice, completion.deadline);
      recorder_.note_anomaly(AnomalyKind::kShed, now_);
      break;
  }
  if (completion.outcome != RequestOutcome::kShed) {
    ls.latency.record(completion.latency());
    if (completion.software) ++ls.sw_resolved;
    if (completion.hedged) ++ls.hedges_won;
  }
  completions_.push_back(std::move(completion));
}

void AlignService::shed_expired_queued() {
  for (unsigned lane = 0; lane < queues_.size(); ++lane) {
    auto& queue = queues_[lane];
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->deadline == 0 || it->deadline > now_) {
        ++it;
        continue;
      }
      ServiceCompletion shed;
      shed.id = it->id;
      shed.lane = lane;
      shed.outcome = RequestOutcome::kShed;
      shed.arrival_cycle = it->arrival;
      shed.complete_cycle = now_;
      shed.deadline = it->deadline;
      emit(std::move(shed));
      it = queue.erase(it);
    }
  }
}

void AlignService::cancel_expired_inflight() {
  for (Shard& shard : shards_) {
    if (shard.resolved) continue;
    bool all_expired = true;
    for (const QueuedRequest& rq : shard.reqs) {
      all_expired = all_expired && rq.deadline != 0 && rq.deadline <= now_;
    }
    if (!all_expired) continue;
    // Recall whatever the engine has not launched yet. An attempt already
    // on a device cannot be recalled — its deadline-derived cycle budget
    // bounds it instead, and the shard sheds once every attempt is down.
    bool outstanding = false;
    for (Attempt& attempt : shard.attempts) {
      if (!attempt.outstanding) continue;
      ++stats_.cancels_attempted;
      const bool cancelled = engine_.cancel(attempt.handle);
      if (cancelled) {
        attempt.outstanding = false;
        ++stats_.cancels_succeeded;
      } else {
        outstanding = true;
      }
      trace(TraceEventKind::kCancel, shard.id, shard.lane, attempt.backend,
            cancelled ? 1 : 0);
    }
    if (!outstanding) resolve_shed(shard);
  }
  shards_.erase(
      std::remove_if(shards_.begin(), shards_.end(),
                     [](const Shard& s) {
                       if (!s.resolved) return false;
                       for (const Attempt& a : s.attempts) {
                         if (a.outstanding) return false;
                       }
                       return true;
                     }),
      shards_.end());
}

bool AlignService::urgent_pressure() const {
  const auto urgent = [&](const QueuedRequest& rq) {
    return rq.deadline != 0 && rq.deadline > now_ &&
           rq.deadline - now_ <= cfg_.preempt.urgent_span;
  };
  for (const auto& queue : queues_) {
    for (const QueuedRequest& rq : queue) {
      if (urgent(rq)) return true;
    }
  }
  for (const Shard& shard : shards_) {
    if (shard.resolved || shard.preempted) continue;
    for (const QueuedRequest& rq : shard.reqs) {
      if (urgent(rq)) return true;
    }
  }
  return false;
}

void AlignService::preempt_for_urgent() {
  if (!cfg_.preempt.enabled || !urgent_pressure()) return;
  // A free usable device means the urgent work can dispatch (or launch)
  // without evicting anybody.
  for (unsigned d = 0; d < engine_.num_devices(); ++d) {
    if (engine_.health().usable(d) && engine_.device(d).pending() == 0) {
      return;
    }
  }
  const auto urgent = [&](const QueuedRequest& rq) {
    return rq.deadline != 0 && rq.deadline > now_ &&
           rq.deadline - now_ <= cfg_.preempt.urgent_span;
  };
  // Oldest eligible victim first: a lone hardware attempt, on the device
  // long enough to be worth checkpointing, carrying no urgent deadline of
  // its own. Engine::preempt only succeeds for a device's *active* run,
  // so queued attempts fall through harmlessly.
  for (Shard& shard : shards_) {
    if (shard.resolved || shard.preempted) continue;
    if (now_ - shard.dispatch_cycle < cfg_.preempt.min_runtime) continue;
    if (shard.attempts.size() != 1 || !shard.attempts[0].outstanding ||
        shard.attempts[0].backend == engine_.num_devices()) {
      continue;
    }
    bool shard_urgent = false;
    for (const QueuedRequest& rq : shard.reqs) {
      shard_urgent = shard_urgent || urgent(rq);
    }
    if (shard_urgent) continue;
    if (!engine_.preempt(shard.attempts[0].handle)) continue;
    shard.preempted = true;
    ++stats_.preemptions;
    trace(TraceEventKind::kPreemptPark, shard.id, shard.lane,
          shard.attempts[0].backend);
    return;  // one eviction per round keeps churn bounded
  }
}

void AlignService::resume_preempted() {
  if (!cfg_.preempt.enabled || urgent_pressure()) return;
  for (Shard& shard : shards_) {
    if (!shard.preempted || shard.resolved) continue;
    if (inflight_shards() >= max_inflight_) return;
    Attempt& primary = shard.attempts[0];
    if (!primary.outstanding || !engine_.preempted(primary.handle)) {
      // The parked copy was cancelled (a hedge won the race) — nothing
      // left to resume.
      shard.preempted = false;
      continue;
    }
    if (!engine_.resume(primary.handle)) continue;
    // resume() re-homed the job on the least-loaded usable device; keep
    // the attempt's placement attribution honest for future hedges.
    primary.backend = engine_.handle_device(primary.handle);
    shard.preempted = false;
    ++stats_.resumes;
    trace(TraceEventKind::kPreemptResume, shard.id, shard.lane,
          primary.backend);
  }
}

bool AlignService::fleet_usable() const {
  return engine_.health().any_usable();
}

unsigned AlignService::pick_device_excluding(unsigned avoid) {
  const unsigned none = engine_.num_devices();
  unsigned best = none;
  std::size_t best_pending = 0;
  for (unsigned d = 0; d < engine_.num_devices(); ++d) {
    if (d == avoid || !engine_.health().usable(d)) continue;
    const std::size_t pending = engine_.device(d).pending();
    if (best == none || pending < best_pending) {
      best = d;
      best_pending = pending;
    }
  }
  return best;
}

std::uint64_t AlignService::estimate_cycles(const Shard& shard) const {
  double est = 0;
  for (const QueuedRequest& rq : shard.reqs) {
    est += cfg_.hedge.est_cycles_per_base *
           static_cast<double>(std::max(rq.pair.a.size(), rq.pair.b.size()));
  }
  return static_cast<std::uint64_t>(std::llround(est));
}

void AlignService::launch_attempt(Shard& shard, bool software, unsigned avoid,
                                  bool hedge) {
  engine::BatchJob job;
  const LaneConfig& lc = cfg_.lanes[shard.lane];
  // Correlation tag: the shard id rides the job into the engine and the
  // device trace (Driver::annotate_trace), and comes back on the
  // completion — how a request span joins the cycle-level device track.
  job.trace_tag = shard.id;
  job.backtrace = lc.backtrace;
  // The multi-Aligner chip requires the data-separation backtrace method.
  job.separate_data =
      lc.backtrace && cfg_.engine.device.accel.num_aligners > 1;
  job.pairs.reserve(shard.reqs.size());
  bool all_deadlined = true;
  std::uint64_t max_deadline = 0;
  for (std::size_t i = 0; i < shard.reqs.size(); ++i) {
    job.pairs.push_back({static_cast<std::uint32_t>(i), shard.reqs[i].pair.a,
                         shard.reqs[i].pair.b});
    all_deadlined = all_deadlined && shard.reqs[i].deadline != 0;
    max_deadline = std::max(max_deadline, shard.reqs[i].deadline);
  }
  // Deadline-aware budget: a launch that outlives every deadline it
  // carries is killed by the device's cycle budget instead of wasting the
  // fleet on results nobody will accept.
  if (all_deadlined && !software) {
    job.cycle_budget = max_deadline > now_ ? max_deadline - now_ : 1;
  }

  Attempt attempt;
  attempt.hedge = hedge;
  if (!software && avoid != engine_.num_devices()) {
    const unsigned dev = pick_device_excluding(avoid);
    if (dev == engine_.num_devices()) {
      software = true;
    } else {
      attempt.handle = engine_.submit_on(dev, std::move(job));
      attempt.backend = dev;
    }
  } else if (!software) {
    attempt.handle = engine_.submit(std::move(job));
    attempt.backend = engine_.handle_device(attempt.handle);
  }
  if (software) {
    attempt.handle = engine_.submit_software(std::move(job));
    attempt.backend = engine_.num_devices();
    ++stats_.sw_shards;
  }
  shard.attempts.push_back(attempt);
  ++shard.attempt_count;
  ++stats_.shard_attempts;
  const AttemptFlavor flavor =
      attempt.backend == engine_.num_devices()
          ? AttemptFlavor::kSoftware
          : (hedge ? AttemptFlavor::kHedge : AttemptFlavor::kPrimary);
  trace(TraceEventKind::kAttemptLaunch, shard.id, shard.lane, attempt.backend,
        shard.attempt_count - 1, static_cast<std::uint64_t>(flavor));
}

void AlignService::dispatch() {
  while (inflight_shards() < max_inflight_) {
    std::vector<bool> eligible(queues_.size());
    bool any = false;
    for (std::size_t lane = 0; lane < queues_.size(); ++lane) {
      eligible[lane] = !queues_[lane].empty();
      any = any || eligible[lane];
    }
    if (!any) return;
    const std::size_t lane = wfq_.pick(eligible);

    Shard shard;
    shard.id = next_shard_++;
    shard.lane = static_cast<unsigned>(lane);
    shard.dispatch_cycle = now_;
    std::uint64_t cost = 0;
    auto& queue = queues_[lane];
    while (!queue.empty() && shard.reqs.size() < cfg_.max_batch_pairs) {
      cost += queue.front().pair.a.size() + queue.front().pair.b.size();
      shard.reqs.push_back(std::move(queue.front()));
      queue.pop_front();
    }
    wfq_.charge(lane, cost);
    shard.est_cycles = estimate_cycles(shard);

    // Degradation policy: an unusable fleet always degrades to software
    // (liveness — admitted work must drain).
    const bool software = !fleet_usable();
    // The queue-wait span closes for every request the shard carries
    // (stamped at arrival — the request→shard join the explainer uses),
    // then the shard itself is born.
    for (const QueuedRequest& rq : shard.reqs) {
      trace(TraceEventKind::kQueueWait, rq.id, shard.lane,
            RequestTraceEvent::kNoDevice, shard.id, 0, rq.arrival,
            now_ - rq.arrival);
    }
    trace(TraceEventKind::kDispatch, shard.id, shard.lane,
          RequestTraceEvent::kNoDevice, shard.reqs.size());
    if (software) {
      trace(TraceEventKind::kSwDegrade, shard.id, shard.lane,
            engine_.num_devices());
    }
    launch_attempt(shard, software, engine_.num_devices(), /*hedge=*/false);
    ++stats_.shards_dispatched;
    shards_.push_back(std::move(shard));
    stats_.inflight_high_water =
        std::max(stats_.inflight_high_water, inflight_shards());
  }
}

void AlignService::check_hedges() {
  if (!cfg_.hedge.enabled) return;
  for (Shard& shard : shards_) {
    if (shard.resolved || shard.hedged ||
        shard.attempt_count >= cfg_.hedge.max_attempts) {
      continue;
    }
    // Hedge the classic straggler: exactly the primary outstanding, on
    // hardware, past its expected service time.
    if (shard.attempts.size() != 1 || !shard.attempts[0].outstanding ||
        shard.attempts[0].backend == engine_.num_devices()) {
      continue;
    }
    const std::uint64_t threshold =
        std::max(cfg_.hedge.min_cycles,
                 static_cast<std::uint64_t>(std::llround(
                     static_cast<double>(shard.est_cycles) *
                     cfg_.hedge.latency_factor)));
    if (now_ - shard.dispatch_cycle <= threshold) continue;
    const unsigned avoid = shard.attempts[0].backend;
    launch_attempt(shard, /*software=*/false, avoid, /*hedge=*/true);
    shard.hedged = true;
    ++stats_.hedges_launched;
    ++stats_.lanes[shard.lane].hedges_launched;
    trace(TraceEventKind::kHedgeLaunch, shard.id, shard.lane,
          shard.attempts.back().backend, shard.attempt_count - 1);
  }
}

void AlignService::collect() {
  for (Shard& shard : shards_) {
    // Index loop: process_completion may push a retry attempt onto
    // shard.attempts, which would invalidate range-for iterators.
    for (std::size_t i = 0; i < shard.attempts.size(); ++i) {
      if (!shard.attempts[i].outstanding ||
          !engine_.ready(shard.attempts[i].handle)) {
        continue;
      }
      engine::Completion completion =
          *engine_.try_collect(shard.attempts[i].handle);
      shard.attempts[i].outstanding = false;
      process_completion(shard, shard.attempts[i], std::move(completion));
    }
  }
  // Residual shards spawned during resolution (hardware-rejected pairs
  // re-sliced onto the software backend) join the live set now — the
  // deque must not grow mid-iteration.
  for (Shard& spawned : spawned_) shards_.push_back(std::move(spawned));
  spawned_.clear();
  shards_.erase(
      std::remove_if(shards_.begin(), shards_.end(),
                     [](const Shard& s) {
                       if (!s.resolved) return false;
                       for (const Attempt& a : s.attempts) {
                         if (a.outstanding) return false;
                       }
                       return true;
                     }),
      shards_.end());
}

void AlignService::process_completion(Shard& shard, Attempt& attempt,
                                      engine::Completion&& completion) {
  // Circuit breaker: every hardware outcome feeds the engine's health
  // scoreboard, so repeated failures quarantine the device and future
  // dispatch/hedge placement skips it.
  if (attempt.backend != engine_.num_devices()) {
    const bool was_usable = engine_.health().usable(attempt.backend);
    engine_.note_outcome(attempt.backend, completion.outcome);
    if (was_usable && !engine_.health().usable(attempt.backend)) {
      recorder_.note_anomaly(AnomalyKind::kQuarantine, now_);
    }
  }
  if (shard.resolved) {
    // The race was already decided (first completion won, or the shard
    // shed) — suppress the duplicate.
    ++stats_.duplicates_suppressed;
    trace(TraceEventKind::kHedgeLose, shard.id, shard.lane, attempt.backend);
    return;
  }
  if (completion.completed_run()) {
    resolve_completed(shard, attempt, std::move(completion));
    return;
  }
  ++stats_.shards_failed;
  trace(TraceEventKind::kAttemptFailed, shard.id, shard.lane, attempt.backend,
        static_cast<std::uint64_t>(completion.outcome));
  recorder_.note_anomaly(AnomalyKind::kAttemptFailure, now_);
  for (const Attempt& other : shard.attempts) {
    if (other.outstanding) return;  // a live copy may still win
  }
  bool all_expired = !shard.reqs.empty();
  for (const QueuedRequest& rq : shard.reqs) {
    all_expired = all_expired && rq.deadline != 0 && rq.deadline <= now_;
  }
  if (all_expired) {
    resolve_shed(shard);
    return;
  }
  ++stats_.lanes[shard.lane].retries;
  trace(TraceEventKind::kRetry, shard.id, shard.lane,
        RequestTraceEvent::kNoDevice, shard.attempt_count);
  if (shard.attempt_count < cfg_.hedge.max_attempts && fleet_usable()) {
    // Retry away from the device that just failed.
    launch_attempt(shard, /*software=*/false, attempt.backend,
                   /*hedge=*/true);
  } else {
    // Attempt budget spent (or no usable device): the software backend is
    // the terminal fallback — it always completes.
    trace(TraceEventKind::kSwDegrade, shard.id, shard.lane,
          engine_.num_devices());
    launch_attempt(shard, /*software=*/true, engine_.num_devices(),
                   /*hedge=*/true);
  }
}

void AlignService::resolve_completed(Shard& shard, const Attempt& attempt,
                                     engine::Completion&& completion) {
  shard.resolved = true;
  const bool is_sw = attempt.backend == engine_.num_devices();
  LaneStats& ls = stats_.lanes[shard.lane];
  // Per-tenant attribution: the winning attempt's modeled cycles are the
  // lane's bill (losing hedges are fleet overhead, kept in ServiceStats).
  if (is_sw) {
    ls.sw_cycles += completion.sw_align_cycles;
  } else {
    ls.device_cycles += completion.encode_cycles + completion.accel_cycles +
                        completion.decode_cycles;
  }
  // The winning run's device span, annotated with its PMU deltas (the
  // per-run RunStatus::perf the completion carries) — what correlates a
  // request's story with the cycle-level device track. The span is
  // clamped to the shard's service-clock window: a run's busy cycles can
  // exceed the dispatch→now wall span (modeled SwBackend op cycles,
  // idle-skip fast-forwarding), and a span must not outrun the clock.
  const std::uint64_t run_cycles =
      is_sw ? completion.sw_align_cycles : completion.accel_cycles;
  trace(TraceEventKind::kDeviceRun, shard.id, shard.lane, attempt.backend,
        completion.perf.aligner_wavefront_steps,
        completion.perf.dma_beats_read, shard.dispatch_cycle,
        std::min(run_cycles, now_ - shard.dispatch_cycle));
  if (completion.checkpoints != 0) {
    trace(TraceEventKind::kCheckpoint, shard.id, shard.lane, attempt.backend,
          completion.checkpoints);
  }
  if (completion.restores != 0) {
    trace(TraceEventKind::kRestore, shard.id, shard.lane, attempt.backend,
          completion.restores, completion.recomputed_cycles);
  }
  if (attempt.hedge) {
    trace(TraceEventKind::kHedgeWin, shard.id, shard.lane, attempt.backend);
  }
  // First completion wins: recall losing attempts the engine can still
  // cancel; launched ones finish later and are suppressed on arrival.
  for (Attempt& other : shard.attempts) {
    if (!other.outstanding) continue;
    ++stats_.cancels_attempted;
    if (engine_.cancel(other.handle)) {
      other.outstanding = false;
      ++stats_.cancels_succeeded;
    }
  }

  const std::vector<core::AlignResult>& aligned =
      completion.result.alignments;
  WFASIC_REQUIRE(aligned.size() == shard.reqs.size(),
                 "AlignService: completion does not cover the shard");
  std::vector<QueuedRequest> to_software;
  for (std::size_t i = 0; i < shard.reqs.size(); ++i) {
    QueuedRequest& rq = shard.reqs[i];
    if (!aligned[i].ok && !is_sw) {
      // Deterministic hardware rejection (unsupported read, band or score
      // overflow): the pair re-shards onto the software backend rather
      // than surfacing a failure to the client.
      to_software.push_back(std::move(rq));
      continue;
    }
    ServiceCompletion done;
    done.id = rq.id;
    done.lane = shard.lane;
    done.outcome = rq.deadline != 0 && now_ > rq.deadline
                       ? RequestOutcome::kDeadlineMiss
                       : RequestOutcome::kOk;
    done.result = aligned[i];
    done.arrival_cycle = rq.arrival;
    done.complete_cycle = now_;
    done.deadline = rq.deadline;
    done.software = is_sw;
    done.hedged = attempt.hedge;
    emit(std::move(done));
  }
  if (!to_software.empty()) {
    Shard residual;
    residual.id = next_shard_++;
    residual.lane = shard.lane;
    residual.reqs = std::move(to_software);
    residual.dispatch_cycle = now_;
    residual.est_cycles = estimate_cycles(residual);
    // Hardware-rejected pairs re-shard onto the software backend: a new
    // shard is born mid-resolution, with its own dispatch + degrade
    // events (the requests' queue-wait spans still name the old shard).
    trace(TraceEventKind::kDispatch, residual.id, residual.lane,
          RequestTraceEvent::kNoDevice, residual.reqs.size());
    trace(TraceEventKind::kSwDegrade, residual.id, residual.lane,
          engine_.num_devices());
    launch_attempt(residual, /*software=*/true, engine_.num_devices(),
                   /*hedge=*/false);
    ++stats_.shards_dispatched;
    spawned_.push_back(std::move(residual));
  }
}

void AlignService::resolve_shed(Shard& shard) {
  shard.resolved = true;
  for (const QueuedRequest& rq : shard.reqs) {
    ServiceCompletion shed;
    shed.id = rq.id;
    shed.lane = shard.lane;
    shed.outcome = RequestOutcome::kShed;
    shed.arrival_cycle = rq.arrival;
    shed.complete_cycle = now_;
    shed.deadline = rq.deadline;
    emit(std::move(shed));
  }
}

}  // namespace wfasic::svc

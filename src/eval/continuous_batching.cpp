#include "eval/continuous_batching.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace daop::eval {
namespace {

/// Null-gated time-series shim for the scheduler loop. Every method
/// is a no-op when no recorder is attached, so the hot path costs one
/// pointer test per decision and the recorder stays strictly passive.
class TsHook {
 public:
  TsHook(obs::TimeSeriesRecorder* rec, int ch) : rec_(rec), ch_(ch) {}
  bool on() const { return rec_ != nullptr; }

  /// Called once per scheduling decision, BEFORE the decision's recordings,
  /// so each lands in the grid window containing its decision time.
  void decision(double t, double hazard_stall_s, long long waiting,
                std::size_t active, std::size_t parked) {
    if (rec_ == nullptr) return;
    rec_->advance(ch_, t);
    rec_->count_total(ch_, "daop_hazard_stall_seconds_total",
                      "Simulated seconds lost to injected hazard stalls.",
                      hazard_stall_s);
    rec_->gauge_set(ch_, "daop_queue_depth",
                    "Arrived requests waiting for admission.",
                    static_cast<double>(waiting));
    rec_->gauge_set(ch_, "daop_active_sessions",
                    "In-flight decode sessions.",
                    static_cast<double>(active));
    rec_->gauge_set(ch_, "daop_parked_sessions",
                    "Preempted sessions awaiting resume.",
                    static_cast<double>(parked));
  }
  void admitted(double wait_s, double ttft_s) {
    if (rec_ == nullptr) return;
    rec_->observe(ch_, "daop_serving_queue_wait_seconds",
                  "Admission queue wait per served request.", wait_s);
    rec_->observe(ch_, "daop_serving_ttft_seconds",
                  "Time to first token (arrival to end of prefill).",
                  ttft_s);
  }
  void served(double latency_s, double tpot_s, long long tokens) {
    if (rec_ == nullptr) return;
    rec_->count(ch_, "daop_serving_requests_total", "Request resolutions.",
                1.0, {{"outcome", "served"}});
    rec_->count(ch_, "daop_serving_generated_tokens_total",
                "Decode tokens generated by served requests.",
                static_cast<double>(tokens));
    rec_->observe(ch_, "daop_serving_latency_seconds",
                  "End-to-end latency (arrival to completion).", latency_s);
    if (tpot_s >= 0.0) {
      rec_->observe(ch_, "daop_serving_tpot_seconds",
                    "Mean time per generated token.", tpot_s);
    }
  }
  void dropped() {
    if (rec_ == nullptr) return;
    rec_->count(ch_, "daop_serving_requests_total", "Request resolutions.",
                1.0, {{"outcome", "dropped"}});
  }
  void shed(ShedReason reason) {
    if (rec_ == nullptr) return;
    rec_->count(ch_, "daop_serving_requests_total", "Request resolutions.",
                1.0, {{"outcome", "shed"}});
    rec_->count(ch_, "daop_requests_shed_total",
                "Requests rejected by admission control.", 1.0,
                {{"reason", shed_reason_name(reason)}});
  }
  void preempted() {
    if (rec_ == nullptr) return;
    rec_->count(ch_, "daop_session_preemptions_total",
                "Sessions parked by preemptive admission.");
  }
  void resumed() {
    if (rec_ == nullptr) return;
    rec_->count(ch_, "daop_session_resumes_total",
                "Parked sessions resumed into a freed slot.");
  }
  void degrade_event(const DegradationEvent& e) {
    if (rec_ == nullptr) return;
    rec_->count(ch_, "daop_degrade_steps_total",
                "Degradation ladder steps.", 1.0,
                {{"direction", e.down ? "down" : "up"}});
    rec_->gauge_set(ch_, "daop_degrade_level",
                    "Current degradation ladder level.",
                    static_cast<double>(e.level));
    rec_->record_event(
        e.time, ch_, e.down ? "degrade" : "recover",
        std::string("level ") +
            degrade_level_name(static_cast<DegradeLevel>(e.level)));
  }

 private:
  obs::TimeSeriesRecorder* rec_;
  int ch_;
};

}  // namespace

ContinuousBatchingScheduler::ContinuousBatchingScheduler(
    engines::Engine& engine, sim::Timeline& timeline,
    const cache::Placement& initial, const Options& options)
    : engine_(engine),
      tl_(timeline),
      arbiter_(initial),
      options_(options),
      loop_(options.max_concurrent, options.overload.degrade) {
  DAOP_CHECK_GE(options_.request_timeout_s, 0.0);
  DAOP_CHECK_GE(options_.max_request_retries, 0);
  DAOP_CHECK_GE(options_.retry_backoff_s, 0.0);
  options_.overload.validate();
  options_.cache.validate();
  if (options_.cache.enabled()) {
    cache_ = std::make_unique<cache::ExpertCache>(
        options_.cache, initial.n_layers(), initial.n_experts());
  }
}

void ContinuousBatchingScheduler::enqueue(Request request) {
  DAOP_CHECK_GE(request.arrival, 0.0);
  if (!pending_.empty()) {
    DAOP_CHECK_GE(request.arrival, pending_.back().request.arrival);
  }
  Pending p;
  p.eff_arrival = request.arrival;
  p.request = std::move(request);
  pending_.push_back(std::move(p));
}

// Each iteration performs the earliest of {resume, admit, step}; on time
// ties resume wins over admit, and admit over step. The overload plane's
// decisions layer on top:
//  - the admission candidate is chosen by the configured policy (the FIFO
//    head by default);
//  - a bounded queue sheds overflow, and a deadline budget sheds requests
//    whose projected first token would land past their deadline;
//  - under deadline-edf with preemption, a deadline-critical arrival may
//    park the latest-deadline in-flight session (at most once per session)
//    and take its slot; parked sessions resume, in park order, as slots
//    free;
//  - the node's DegradationController observes fault-plane telemetry at
//    every decision time; its directives apply from the next decision on.
// With default options none of these fires and the loop is the plain
// admit-or-step-least-advanced scheduler. Determinism: every choice is a
// pure function of (enqueue order, per-seed engine behaviour).
std::vector<ContinuousBatchingScheduler::Outcome>
ContinuousBatchingScheduler::run() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kNone = Loop::kNone;
  const OverloadOptions& ov = options_.overload;
  const std::size_t total = pending_.size() + outcomes_.size();
  obs::SpanTracer* const tracer = options_.tracer;
  // A per-request first-token budget turns the plane on as much as any
  // OverloadOptions field does.
  const bool plane_on =
      ov.enabled() ||
      std::any_of(pending_.begin(), pending_.end(),
                  [](const Pending& p) { return p.request.deadline_s > 0.0; });
  // The "Overload" track exists only while the plane is on, so default
  // option traces stay byte-identical to the pre-overload goldens.
  const std::uint32_t ov_track =
      tracer != nullptr && plane_on ? tracer->track("Overload") : 0;
  TsHook ts(options_.tseries, options_.tseries_channel);
  std::size_t degrade_events_seen = 0;
  const DegradationController& degrade = loop_.degrade();

  // A request's own budget, else the option-wide one (0 = no deadline).
  const auto budget_of = [&](const Pending& p) {
    return p.request.deadline_s > 0.0 ? p.request.deadline_s : ov.deadline_s;
  };
  // Absolute first-token deadline, anchored on the ORIGINAL arrival so
  // retries never extend a client's budget. kInf = no deadline.
  const auto deadline_of = [&](const Pending& p) {
    const double b = budget_of(p);
    return b > 0.0 ? p.request.arrival + b : kInf;
  };

  const auto shed = [&](std::size_t idx, ShedReason reason, double t) {
    Pending& p = pending_[idx];
    Outcome o;
    o.id = p.request.id;
    o.arrival = p.request.arrival;
    o.shed = true;
    o.shed_reason = reason;
    o.retries = p.attempts;
    ++overload_stats_.shed_by_reason[static_cast<int>(reason)];
    ++overload_stats_.shed_total;
    ts.shed(reason);
    if (tracer != nullptr) {
      const obs::RequestScope scope(tracer, o.id);
      tracer->instant(ov_track,
                      std::string("shed (") + shed_reason_name(reason) + ")",
                      t);
    }
    outcomes_.push_back(std::move(o));
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(idx));
  };

  // Policy choice among the waiting queue: which pending request the next
  // free slot (available at `t_free`) should go to. "Arrived" means
  // eff_arrival <= t_free; when nothing has arrived yet every policy waits
  // for the earliest next arrival.
  const auto pick_candidate = [&](double t_free) {
    if (ov.admission == AdmissionPolicy::kFifo) return std::size_t{0};
    std::size_t best = kNone;
    if (ov.admission == AdmissionPolicy::kLifoShed) {
      // Newest arrived first (ties -> highest index: latest enqueued).
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].eff_arrival > t_free) continue;
        if (best == kNone ||
            pending_[i].eff_arrival >= pending_[best].eff_arrival) {
          best = i;
        }
      }
    } else {  // deadline-edf: earliest deadline among arrived.
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].eff_arrival > t_free) continue;
        if (best == kNone ||
            deadline_of(pending_[i]) < deadline_of(pending_[best])) {
          best = i;
        }
      }
    }
    if (best != kNone) return best;
    // Nothing has arrived by t_free: take the next to arrive.
    best = 0;
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      if (pending_[i].eff_arrival < pending_[best].eff_arrival) best = i;
    }
    return best;
  };

  // Latest-deadline in-flight session with a deadline strictly after the
  // candidate's, never preempted before (once per session, so preemption
  // cannot livelock). Ties -> latest admitted.
  const auto pick_victim = [&](double cand_deadline) {
    const std::vector<Loop::Active>& active = loop_.active();
    std::size_t best = kNone;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Admitted& a = active[i].tag;
      if (a.preemptions > 0 || active[i].session->decode_done()) continue;
      if (a.deadline <= cand_deadline) continue;
      if (best == kNone || a.deadline >= active[best].tag.deadline) best = i;
    }
    return best;
  };

  while (!pending_.empty() || !loop_.idle()) {
    const bool slot_ok = loop_.slot_ok();
    std::size_t slot = loop_.earliest_free_slot();

    // Candidate resume: the longest-parked session, once a slot frees.
    double t_resume = kInf;
    if (!loop_.parked().empty() && slot_ok) {
      t_resume = std::max(loop_.slot_time(slot),
                          loop_.parked().front().session->ready_time());
    }

    // Candidate admission: policy-chosen request into the earliest free
    // slot — or, when every slot is busy, a preemptive admission for a
    // deadline-critical request.
    double t_admit = kInf;
    std::size_t cand = kNone;
    std::size_t victim = kNone;
    if (!pending_.empty()) {
      if (slot_ok) {
        cand = pick_candidate(loop_.slot_time(slot));
        t_admit = std::max(pending_[cand].eff_arrival, loop_.slot_time(slot));
      } else if (ov.preempt &&
                 ov.admission == AdmissionPolicy::kDeadlineEdf) {
        const std::size_t c = pick_candidate(kInf);
        const std::size_t v = pick_victim(deadline_of(pending_[c]));
        if (v != kNone) {
          cand = c;
          victim = v;
          t_admit = std::max(pending_[cand].eff_arrival,
                             loop_.active()[victim].tag.start);
        }
      }
    }

    // Candidate decode step: the least-advanced running session (parked
    // sessions do not step).
    const std::size_t si = loop_.pick_step();
    const double t_step =
        si == kNone ? kInf : loop_.active()[si].session->ready_time();

    const double t_dec = std::min({t_resume, t_admit, t_step});
    DAOP_CHECK_LT(t_dec, kInf);
    if (ts.on()) {
      long long waiting = 0;
      for (const Pending& p : pending_) {
        if (p.eff_arrival <= t_dec) ++waiting;
      }
      ts.decision(t_dec, tl_.hazard_stall_s(), waiting, loop_.active().size(),
                  loop_.parked().size());
    }
    loop_.observe(t_dec, tl_.hazard_stall_s());
    if (ts.on()) {
      for (; degrade_events_seen < degrade.events().size();
           ++degrade_events_seen) {
        ts.degrade_event(degrade.events()[degrade_events_seen]);
      }
    }

    // Bounded queue: shed overflow among the requests waiting at this
    // decision time. fifo/deadline-edf shed the newest arrivals (their
    // clients waited least); lifo-shed sheds the stalest (its whole point
    // is serving the freshest). At the top of the degradation ladder the
    // cap tightens to 2x the effective slots.
    long long cap = ov.queue_capacity;
    if (degrade.shed_aggressively()) {
      const long long tight = 2LL * loop_.effective_concurrency();
      cap = cap > 0 ? std::min(cap, tight) : tight;
    }
    if (cap > 0) {
      bool shed_any = false;
      for (;;) {
        std::size_t oldest = kNone;
        std::size_t newest = kNone;
        long long waiting = 0;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
          if (pending_[i].eff_arrival > t_dec) continue;
          ++waiting;
          if (oldest == kNone) oldest = i;
          newest = i;
        }
        if (waiting <= cap) break;
        const ShedReason reason =
            (ov.queue_capacity > 0 && waiting > ov.queue_capacity)
                ? ShedReason::kQueueFull
                : ShedReason::kDegraded;
        shed(ov.admission == AdmissionPolicy::kLifoShed ? oldest : newest,
             reason, t_dec);
        shed_any = true;
      }
      // Shedding may have removed the admission candidate; recompute.
      if (shed_any) continue;
    }

    if (t_resume <= t_admit && t_resume <= t_step) {
      const Admitted& a = loop_.resume(slot, t_resume).tag;
      ++overload_stats_.preempt_resumes;
      ts.resumed();
      if (tracer != nullptr) {
        const obs::RequestScope scope(tracer, a.id);
        tracer->instant(ov_track, "resume req " + std::to_string(a.id),
                        t_resume);
      }
      continue;
    }

    if (t_admit <= t_step && cand != kNone) {
      Pending& head = pending_[cand];
      // Client-side timeout: a request whose admission would start more
      // than request_timeout_s after its (re-)arrival is abandoned and
      // retries after a backoff, then is dropped.
      if (options_.request_timeout_s > 0.0 &&
          t_admit - head.eff_arrival > options_.request_timeout_s) {
        if (head.attempts < options_.max_request_retries) {
          ++head.attempts;
          head.eff_arrival +=
              options_.request_timeout_s + options_.retry_backoff_s;
          continue;
        }
        Outcome o;
        o.id = head.request.id;
        o.arrival = head.request.arrival;
        o.retries = head.attempts;
        outcomes_.push_back(std::move(o));
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(cand));
        ts.dropped();
        continue;
      }
      // Deadline shedding: a request whose projected first token would land
      // past its deadline is shed instead of admitted — the slot goes to a
      // request that can still be served in time.
      if (const std::optional<ShedReason> verdict =
              loop_.shed_verdict(head.request.arrival, budget_of(head),
                                 t_admit, ov.service_estimate_s)) {
        shed(cand, *verdict, t_admit);
        continue;
      }
      if (victim != kNone) {
        // Preemptive admission: park the latest-deadline session, release
        // its pins (park() does), and hand its slot to the candidate.
        Admitted& v = loop_.park(victim, t_admit).tag;
        ++v.preemptions;
        ++overload_stats_.preemptions;
        ts.preempted();
        if (tracer != nullptr) {
          const obs::RequestScope scope(tracer, v.id);
          tracer->instant(ov_track,
                          "preempt req " + std::to_string(v.id) + " for req " +
                              std::to_string(head.request.id),
                          t_admit);
        }
        slot = loop_.earliest_free_slot();
      }
      Loop::Active a;
      a.tag.id = head.request.id;
      a.tag.arrival = head.request.arrival;
      a.tag.start = t_admit;
      a.tag.deadline = deadline_of(head);
      a.tag.retries = head.attempts;
      a.session = engine_.open_session(
          head.request.trace, arbiter_.placement(),
          loop_.session_env(tl_, arbiter_, cache_.get(), t_admit,
                            head.request.id));
      a.session->prefill();
      ts.admitted(a.tag.start - a.tag.arrival,
                  a.session->ready_time() - a.tag.arrival);
      loop_.admit(slot, std::move(a));
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(cand));
      continue;
    }

    if (loop_.active()[si].session->decode_step()) continue;
    // All tokens scheduled: close the session (its slot frees at the
    // completion time) and record the outcome.
    Loop::Closed c = loop_.close(si);
    Outcome o;
    o.id = c.tag.id;
    o.arrival = c.tag.arrival;
    o.served = true;
    o.start = c.tag.start;
    o.end = c.end;
    o.retries = c.tag.retries;
    o.preemptions = c.tag.preemptions;
    ts.served(o.end - o.arrival,
              c.result.generated_tokens > 0
                  ? c.result.decode_s /
                        static_cast<double>(c.result.generated_tokens)
                  : -1.0,
              c.result.generated_tokens);
    o.result = std::move(c.result);
    outcomes_.push_back(std::move(o));
  }

  // Degradation telemetry + ladder-step instants (emitted once, after the
  // run, from the controller's deterministic event log).
  overload_stats_.degrade_steps_down = degrade.steps_down();
  overload_stats_.degrade_steps_up = degrade.steps_up();
  overload_stats_.degrade_final_level = degrade.level();
  overload_stats_.degrade_peak_level = degrade.peak_level();
  overload_stats_.degrade_events = degrade.events();
  if (tracer != nullptr) {
    for (const DegradationEvent& e : degrade.events()) {
      tracer->instant(ov_track,
                      std::string(e.down ? "degrade -> " : "recover -> ") +
                          degrade_level_name(
                              static_cast<DegradeLevel>(e.level)),
                      e.time);
    }
  }

  // Conservation: every enqueued request ends as exactly one of
  // served/shed/dropped, every preempted session resumed and completed, and
  // no session leaked arbiter pins.
  DAOP_CHECK_MSG(loop_.parked().empty(),
                 "parked sessions leaked without resume");
  DAOP_CHECK_EQ(outcomes_.size(), total);
  std::size_t served = 0;
  std::size_t shed_n = 0;
  std::size_t dropped = 0;
  for (const Outcome& o : outcomes_) {
    DAOP_CHECK_MSG(!(o.served && o.shed), "outcome both served and shed");
    if (o.served) {
      ++served;
    } else if (o.shed) {
      ++shed_n;
    } else {
      ++dropped;
    }
  }
  DAOP_CHECK_EQ(served + shed_n + dropped, total);
  DAOP_CHECK_EQ(shed_n, static_cast<std::size_t>(overload_stats_.shed_total));
  DAOP_CHECK_EQ(overload_stats_.preemptions, overload_stats_.preempt_resumes);
  DAOP_CHECK_EQ(arbiter_.total_pin_count(), 0);
  std::sort(outcomes_.begin(), outcomes_.end(),
            [](const Outcome& x, const Outcome& y) { return x.id < y.id; });
  return std::move(outcomes_);
}

}  // namespace daop::eval

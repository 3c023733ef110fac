#include "eval/serving.hpp"

#include <algorithm>
#include <cmath>

#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/trace_generator.hpp"
#include "engines/run_metrics.hpp"
#include "eval/continuous_batching.hpp"
#include "model/op_costs.hpp"

namespace daop::eval {

std::vector<PlannedRequest> serving_request_plan(
    const ServingOptions& options) {
  Rng rng(options.seed ^ 0x5e7511e5ULL);
  std::vector<PlannedRequest> plan;
  plan.reserve(static_cast<std::size_t>(options.n_requests));
  double arrival = 0.0;
  for (int i = 0; i < options.n_requests; ++i) {
    PlannedRequest pr;
    pr.id = i;
    // Poisson arrivals: exponential inter-arrival gaps.
    arrival += -std::log(std::max(rng.uniform(), 1e-12)) /
               options.arrival_rate_rps;
    pr.arrival = arrival;
    pr.prompt = rng.uniform_int(options.min_prompt, options.max_prompt);
    pr.gen = rng.uniform_int(options.min_gen, options.max_gen);
    if (options.priority_every > 0 && (i + 1) % options.priority_every == 0) {
      pr.deadline_s = options.priority_deadline_s;
    }
    plan.push_back(pr);
  }
  return plan;
}

cache::Placement serving_initial_placement(const model::ModelConfig& model_cfg,
                                           const ServingOptions& options) {
  SpeedEvalOptions calib;
  calib.seed = options.seed;
  calib.calibration_seqs = options.calibration_seqs;
  calib.ecr = options.ecr;
  return calibrated_initial_placement(model_cfg, calib);
}

void ServedRequests::add(ServingResult& out, double arrival, double start,
                         double end, const engines::RunResult& r) {
  ++out.served;
  tokens_ += r.generated_tokens;
  makespan_ = std::max(makespan_, end);
  const double w = start - arrival;
  const double first_tok = w + r.prefill_s;
  const double lat = end - arrival;
  const double per_tok =
      r.generated_tokens > 0 ? r.decode_s / r.generated_tokens : 0.0;
  wait_.push_back(w);
  ttft_.push_back(first_tok);
  latency_.push_back(lat);
  tpot_.push_back(per_tok);
  ttft_hist_.observe(first_tok);
  tpot_hist_.observe(per_tok);
  latency_hist_.observe(lat);
  wait_hist_.observe(w);
  if ((slo_ttft_s_ > 0.0 && first_tok > slo_ttft_s_) ||
      (slo_latency_s_ > 0.0 && lat > slo_latency_s_)) {
    ++out.slo_violations;
  }
  out.counters.add(r.counters);
}

void ServedRequests::finish(ServingResult& out) const {
  if (!latency_.empty()) {
    out.ttft_s = summarize(ttft_);
    out.latency_s = summarize(latency_);
    out.queue_wait_s = summarize(wait_);
    out.tpot_s = summarize(tpot_);
  }
  out.ttft_hist = ttft_hist_;
  out.tpot_hist = tpot_hist_;
  out.latency_hist = latency_hist_;
  out.makespan_s = makespan_;
  out.slo_violation_rate =
      static_cast<double>(out.slo_violations) / out.requests;
  if (makespan_ > 0.0) {
    out.throughput_tps = static_cast<double>(tokens_) / makespan_;
  }
}

void record_cache_metrics(obs::MetricsRegistry& reg, const ServingResult& out,
                          const char* policy) {
  const auto cache_counter = [&](const char* kind, long long n) {
    reg.counter("daop_cache_migrations_total",
                "Dynamic expert-cache placement changes, by kind.",
                obs::Labels{
                    {"engine", out.engine}, {"kind", kind}, {"policy", policy}})
        .inc(static_cast<double>(n));
  };
  cache_counter("fill", out.cache_fills);
  cache_counter("evict", out.cache_evictions);
  const obs::Labels labels{{"engine", out.engine}, {"policy", policy}};
  reg.counter("daop_cache_pin_refusals_total",
              "Cache evictions refused because the victim was pinned by "
              "another session.",
              labels)
      .inc(static_cast<double>(out.cache_refusals));
  reg.counter("daop_cache_migration_aborts_total",
              "Cache swap migrations abandoned by the retry/deadline "
              "discipline.",
              labels)
      .inc(static_cast<double>(out.cache_aborts));
  reg.counter("daop_cache_bytes_moved_total",
              "Expert weight bytes moved over PCIe by cache fills.", labels)
      .inc(out.cache_bytes_moved);
}

ServingResult run_serving_eval(EngineKind kind,
                               const model::ModelConfig& model_cfg,
                               const sim::PlatformSpec& platform,
                               const data::WorkloadSpec& workload,
                               const ServingOptions& options) {
  DAOP_CHECK_GT(options.arrival_rate_rps, 0.0);
  DAOP_CHECK_GT(options.n_requests, 0);
  DAOP_CHECK_LE(options.min_prompt, options.max_prompt);
  DAOP_CHECK_LE(options.min_gen, options.max_gen);
  DAOP_CHECK_GE(options.request_timeout_s, 0.0);
  DAOP_CHECK_GE(options.max_request_retries, 0);
  DAOP_CHECK_GE(options.retry_backoff_s, 0.0);
  DAOP_CHECK_GE(options.slo_ttft_s, 0.0);
  DAOP_CHECK_GE(options.slo_latency_s, 0.0);
  DAOP_CHECK_GE(options.max_concurrent, 1);
  options.overload.validate();
  DAOP_CHECK_MSG(!options.overload.enabled() || options.max_concurrent >= 2,
                 "the overload plane layers on the continuous-batching "
                 "scheduler; it needs max_concurrent >= 2");
  options.cache.validate();
  DAOP_CHECK_MSG(!options.cache.enabled() || options.max_concurrent >= 2,
                 "dynamic cache policies score aggregate demand across the "
                 "continuous-batching scheduler's live sessions; they need "
                 "max_concurrent >= 2 (policy frozen is the sequential mode)");
  DAOP_CHECK_GE(options.priority_every, 0);
  DAOP_CHECK_GE(options.priority_deadline_s, 0.0);
  if (options.priority_every > 0) {
    DAOP_CHECK_MSG(options.priority_deadline_s > 0.0,
                   "priority_every needs a priority_deadline_s budget");
  }

  const sim::CostModel cm(platform);
  const model::OpCosts costs(model_cfg, cm);

  const cache::Placement initial =
      serving_initial_placement(model_cfg, options);

  const data::TraceGenerator gen(workload, model_cfg.n_layers,
                                 model_cfg.n_experts, model_cfg.top_k,
                                 options.seed);
  auto engine = make_engine(kind, costs, options.daop_config);
  sim::FaultModel fault(options.hazards, options.seed ^ 0xFA017ULL);
  if (fault.enabled()) engine->set_fault_model(&fault);
  if (options.tracer != nullptr) engine->set_tracer(options.tracer);
  // Sequential serving runs each request on a private timeline, so the
  // engine-attached profiler records one profile per served request. The
  // continuous-batching branch profiles its shared timeline once instead
  // (sessions on a shared timeline skip per-run recording by contract).
  if (options.profiler != nullptr) engine->set_profiler(options.profiler);

  const std::vector<PlannedRequest> plan = serving_request_plan(options);
  double server_free = 0.0;
  double busy = 0.0;

  ServingResult out;
  ServedRequests served(options.slo_ttft_s, options.slo_latency_s);

  // Both serving modes record served requests through one accumulator, so
  // sequential and continuous-batching results are directly comparable.
  auto record_served = [&](long long id, double req_arrival, double start,
                           double end, const engines::RunResult& r) {
    busy += r.total_s;
    served.add(out, req_arrival, start, end, r);
    if (options.tracer != nullptr) {
      obs::SpanTracer& tr = *options.tracer;
      const obs::RequestScope scope(&tr, id);
      const std::uint32_t q_track = tr.track("Queue");
      const std::uint32_t req_track = tr.track("Request");
      tr.span(q_track, "queue wait", req_arrival, start);
      tr.span(req_track, "request " + std::to_string(id), start, end);
      tr.instant(req_track, "first token", start + r.prefill_s);
    }
  };

  if (options.max_concurrent > 1) {
    // ---- Continuous batching: shared timeline, arbitrated placement ----
    ContinuousBatchingScheduler::Options sched_opt;
    sched_opt.max_concurrent = options.max_concurrent;
    sched_opt.request_timeout_s = options.request_timeout_s;
    sched_opt.max_request_retries = options.max_request_retries;
    sched_opt.retry_backoff_s = options.retry_backoff_s;
    sched_opt.overload = options.overload;
    sched_opt.cache = options.cache;
    sched_opt.tracer = options.tracer;
    sched_opt.tseries = options.tseries;
    sched_opt.tseries_channel = 0;
    sim::Timeline tl;
    // Attribution needs the shared timeline's interval record; recording is
    // passive and never changes a scheduling decision.
    if (options.profiler != nullptr) tl.set_record_intervals(true);
    ContinuousBatchingScheduler sched(*engine, tl, initial, sched_opt);
    for (const PlannedRequest& pr : plan) {
      ContinuousBatchingScheduler::Request req;
      req.id = pr.id;
      req.arrival = pr.arrival;
      req.deadline_s = pr.deadline_s;
      req.trace = gen.generate(static_cast<int>(pr.id), pr.prompt, pr.gen);
      sched.enqueue(std::move(req));
    }
    for (const auto& o : sched.run()) {
      out.request_retries += o.retries;
      out.preemptions += o.preemptions;
      ServingResult::RequestLogEntry log;
      log.id = o.id;
      log.arrival = o.arrival;
      log.retries = o.retries;
      log.preempted = o.preemptions;
      if (o.shed) {
        // Rejected by admission control: the operator chose not to serve
        // it, which is an SLO violation like any other unserved request.
        log.outcome = std::string("shed:") + shed_reason_name(o.shed_reason);
        ++out.shed;
        ++out.slo_violations;
        switch (o.shed_reason) {
          case ShedReason::kQueueFull:
            ++out.shed_queue_full;
            break;
          case ShedReason::kDeadline:
            ++out.shed_deadline;
            break;
          case ShedReason::kDegraded:
            ++out.shed_degraded;
            break;
          case ShedReason::kNodeLost:
            // Single-node admission control never sheds for node loss; the
            // cluster harness (cluster/serving.cpp) accounts it there.
            ++out.shed_node_lost;
            break;
        }
      } else if (!o.served) {
        // A request the operator failed to serve is an SLO violation too.
        log.outcome = "dropped";
        ++out.dropped;
        ++out.slo_violations;
      } else {
        log.outcome = "served";
        record_served(o.id, o.arrival, o.start, o.end, o.result);
      }
      out.request_log.push_back(std::move(log));
    }
    if (const cache::ExpertCache* ec = sched.expert_cache()) {
      out.cache_fills = ec->fills();
      out.cache_evictions = ec->evictions();
      out.cache_refusals = static_cast<long long>(ec->refusals().size());
      out.cache_aborts = ec->aborts();
      // Each fill moves one expert's weights over PCIe H2D; the paired
      // eviction is a drop from GPU memory and moves nothing.
      out.cache_bytes_moved =
          static_cast<double>(ec->fills()) * model_cfg.expert_bytes();
      if (options.cache_report != nullptr) *options.cache_report = ec->report();
    }
    const OverloadStats& ov_stats = sched.overload_stats();
    out.degrade_steps_down = ov_stats.degrade_steps_down;
    out.degrade_steps_up = ov_stats.degrade_steps_up;
    out.degrade_peak_level = ov_stats.degrade_peak_level;
    out.degrade_final_level = ov_stats.degrade_final_level;
    // Conservation: admission control may refuse work but never lose it.
    DAOP_CHECK_EQ(out.served + out.dropped + out.shed, options.n_requests);
    // Shared-timeline sessions report no per-session hazard attribution;
    // the stall total belongs to the whole run and is accounted once here.
    out.counters.hazard_stall_s = tl.hazard_stall_s();
    if (options.profiler != nullptr) {
      options.profiler->record_window(
          engine->name() + " [continuous batching]", tl.intervals(),
          tl.hazard_intervals(), 0.0, std::max(served.makespan(), tl.span()));
    }
  } else {
    // ---- Sequential FCFS: each request runs alone on a private timeline ----
    for (const PlannedRequest& pr : plan) {
      const int i = static_cast<int>(pr.id);
      const double arrival = pr.arrival;
      // Client-side timeout loop: a request whose queue wait exceeds the
      // timeout is abandoned at (re-arrival + timeout) and retries after a
      // backoff, up to max_request_retries re-queues; then it is dropped
      // without ever occupying the server.
      double eff_arrival = arrival;
      bool dropped = false;
      int attempts = 0;
      obs::TimeSeriesRecorder* const rec = options.tseries;
      for (;;) {
        const double start = std::max(eff_arrival, server_free);
        if (options.request_timeout_s > 0.0 &&
            start - eff_arrival > options.request_timeout_s) {
          if (attempts < options.max_request_retries) {
            ++attempts;
            ++out.request_retries;
            eff_arrival +=
                options.request_timeout_s + options.retry_backoff_s;
            continue;
          }
          if (rec != nullptr) {
            rec->advance(0, eff_arrival + options.request_timeout_s);
            rec->count(0, "daop_serving_requests_total",
                       "Request resolutions.", 1.0,
                       {{"outcome", "dropped"}});
          }
          dropped = true;
          break;
        }
        const data::SequenceTrace trace = gen.generate(i, pr.prompt, pr.gen);
        const engines::RunResult r = [&] {
          // Engine-local spans start at t=0; shift them onto the serving
          // clock and stamp them with this request's id. RAII scope so a
          // throwing engine cannot leak the id/offset into later spans.
          const obs::RequestScope scope(options.tracer, i, start);
          return engine->run(trace, initial, nullptr, i);
        }();
        const double end = start + r.total_s;
        server_free = end;
        if (rec != nullptr) {
          // Same window-attribution convention as the CB scheduler:
          // admission-time observations at the service start, resolution
          // observations at completion. Both clocks are monotone here.
          rec->advance(0, start);
          rec->observe(0, "daop_serving_queue_wait_seconds",
                       "Admission queue wait per served request.",
                       start - arrival);
          rec->observe(0, "daop_serving_ttft_seconds",
                       "Time to first token (arrival to end of prefill).",
                       (start - arrival) + r.prefill_s);
          rec->advance(0, end);
          rec->count(0, "daop_serving_requests_total", "Request resolutions.",
                     1.0, {{"outcome", "served"}});
          rec->count(0, "daop_serving_generated_tokens_total",
                     "Decode tokens generated by served requests.",
                     static_cast<double>(r.generated_tokens));
          rec->observe(0, "daop_serving_latency_seconds",
                       "End-to-end latency (arrival to completion).",
                       end - arrival);
          if (r.generated_tokens > 0) {
            rec->observe(0, "daop_serving_tpot_seconds",
                         "Mean time per generated token.",
                         r.decode_s / static_cast<double>(r.generated_tokens));
          }
          if (r.counters.hazard_stall_s > 0.0) {
            rec->count(0, "daop_hazard_stall_seconds_total",
                       "Simulated seconds lost to injected hazard stalls.",
                       r.counters.hazard_stall_s);
          }
        }
        record_served(i, arrival, start, end, r);
        break;
      }
      if (dropped) {
        // A request the operator failed to serve is an SLO violation too.
        ++out.dropped;
        ++out.slo_violations;
      }
      ServingResult::RequestLogEntry log;
      log.id = i;
      log.arrival = arrival;
      log.outcome = dropped ? "dropped" : "served";
      log.retries = attempts;
      out.request_log.push_back(std::move(log));
    }
  }

  // Seal the final (possibly partial) time-series window at the makespan.
  if (options.tseries != nullptr) options.tseries->finalize(served.makespan());

  out.engine = engine->name();
  out.requests = options.n_requests;
  served.finish(out);
  if (out.makespan_s > 0.0) {
    out.busy_fraction = std::min(1.0, busy / out.makespan_s);
  }

  if (options.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options.metrics;
    const obs::Labels labels{{"engine", out.engine}};
    const std::vector<double> buckets = obs::default_latency_buckets();
    reg.counter("daop_serving_requests_total", "Requests by final outcome.",
                obs::Labels{{"engine", out.engine}, {"outcome", "served"}})
        .inc(static_cast<double>(out.served));
    reg.counter("daop_serving_requests_total", "Requests by final outcome.",
                obs::Labels{{"engine", out.engine}, {"outcome", "dropped"}})
        .inc(static_cast<double>(out.dropped));
    reg.counter("daop_serving_request_retries_total",
                "Client re-queues after queue-wait timeouts.", labels)
        .inc(static_cast<double>(out.request_retries));
    reg.counter("daop_serving_slo_violations_total",
                "Served requests breaching an SLO, plus dropped requests.",
                labels)
        .inc(static_cast<double>(out.slo_violations));
    reg.counter("daop_serving_generated_tokens_total",
                "Tokens generated across served requests.", labels)
        .inc(static_cast<double>(served.tokens()));
    reg.histogram("daop_serving_ttft_seconds",
                  "Arrival to first output token.", buckets, labels)
        .merge(out.ttft_hist);
    reg.histogram("daop_serving_tpot_seconds",
                  "Mean time per output token per request.", buckets, labels)
        .merge(out.tpot_hist);
    reg.histogram("daop_serving_latency_seconds",
                  "Arrival to request completion.", buckets, labels)
        .merge(out.latency_hist);
    reg.histogram("daop_serving_queue_wait_seconds",
                  "Arrival to service start.", buckets, labels)
        .merge(served.wait_hist());
    reg.gauge("daop_serving_throughput_tokens_per_second",
              "Generated tokens per second of makespan.", labels)
        .set(out.throughput_tps);
    reg.gauge("daop_serving_makespan_seconds",
              "Last request completion time.", labels)
        .set(out.makespan_s);
    reg.gauge("daop_serving_busy_fraction",
              "Fraction of the makespan the server spent serving.", labels)
        .set(out.busy_fraction);
    engines::record_counter_metrics(reg, out.counters, labels);
    // Overload-plane families only exist when the plane is on, so the
    // default-option metrics text stays bit-identical to the pre-overload
    // harness (tests/golden/serving_runs.golden hashes it).
    if (options.overload.enabled()) {
      const auto shed_counter = [&](const char* reason, long long n) {
        reg.counter("daop_requests_shed_total",
                    "Requests rejected by admission control, by reason.",
                    obs::Labels{{"engine", out.engine}, {"reason", reason}})
            .inc(static_cast<double>(n));
      };
      shed_counter("queue_full", out.shed_queue_full);
      shed_counter("deadline", out.shed_deadline);
      shed_counter("degraded", out.shed_degraded);
      reg.counter("daop_session_preemptions_total",
                  "Sessions parked for deadline-critical requests.", labels)
          .inc(static_cast<double>(out.counters.preemptions));
      reg.counter("daop_session_preempt_resumes_total",
                  "Parked sessions resumed.", labels)
          .inc(static_cast<double>(out.counters.preempt_resumes));
      reg.counter("daop_degraded_sessions_total",
                  "Sessions opened under a degradation directive.", labels)
          .inc(static_cast<double>(out.counters.degraded_sessions));
      reg.counter("daop_degrade_steps_total",
                  "Degradation-ladder transitions by direction.",
                  obs::Labels{{"engine", out.engine}, {"direction", "down"}})
          .inc(static_cast<double>(out.degrade_steps_down));
      reg.counter("daop_degrade_steps_total",
                  "Degradation-ladder transitions by direction.",
                  obs::Labels{{"engine", out.engine}, {"direction", "up"}})
          .inc(static_cast<double>(out.degrade_steps_up));
      reg.gauge("daop_degrade_level",
                "Degradation-ladder level at end of run.", labels)
          .set(static_cast<double>(out.degrade_final_level));
      reg.gauge("daop_degrade_peak_level",
                "Deepest degradation-ladder level reached.", labels)
          .set(static_cast<double>(out.degrade_peak_level));
    }
    // Dynamic-cache families only exist when a dynamic policy is on, so
    // frozen-policy metrics text stays bit-identical to the pre-cache
    // harness.
    if (options.cache.enabled()) {
      record_cache_metrics(reg, out,
                           cache::cache_policy_name(options.cache.policy));
    }
  }
  return out;
}

}  // namespace daop::eval

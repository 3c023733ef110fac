// Workload `serve`: one DAOP node serving open-loop Poisson traffic.
//
// One Mixtral 8x7B node behind ContinuousBatchingScheduler (4 in flight),
// deadline-edf admission with a bounded queue, the lfu dynamic cache, and a
// MetricsRegistry plus TimeSeriesRecorder attached. Arrivals follow a
// Poisson process on the simulated clock at fixed rates that straddle
// DAOP's saturation point; prompt and generation lengths are mixed. Every
// request has its own routing trace, so nothing amortises trace work, and
// the scheduler, arbiter/cache and sinks do most of their work here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "cache/calibration.hpp"
#include "common/rng.hpp"
#include "data/trace_generator.hpp"
#include "engines/run_metrics.hpp"
#include "eval/continuous_batching.hpp"
#include "eval/speed.hpp"
#include "harness.hpp"
#include "model/config.hpp"
#include "obs/alerting.hpp"
#include "obs/attribution.hpp"
#include "sim/cost_model.hpp"

namespace perfbench {
namespace {

namespace eval = daop::eval;

// Client SLO: first token within kTtftLimitS and mean time per output
// token within kTpotLimitS. A shed or dropped request misses both. A rate
// "meets the SLO" when at least kSloObjective of its requests do.
constexpr double kTtftLimitS = 10.0;
constexpr double kTpotLimitS = 1.5;
constexpr double kSloObjective = 0.9;

struct PlannedRequest {
  long long id = 0;
  double arrival = 0.0;
  int prompt = 0;
  int gen = 0;
  double deadline_s = 0.0;
};

struct RatePlan {
  double rate_rps = 0.0;
  std::vector<PlannedRequest> requests;
};

class Serve : public Workload {
 public:
  Serve(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void setup() override {
    cfg_ = daop::model::mixtral_8x7b();
    platform_ = daop::sim::a6000_i9_platform();
    workload_ = daop::data::c4();
    const std::vector<double> rates =
        tiny_ ? std::vector<double>{0.02} : std::vector<double>{0.01, 0.02, 0.04};
    const int n = tiny_ ? 4 : 96;
    plans_.clear();
    daop::Rng rng(seed_ ^ 0x5e7511e5ULL);
    long long id = 0;
    for (double rate : rates) {
      RatePlan p;
      p.rate_rps = rate;
      double t = 0.0;
      for (int i = 0; i < n; ++i) {
        PlannedRequest r;
        r.id = id++;
        t += -std::log(std::max(rng.uniform(), 1e-12)) / rate;
        r.arrival = t;
        r.prompt = tiny_ ? rng.uniform_int(16, 32) : rng.uniform_int(64, 320);
        r.gen = tiny_ ? rng.uniform_int(8, 16) : rng.uniform_int(48, 256);
        // Every fourth request is interactive: half the first-token budget,
        // which is what deadline-edf orders by.
        if (i % 4 == 3) r.deadline_s = kTtftLimitS / 2.0;
        p.requests.push_back(r);
      }
      plans_.push_back(std::move(p));
    }
    sched_opt_ = {};
    sched_opt_.max_concurrent = 4;
    sched_opt_.overload.admission = eval::AdmissionPolicy::kDeadlineEdf;
    sched_opt_.overload.queue_capacity = 8;
    sched_opt_.overload.deadline_s = kTtftLimitS;
    sched_opt_.overload.service_estimate_s = 2.0;
    sched_opt_.cache.policy = daop::cache::CachePolicy::kLfu;
  }

  PassOutput pass(const PassOptions& po) override {
    PassOutput out;
    const daop::sim::CostModel cm(platform_);
    const daop::model::OpCosts costs(cfg_, cm);
    const daop::cache::Placement initial = [&] {
      const Scope s(po.tracer, "cache.calib");
      const daop::data::TraceGenerator calib_gen(
          daop::data::sharegpt_calibration(), cfg_.n_layers, cfg_.n_experts,
          cfg_.top_k, seed_ ^ 0xCA11BULL);
      const auto counts =
          daop::cache::calibrate_activation_counts(calib_gen, 32);
      return daop::cache::init_placement_calibrated(
          cfg_.n_layers, cfg_.n_experts, 0.469, counts);
    }();
    const daop::data::TraceGenerator gen(workload_, cfg_.n_layers,
                                         cfg_.n_experts, cfg_.top_k, seed_);
    daop::obs::MetricsRegistry registry;
    std::vector<double> waits;
    long long hits = 0, misses = 0, preds = 0, mispreds = 0;
    double trace_tokens = 0.0;
    double goodput = 0.0;
    for (const RatePlan& plan : plans_) {
      auto engine = eval::make_engine(eval::EngineKind::Daop, costs);
      daop::sim::Timeline tl;
      tl.set_record_intervals(record_);
      daop::obs::TimeSeriesOptions ts_opt;
      ts_opt.window_s = po.sinks ? 5.0 : 0.0;
      daop::obs::TimeSeriesRecorder tseries(ts_opt, {"serving"});
      eval::ContinuousBatchingScheduler::Options so = sched_opt_;
      if (po.sinks) so.tseries = &tseries;
      eval::ContinuousBatchingScheduler sched(*engine, tl, initial, so);
      for (const PlannedRequest& pr : plan.requests) {
        eval::ContinuousBatchingScheduler::Request req;
        req.id = pr.id;
        req.arrival = pr.arrival;
        req.deadline_s = pr.deadline_s;
        {
          const Scope s(po.tracer, "data.gen", pr.id);
          req.trace = gen.generate(static_cast<int>(pr.id), pr.prompt, pr.gen);
        }
        out.layer["data.traces"] += 1.0;
        trace_tokens += pr.prompt + pr.gen;
        sched.enqueue(std::move(req));
      }
      std::vector<eval::ContinuousBatchingScheduler::Outcome> outcomes;
      {
        const Scope s(po.tracer, "eval.sched");
        outcomes = sched.run();
      }

      int served = 0, shed = 0, dropped = 0, met = 0;
      double makespan = 0.0, generated = 0.0;
      std::vector<double> ttft, tpot;
      for (const auto& o : outcomes) {
        out.digest.add(o.id);
        out.digest.add(static_cast<long long>(o.served));
        out.digest.add(static_cast<long long>(o.shed));
        out.digest.add(static_cast<long long>(o.shed_reason));
        out.digest.add(o.start);
        out.digest.add(o.end);
        out.digest.add(o.retries);
        out.digest.add(o.preemptions);
        if (o.shed) {
          ++shed;
          continue;
        }
        if (!o.served) {
          ++dropped;
          continue;
        }
        ++served;
        const auto& r = o.result;
        out.digest.add(r);
        const auto planned = std::find_if(
            plan.requests.begin(), plan.requests.end(),
            [&](const PlannedRequest& p) { return p.id == o.id; });
        out.check(planned != plan.requests.end() &&
                      r.generated_tokens == planned->gen,
                  "served request generated its planned tokens");
        const double first = o.start - o.arrival + r.prefill_s;
        const double per_tok =
            r.generated_tokens > 0 ? r.decode_s / r.generated_tokens : 0.0;
        ttft.push_back(first);
        tpot.push_back(per_tok);
        waits.push_back(o.start - o.arrival);
        if (first <= kTtftLimitS && per_tok <= kTpotLimitS) ++met;
        makespan = std::max(makespan, o.end);
        generated += r.generated_tokens;
        const auto& k = r.counters;
        out.layer["engines.migrations"] += static_cast<double>(k.expert_migrations);
        out.layer["engines.cpu_execs"] += static_cast<double>(k.cpu_expert_execs);
        out.layer["engines.gpu_execs"] += static_cast<double>(k.gpu_expert_execs);
        out.layer["core.degradations"] += static_cast<double>(k.degradations);
        hits += k.cache_hits;
        misses += k.cache_misses;
        preds += k.predictions;
        mispreds += k.mispredictions;
      }
      const int n = static_cast<int>(plan.requests.size());
      // Conservation: admission control may refuse work but never lose it.
      out.check(static_cast<int>(outcomes.size()) == n &&
                    served + shed + dropped == n,
                "served + shed + dropped == requests");
      out.check(served > 0, "at least one request served at each rate");
      out.tokens += generated;
      out.layer["eval.shed"] += shed;
      out.layer["eval.preemptions"] +=
          static_cast<double>(sched.overload_stats().preemptions);
      if (const daop::cache::ExpertCache* ec = sched.expert_cache()) {
        out.layer["cache.fills"] += static_cast<double>(ec->fills());
        out.layer["cache.refusals"] +=
            static_cast<double>(ec->refusals().size());
      }
      if (po.sinks) {
        for (const auto& o : outcomes) {
          if (o.served) daop::engines::record_run_metrics(registry, o.result);
        }
        tseries.finalize(std::max(makespan, tl.span()));
        const auto alerts = daop::obs::evaluate_slo_rules(
            daop::obs::default_slo_rules(), tseries);
        out.layer["obs.windows"] += static_cast<double>(tseries.n_windows());
        out.layer["obs.alerts"] += static_cast<double>(alerts.episodes.size());
      }
      if (record_) {
        using daop::obs::AttrCategory;
        const auto attr = daop::obs::attribute_window(
            tl.intervals(), tl.hazard_intervals(), 0.0, tl.span());
        out.layer["sim.schedule_ops"] += static_cast<double>(tl.interval_count());
        out.layer["sim.gpu_busy_s"] += attr.busy(AttrCategory::GpuExpert) +
                                       attr.busy(AttrCategory::GateAttn);
        out.layer["sim.pcie_exposed_s"] +=
            attr.exposed(AttrCategory::PcieMigration);
        out.layer["sim.cpu_hidden_s"] += attr.hidden(AttrCategory::CpuExpert);
        out.layer["sim.hazard_stall_s"] += tl.hazard_stall_s();
      }

      char at[32];
      std::snprintf(at, sizeof(at), "@%grps", plan.rate_rps);
      const Tail tt = tail_of(ttft);
      const Tail tp = tail_of(tpot);
      const double attain = static_cast<double>(met) / n;
      out.add_report(std::string("sim_tok_per_s") + at,
                     makespan > 0.0 ? generated / makespan : 0.0, "tok/sim_s",
                     "generated tokens / makespan");
      out.add_report(std::string("sim_ttft_p50_s") + at, median(ttft), "sim_s",
                     "served n=" + std::to_string(served));
      out.add_report(std::string("sim_ttft_tail_s") + at, tt.value, "sim_s",
                     tt.note());
      out.add_report(std::string("sim_tpot_tail_s") + at, tp.value, "sim_s",
                     tp.note());
      out.add_report(std::string("sim_slo_attain") + at, attain, "ratio",
                     "TTFT<=10s and TPOT<=1.5s over n=" + std::to_string(n) +
                         " sent; shed " + std::to_string(shed) + ", dropped " +
                         std::to_string(dropped));
      if (attain >= kSloObjective) goodput = std::max(goodput, plan.rate_rps);
    }
    out.add_report("sim_goodput_rps", goodput, "req/sim_s",
                   "highest planned rate with >=90% of requests within both "
                   "SLO limits (0: none)");
    const Tail qw = tail_of(waits);
    out.layer["eval.queue_wait_p50_s"] = median(waits);
    out.layer["eval.queue_wait_tail_s"] = qw.value;
    out.layer["data.trace_tokens"] = trace_tokens;
    out.layer["cache.hit_ratio"] =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
    out.layer["core.pred_hit_ratio"] =
        preds > 0 ? 1.0 - static_cast<double>(mispreds) / preds : 0.0;
    out.check(!po.sinks || !registry.to_prometheus().empty(),
              "metrics registry received the served requests");
    return out;
  }

  void probe(Tracer* /*tracer*/, const PassOutput& reference,
             PassOutput& out) override {
    // The shared timeline's interval record is passive: recording it must
    // leave every result bit-identical.
    record_ = true;
    PassOutput rec = pass(PassOptions{});
    record_ = false;
    out.check(rec.digest.value() == reference.digest.value(),
              "serve pass with interval recording matches bit for bit");
    for (const char* k : {"sim.schedule_ops", "sim.gpu_busy_s",
                          "sim.pcie_exposed_s", "sim.cpu_hidden_s",
                          "sim.hazard_stall_s"}) {
      out.layer[k] = rec.layer[k];
    }
  }

  bool has_sinks() const override { return true; }

 private:
  std::uint64_t seed_;
  bool tiny_;
  bool record_ = false;
  daop::model::ModelConfig cfg_;
  daop::sim::PlatformSpec platform_;
  daop::data::WorkloadSpec workload_;
  std::vector<RatePlan> plans_;
  eval::ContinuousBatchingScheduler::Options sched_opt_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(std::uint64_t seed, bool tiny) {
  return std::make_unique<Serve>(seed, tiny);
}

}  // namespace perfbench

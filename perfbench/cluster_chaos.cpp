// Workload `cluster-chaos`: four DAOP nodes under node crashes.
//
// Four Mixtral 8x7B replicas behind an expert-affinity router
// (cluster::run_cluster_serving_eval) with the node-crash hazard, health
// checking, a checkpoint cadence with warm restart, and the default SLO
// rules evaluated over the attached time series. The session layer is used
// differently from `serve`: frequent snapshot writes beside rare restores
// and failover replays. It is the only workload for `cluster`, `recovery`
// and `obs` alerting.
#include <cmath>
#include <cstdio>
#include <string>

#include "cluster/serving.hpp"
#include "harness.hpp"
#include "model/config.hpp"
#include "obs/alerting.hpp"
#include "obs/profiler.hpp"
#include "sim/fault_model.hpp"

namespace perfbench {
namespace {

constexpr int kNodes = 4;
constexpr double kTtftLimitS = 10.0;

// Summary-based tail: the raw samples stay inside the harness, which
// exposes p50/p90/p99 only.
Tail summary_tail(const daop::Summary& s) {
  Tail t;
  t.n = s.n;
  const double n = static_cast<double>(s.n);
  if (n * 0.01 >= 10.0) {
    t.percentile = 99.0;
    t.value = s.p99;
  } else if (n * 0.1 >= 10.0) {
    t.percentile = 90.0;
    t.value = s.p90;
  } else if (n * 0.5 >= 10.0) {
    t.percentile = 50.0;
    t.value = s.p50;
  } else {
    t.value = s.max;
  }
  return t;
}

void add_summary(Digest& d, const daop::Summary& s) {
  d.add(static_cast<long long>(s.n));
  for (double v : {s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p99}) {
    d.add(v);
  }
}

class ClusterChaos : public Workload {
 public:
  ClusterChaos(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void setup() override {
    cfg_ = daop::model::mixtral_8x7b();
    platform_ = daop::sim::a6000_i9_platform();
    workload_ = daop::data::c4();
    opt_ = {};
    auto& b = opt_.base;
    b.arrival_rate_rps = 0.04;
    b.n_requests = tiny_ ? 8 : 120;
    b.min_prompt = tiny_ ? 16 : 64;
    b.max_prompt = tiny_ ? 32 : 320;
    b.min_gen = tiny_ ? 8 : 48;
    b.max_gen = tiny_ ? 16 : 256;
    b.seed = seed_;
    b.slo_ttft_s = kTtftLimitS;
    opt_.n_nodes = kNodes;
    // The node-crash preset draws crash times from its first 50 s; move the
    // window inside the arrival span so crashes catch requests in flight.
    opt_.node_hazards = daop::sim::make_hazard_scenario("node-crash", 0.4);
    const double span = b.n_requests / b.arrival_rate_rps;
    opt_.node_hazards.node_crash_min_s = 0.1 * span;
    opt_.node_hazards.node_crash_max_s = 0.8 * span;
    auto& c = opt_.cluster;
    c.max_concurrent_per_node = 4;
    c.dispatch = daop::cluster::DispatchPolicy::kExpertAffinity;
    c.health.enabled = true;
    c.health.probe_interval_s = 0.25;
    c.health.eject_after = 2;
    // Back off longer than crash detection (2 probes) so a failover is not
    // re-dispatched into the dead node.
    c.failover_budget = 2;
    c.failover_backoff_s = 1.0;
    c.service_estimate_s = 2.0;
    c.checkpoint.every_steps = 4;
    opt_.validate();
  }

  PassOutput pass(const PassOptions& po) override {
    return run(po, /*profiler=*/nullptr);
  }

  void probe(Tracer* /*tracer*/, const PassOutput& reference,
             PassOutput& out) override {
    // Per-node interval recording and the profiler are passive: the run
    // must stay bit-identical.
    daop::obs::Profiler prof;
    PassOutput rec = run(PassOptions{}, &prof);
    out.check(rec.digest.value() == reference.digest.value(),
              "cluster run with a profiler attached matches bit for bit");
    using daop::obs::AttrCategory;
    const auto attr = prof.aggregate();
    out.layer["sim.gpu_busy_s"] = attr.busy(AttrCategory::GpuExpert) +
                                  attr.busy(AttrCategory::GateAttn);
    out.layer["sim.pcie_exposed_s"] = attr.exposed(AttrCategory::PcieMigration);
    out.layer["sim.cpu_hidden_s"] = attr.hidden(AttrCategory::CpuExpert);
  }

  bool has_sinks() const override { return true; }
  bool has_checkpoints() const override { return true; }

 private:
  PassOutput run(const PassOptions& po, daop::obs::Profiler* profiler) {
    PassOutput out;
    daop::cluster::ClusterServingOptions opt = opt_;
    if (!po.checkpoints) opt.cluster.checkpoint = {};
    daop::obs::MetricsRegistry registry;
    std::vector<std::string> channels;
    for (int i = 0; i < kNodes; ++i) channels.push_back("node" + std::to_string(i));
    channels.push_back("cluster");
    daop::obs::TimeSeriesOptions ts_opt;
    ts_opt.window_s = po.sinks ? 5.0 : 0.0;
    daop::obs::TimeSeriesRecorder tseries(ts_opt, channels);
    if (po.sinks) {
      opt.base.metrics = &registry;
      opt.base.tseries = &tseries;
    }
    if (profiler != nullptr) {
      opt.base.profiler = profiler;
      opt.cluster.record_intervals = true;
    }
    daop::cluster::ClusterServingResult r;
    {
      const Scope s(po.tracer, "cluster.run");
      r = daop::cluster::run_cluster_serving_eval(
          daop::eval::EngineKind::Daop, cfg_, platform_, workload_, opt);
    }
    if (po.sinks) {
      tseries.finalize(r.makespan_s);
      const auto alerts = daop::obs::evaluate_slo_rules(
          daop::obs::default_slo_rules(), tseries);
      out.layer["obs.windows"] = static_cast<double>(tseries.n_windows());
      out.layer["obs.alerts"] = static_cast<double>(alerts.episodes.size());
      out.check(!registry.to_prometheus().empty(),
                "metrics registry received the cluster run");
    }

    Digest& d = out.digest;
    d.add(static_cast<long long>(r.served));
    d.add(static_cast<long long>(r.shed));
    add_summary(d, r.ttft_s);
    add_summary(d, r.latency_s);
    add_summary(d, r.queue_wait_s);
    add_summary(d, r.tpot_s);
    d.add(r.throughput_tps);
    d.add(r.makespan_s);
    d.add(r.counters);
    const auto& cs = r.cluster;
    for (long long v : {cs.dispatches, cs.failovers_node_crash,
                        cs.failovers_dead_dispatch, cs.replayed_tokens,
                        cs.crashes, cs.ejections, cs.readmissions}) {
      d.add(v);
    }
    const auto& rs = r.recovery;
    for (long long v : {rs.checkpoints_written, rs.checkpoint_bytes,
                        rs.restores, rs.restored_tokens, rs.lost_sessions,
                        rs.recovered_restored, rs.recovered_replayed,
                        rs.recovered_shed}) {
      d.add(v);
    }
    for (double v : rs.recovery_latency_s) d.add(v);
    for (const auto& e : r.request_log) {
      d.add(e.id);
      d.add(e.outcome);
      d.add(e.retries);
      d.add(e.restores);
      d.add(e.recovery);
    }

    const int n = opt.base.n_requests;
    out.check(r.served + r.shed == n, "served + shed == requests");
    out.check(static_cast<int>(r.request_log.size()) == n,
              "one outcome per request");
    out.check(rs.lost_sessions ==
                  rs.recovered_restored + rs.recovered_replayed +
                      rs.recovered_shed,
              "every loss episode resolved exactly once");
    out.check(r.served > 0, "cluster served requests");
    out.tokens = std::round(r.throughput_tps * r.makespan_s);

    out.layer["cluster.dispatches"] = static_cast<double>(cs.dispatches);
    out.layer["cluster.failovers"] = static_cast<double>(cs.failovers_total());
    out.layer["cluster.replayed_tokens"] = static_cast<double>(cs.replayed_tokens);
    out.layer["recovery.checkpoints"] =
        static_cast<double>(rs.checkpoints_written);
    out.layer["recovery.restored"] = static_cast<double>(rs.recovered_restored);
    out.layer["eval.shed"] = r.shed;
    out.layer["eval.queue_wait_p50_s"] = r.queue_wait_s.p50;
    out.layer["eval.queue_wait_tail_s"] = summary_tail(r.queue_wait_s).value;
    const auto& k = r.counters;
    out.layer["engines.migrations"] = static_cast<double>(k.expert_migrations);
    out.layer["engines.cpu_execs"] = static_cast<double>(k.cpu_expert_execs);
    out.layer["engines.gpu_execs"] = static_cast<double>(k.gpu_expert_execs);
    out.layer["core.degradations"] = static_cast<double>(k.degradations);
    out.layer["cache.hit_ratio"] =
        k.cache_hits + k.cache_misses > 0
            ? static_cast<double>(k.cache_hits) / (k.cache_hits + k.cache_misses)
            : 0.0;
    out.layer["core.pred_hit_ratio"] =
        k.predictions > 0
            ? 1.0 - static_cast<double>(k.mispredictions) / k.predictions
            : 0.0;
    out.layer["sim.hazard_stall_s"] = k.hazard_stall_s;
    out.layer["cache.fills"] = static_cast<double>(r.cache_fills);
    out.layer["cache.refusals"] = static_cast<double>(r.cache_refusals);

    const Tail tt = summary_tail(r.ttft_s);
    const Tail tp = summary_tail(r.tpot_s);
    const Tail rt = tail_of(rs.recovery_latency_s);
    out.add_report("sim_tok_per_s", r.throughput_tps, "tok/sim_s",
                   "generated tokens / makespan");
    out.add_report("sim_ttft_p50_s", r.ttft_s.p50, "sim_s",
                   "served n=" + std::to_string(r.served));
    out.add_report("sim_ttft_tail_s", tt.value, "sim_s", tt.note());
    out.add_report("sim_tpot_tail_s", tp.value, "sim_s", tp.note());
    out.add_report("sim_slo_attain", 1.0 - r.slo_violation_rate, "ratio",
                   "TTFT<=10s over n=" + std::to_string(n) + " sent; shed " +
                       std::to_string(r.shed) + " count as misses");
    out.add_report("sim_recovery_tail_s", rt.value, "sim_s",
                   rt.note() + "; loss episodes " +
                       std::to_string(rs.lost_sessions) + ": restored " +
                       std::to_string(rs.recovered_restored) + ", replayed " +
                       std::to_string(rs.recovered_replayed) + ", shed " +
                       std::to_string(rs.recovered_shed));
    return out;
  }

  std::uint64_t seed_;
  bool tiny_;
  daop::model::ModelConfig cfg_;
  daop::sim::PlatformSpec platform_;
  daop::data::WorkloadSpec workload_;
  daop::cluster::ClusterServingOptions opt_;
};

}  // namespace

std::unique_ptr<Workload> make_cluster_chaos(std::uint64_t seed, bool tiny) {
  return std::make_unique<ClusterChaos>(seed, tiny);
}

}  // namespace perfbench

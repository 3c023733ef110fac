// Byte-identity snapshot of both serving loops: the continuous-batching
// scheduler (single node) and the cluster router's per-node loop. Each block
// drives one policy path — client timeouts and retries, bounded queues,
// lifo-shed, deadline-edf with preemption, the degradation ladder, and the
// router's dispatch, crash/failover, hedging, warm-restart and dynamic-cache
// paths — and pins its outcomes, overload/cluster/recovery telemetry, the
// Prometheus text, the Chrome trace JSON and the daop-tseries/1 export by
// FNV-1a hash. Every block also asserts that the path it exists for really
// ran, so a golden can never silently stop covering it.
//
// Regenerate (only after an INTENTIONAL serving-behaviour change) with:
//   DAOP_UPDATE_GOLDENS=1 ./serving_loops_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "../testing/helpers.hpp"
#include "cluster/serving.hpp"
#include "eval/serving.hpp"
#include "obs/alerting.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "obs/timeseries.hpp"
#include "sim/trace_export.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::eval {
namespace {

/// Hexfloat rendering: two doubles render identically iff bit-identical.
std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string hash_str(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string summary_line(const char* name, const Summary& s) {
  return std::string(name) + "=" + hexf(s.mean) + " " + hexf(s.p50) + " " +
         hexf(s.p99) + "\n";
}

std::string counters_line(const engines::EngineCounters& c) {
  std::ostringstream os;
  os << "counters=" << c.expert_migrations << "," << c.gpu_expert_execs << ","
     << c.cpu_expert_execs << "," << c.cache_hits << "," << c.cache_misses
     << "," << c.prefetch_hits << "," << c.predictions << ","
     << c.mispredictions << "," << c.degradations << "," << c.prefill_swaps
     << "," << c.decode_swaps << "," << c.skipped_experts << ","
     << c.migration_retries << "," << c.migration_aborts << ","
     << c.stale_precalcs << "," << c.pin_refusals << "," << c.preemptions
     << "," << c.preempt_resumes << "," << c.degraded_sessions << ","
     << hexf(c.hazard_stall_s) << "\n";
  return os.str();
}

std::string request_log_hash(
    const std::vector<ServingResult::RequestLogEntry>& log) {
  std::ostringstream os;
  for (const auto& e : log) {
    os << e.id << " " << hexf(e.arrival) << " " << e.outcome << " "
       << e.retries << " " << e.preempted << " " << e.restores << " "
       << e.recovery << "\n";
  }
  return hash_str(os.str());
}

/// Options shared by every single-node block: small Mixtral, short
/// requests, four slots, arrivals fast enough to keep a queue.
ServingOptions cb_base() {
  ServingOptions opt;
  opt.arrival_rate_rps = 2.0;
  opt.n_requests = 16;
  opt.min_prompt = 16;
  opt.max_prompt = 32;
  opt.min_gen = 8;
  opt.max_gen = 16;
  opt.calibration_seqs = 4;
  opt.seed = 17;
  opt.max_concurrent = 4;
  return opt;
}

std::string cb_block(const std::string& name, ServingOptions opt,
                     const std::function<void(const ServingResult&)>& covers) {
  obs::MetricsRegistry reg;
  opt.metrics = &reg;
  obs::SpanTracer tracer;
  opt.tracer = &tracer;
  obs::TimeSeriesOptions tso;
  tso.window_s = 2.0;
  obs::TimeSeriesRecorder ts(tso, {"serving"});
  opt.tseries = &ts;
  const ServingResult r =
      run_serving_eval(EngineKind::Daop, daop::testing::small_mixtral(),
                       sim::a6000_i9_platform(), data::sharegpt_calibration(),
                       opt);
  covers(r);

  std::ostringstream os;
  os << "[cb " << name << "]\n";
  os << "served=" << r.served << " dropped=" << r.dropped << " shed=" << r.shed
     << " retries=" << r.request_retries << " preemptions=" << r.preemptions
     << " slo=" << r.slo_violations << "\n";
  os << "shed_by=" << r.shed_queue_full << "," << r.shed_deadline << ","
     << r.shed_degraded << "," << r.shed_node_lost << "\n";
  os << "degrade=" << r.degrade_steps_down << "," << r.degrade_steps_up << ","
     << r.degrade_peak_level << "," << r.degrade_final_level << "\n";
  os << summary_line("ttft", r.ttft_s) << summary_line("latency", r.latency_s)
     << summary_line("queue_wait", r.queue_wait_s)
     << summary_line("tpot", r.tpot_s);
  os << "throughput=" << hexf(r.throughput_tps)
     << " makespan=" << hexf(r.makespan_s) << " busy=" << hexf(r.busy_fraction)
     << "\n";
  os << "cache=" << r.cache_fills << "," << r.cache_evictions << ","
     << r.cache_refusals << "," << r.cache_aborts << "\n";
  os << counters_line(r.counters);
  os << "outcomes_fnv1a=" << request_log_hash(r.request_log) << "\n";
  const sim::Timeline no_timeline;
  os << "trace_fnv1a="
     << hash_str(sim::to_chrome_trace_json(no_timeline, &tracer)) << "\n";
  os << "metrics_fnv1a=" << hash_str(reg.to_prometheus()) << "\n";
  os << "tseries_fnv1a=" << hash_str(obs::to_tseries_json(ts, {}, {}))
     << "\n";
  return os.str();
}

/// Options shared by every cluster block: four small nodes of two slots.
cluster::ClusterServingOptions cl_base() {
  cluster::ClusterServingOptions opt;
  opt.n_nodes = 4;
  opt.base.arrival_rate_rps = 4.0;
  opt.base.n_requests = 16;
  opt.base.min_prompt = 16;
  opt.base.max_prompt = 32;
  opt.base.min_gen = 12;
  opt.base.max_gen = 24;
  opt.base.calibration_seqs = 4;
  opt.base.seed = 23;
  opt.cluster.max_concurrent_per_node = 2;
  return opt;
}

std::string cl_block(
    const std::string& name, cluster::ClusterServingOptions opt,
    const std::function<void(const cluster::ClusterServingResult&)>& covers) {
  obs::MetricsRegistry reg;
  opt.base.metrics = &reg;
  obs::SpanTracer tracer;
  opt.base.tracer = &tracer;
  obs::TimeSeriesOptions tso;
  tso.window_s = 2.0;
  std::vector<std::string> channels;
  for (int i = 0; i < opt.n_nodes; ++i) {
    channels.push_back("node" + std::to_string(i));
  }
  channels.push_back("cluster");
  obs::TimeSeriesRecorder ts(tso, channels);
  opt.base.tseries = &ts;
  const cluster::ClusterServingResult r = cluster::run_cluster_serving_eval(
      EngineKind::Daop, daop::testing::small_mixtral(),
      sim::a6000_i9_platform(), data::sharegpt_calibration(), opt);
  covers(r);

  std::ostringstream os;
  os << "[cluster " << name << "]\n";
  os << "served=" << r.served << " shed=" << r.shed
     << " slo=" << r.slo_violations << " shed_by=" << r.shed_node_lost << ","
     << r.shed_deadline << "," << r.shed_degraded << "\n";
  os << summary_line("ttft", r.ttft_s) << summary_line("latency", r.latency_s)
     << summary_line("queue_wait", r.queue_wait_s)
     << summary_line("tpot", r.tpot_s);
  os << "throughput=" << hexf(r.throughput_tps)
     << " makespan=" << hexf(r.makespan_s) << "\n";
  os << "cache=" << r.cache_fills << "," << r.cache_evictions << ","
     << r.cache_refusals << "," << r.cache_aborts << "\n";
  os << counters_line(r.counters);
  const cluster::ClusterStats& c = r.cluster;
  os << "cluster=" << c.dispatches << "," << c.failovers_node_crash << ","
     << c.failovers_dead_dispatch << "," << c.replayed_tokens << ","
     << c.hedges << "," << c.hedge_wins << "," << c.hedge_cancels << ","
     << c.shed_node_lost << "," << c.shed_deadline << "," << c.shed_degraded
     << "," << c.crashes << "," << c.ejections << "," << c.readmissions
     << "\n";
  os << "nodes=";
  for (std::size_t i = 0; i < c.node_dispatched.size(); ++i) {
    os << c.node_dispatched[i] << "/" << c.node_served[i] << "/"
       << c.node_final_state[i] << " ";
  }
  os << "\n";
  const cluster::RecoveryStats& rs = r.recovery;
  os << "recovery=" << rs.checkpoints_written << "," << rs.checkpoint_bytes
     << "," << rs.torn_writes << "," << rs.corrupt_writes << ","
     << rs.torn_rejected << "," << rs.restores << "," << rs.restored_tokens
     << "," << rs.fallbacks_no_checkpoint << "," << rs.fallbacks_invalid << ","
     << rs.reconcile_migrations << "," << rs.reconcile_evictions << ","
     << rs.reconcile_refusals << "," << rs.lost_sessions << ","
     << rs.recovered_restored << "," << rs.recovered_replayed << ","
     << rs.recovered_shed << "\n";
  std::ostringstream ev;
  for (const cluster::RestoreEvent& e : rs.events) {
    ev << e.request_id << " " << e.node << " " << e.restored << " " << e.step
       << " " << hexf(e.loss_time) << " " << hexf(e.admit_time) << " "
       << hexf(e.latency_s) << "\n";
  }
  os << "restore_events_fnv1a=" << hash_str(ev.str()) << "\n";
  std::ostringstream he;
  for (const cluster::HealthEvent& e : r.health_events) {
    he << hexf(e.time) << " " << e.node << " " << e.ejected << " " << e.reason
       << "\n";
  }
  os << "health_events_fnv1a=" << hash_str(he.str()) << "\n";
  os << "outcomes_fnv1a=" << request_log_hash(r.request_log) << "\n";
  const sim::Timeline no_timeline;
  os << "trace_fnv1a="
     << hash_str(sim::to_chrome_trace_json(no_timeline, &tracer)) << "\n";
  os << "metrics_fnv1a=" << hash_str(reg.to_prometheus()) << "\n";
  os << "tseries_fnv1a=" << hash_str(obs::to_tseries_json(ts, {}, {}))
     << "\n";
  return os.str();
}

std::string all_blocks() {
  std::string out;

  {  // Default overload options: the plain loop, with client timeouts.
    ServingOptions o = cb_base();
    o.max_concurrent = 2;
    o.request_timeout_s = 0.3;
    o.max_request_retries = 1;
    o.retry_backoff_s = 0.2;
    out += cb_block("default timeout-retry", o, [](const ServingResult& r) {
      EXPECT_GT(r.request_retries, 0) << "block must exercise retries";
      EXPECT_GT(r.dropped, 0) << "block must exercise timeout drops";
      EXPECT_GT(r.served, 0);
    });
  }
  {
    ServingOptions o = cb_base();
    o.arrival_rate_rps = 8.0;
    o.overload.admission = AdmissionPolicy::kFifo;
    o.overload.queue_capacity = 2;
    out += cb_block("fifo queue-cap", o, [](const ServingResult& r) {
      EXPECT_GT(r.shed_queue_full, 0) << "block must overflow the queue";
    });
  }
  {
    ServingOptions o = cb_base();
    o.arrival_rate_rps = 8.0;
    o.overload.admission = AdmissionPolicy::kLifoShed;
    o.overload.queue_capacity = 2;
    out += cb_block("lifo-shed", o, [](const ServingResult& r) {
      EXPECT_GT(r.shed_queue_full, 0) << "block must shed the stalest";
    });
  }
  {
    ServingOptions o = cb_base();
    o.arrival_rate_rps = 6.0;
    o.overload.admission = AdmissionPolicy::kDeadlineEdf;
    o.overload.deadline_s = 2.0;
    o.overload.service_estimate_s = 0.4;
    o.overload.preempt = true;
    o.priority_every = 3;
    o.priority_deadline_s = 0.6;
    out += cb_block("deadline-edf preempt", o, [](const ServingResult& r) {
      EXPECT_GT(r.preemptions, 0) << "block must preempt";
      EXPECT_GT(r.shed_deadline, 0) << "block must shed on deadline";
    });
  }
  {
    ServingOptions o = cb_base();
    o.hazards = sim::make_hazard_scenario("all", 0.8);
    o.overload.degrade.enabled = true;
    o.overload.degrade.window_s = 2.0;
    o.overload.deadline_s = 8.0;
    o.overload.service_estimate_s = 0.5;
    out += cb_block("degrade ladder hazard-all", o, [](const ServingResult& r) {
      EXPECT_GT(r.degrade_steps_down, 0) << "block must step the ladder";
    });
  }

  {
    out += cl_block("round-robin calm", cl_base(),
                    [](const cluster::ClusterServingResult& r) {
                      EXPECT_EQ(r.served, 16);
                    });
  }
  {
    cluster::ClusterServingOptions o = cl_base();
    o.cluster.dispatch = cluster::DispatchPolicy::kLeastLoaded;
    o.cluster.service_estimate_s = 0.5;
    o.cluster.health.enabled = true;
    o.cluster.health.probe_interval_s = 0.5;
    o.cluster.health.eject_after = 1;
    // Op-level hazards drive the degradation ladder; the brownout makes
    // the health checker see slow probes.
    o.node_hazards = sim::make_hazard_scenario("all", 0.8);
    const sim::HazardScenario brownout =
        sim::make_hazard_scenario("node-brownout", 0.8);
    o.node_hazards.node_brownout_prob = brownout.node_brownout_prob;
    o.node_hazards.node_brownout_min_start_s =
        brownout.node_brownout_min_start_s;
    o.node_hazards.node_brownout_max_start_s =
        brownout.node_brownout_max_start_s;
    o.node_hazards.node_brownout_duration_s =
        brownout.node_brownout_duration_s;
    o.node_hazards.node_brownout_slowdown = brownout.node_brownout_slowdown;
    o.cluster.degrade.enabled = true;
    o.cluster.degrade.window_s = 2.0;
    o.cluster.failover_budget = 2;
    o.cluster.failover_backoff_s = 0.05;
    o.cluster.crash_node = 1;
    o.cluster.crash_time_s = 2.0;
    out += cl_block("least-loaded crash health failover degrade", o,
                    [](const cluster::ClusterServingResult& r) {
                      EXPECT_EQ(r.cluster.crashes, 1);
                      EXPECT_GT(r.cluster.failovers_total(), 0);
                      EXPECT_GT(r.cluster.ejections, 0);
                      EXPECT_GT(r.counters.degraded_sessions, 0)
                          << "block must step the ladder";
                    });
  }
  {
    cluster::ClusterServingOptions o = cl_base();
    o.cluster.dispatch = cluster::DispatchPolicy::kExpertAffinity;
    const model::ModelConfig cfg = daop::testing::small_mixtral();
    for (int i = 0; i < o.n_nodes; ++i) {
      o.node_placements.push_back(
          daop::testing::prefix_placement(cfg, 1 + i));
    }
    o.cluster.service_estimate_s = 0.5;
    o.cluster.hedge_ttft_threshold_s = 0.4;
    o.cluster.deadline_s = 3.0;
    out += cl_block("expert-affinity hedge deadline", o,
                    [](const cluster::ClusterServingResult& r) {
                      EXPECT_GT(r.cluster.hedges, 0);
                      EXPECT_GT(r.cluster.hedge_cancels, 0);
                    });
  }
  {
    cluster::ClusterServingOptions o = cl_base();
    o.cluster.dispatch = cluster::DispatchPolicy::kLeastLoaded;
    o.cluster.health.enabled = true;
    o.cluster.health.probe_interval_s = 0.5;
    o.cluster.health.eject_after = 1;
    o.node_hazards = sim::make_hazard_scenario("ckpt-torn", 0.5);
    o.cluster.checkpoint.every_steps = 1;
    o.cluster.checkpoint.keep_generations = 2;
    o.cluster.failover_budget = 3;
    o.cluster.failover_backoff_s = 0.05;
    o.cluster.crash_node = 1;
    o.cluster.crash_time_s = 3.0;
    out += cl_block("checkpoint warm-restart ckpt-torn", o,
                    [](const cluster::ClusterServingResult& r) {
                      EXPECT_GT(r.recovery.checkpoints_written, 0);
                      EXPECT_GT(r.recovery.torn_writes, 0);
                      EXPECT_GT(r.recovery.restores, 0);
                    });
  }
  {
    cluster::ClusterServingOptions o = cl_base();
    o.cluster.cache.policy = cache::CachePolicy::kLfu;
    out += cl_block("lfu cache", o, [](const cluster::ClusterServingResult& r) {
      EXPECT_GT(r.cache_fills, 0);
    });
  }
  return out;
}

const char* kGoldenPath = DAOP_GOLDEN_DIR "/serving_loops.golden";

TEST(ServingLoopsGolden, EveryPolicyPathMatchesGolden) {
  const std::string actual = all_blocks();
  if (std::getenv("DAOP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream f(kGoldenPath);
    ASSERT_TRUE(f.good()) << "cannot write " << kGoldenPath;
    f << actual;
    GTEST_SKIP() << "goldens regenerated at " << kGoldenPath;
  }
  std::ifstream f(kGoldenPath);
  ASSERT_TRUE(f.good()) << "missing golden file " << kGoldenPath
                        << " (regenerate with DAOP_UPDATE_GOLDENS=1)";
  std::ostringstream expected;
  expected << f.rdbuf();
  // Compare line by line so a failure names the first diverging block.
  std::istringstream ea(expected.str());
  std::istringstream aa(actual);
  std::string eline;
  std::string aline;
  std::string block = "<header>";
  int line_no = 0;
  while (std::getline(ea, eline)) {
    ++line_no;
    if (!eline.empty() && eline.front() == '[') block = eline;
    ASSERT_TRUE(static_cast<bool>(std::getline(aa, aline)))
        << "snapshot truncated in " << block;
    ASSERT_EQ(eline, aline) << "first divergence in " << block << " (line "
                            << line_no << ")";
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(aa, aline)))
      << "snapshot has extra content after " << block;
}

}  // namespace
}  // namespace daop::eval

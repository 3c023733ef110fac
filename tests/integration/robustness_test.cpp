// Robustness-plane integration tests: seed stability of hazard runs, the
// strict no-op contract of a disabled fault plane, engine behaviour on
// degenerate inputs under hazards, the graceful-degradation policies
// (deadline aborts, stale pre-calc discards), serving timeout/SLO
// accounting, and DaopConfig construction-time validation.
#include <gtest/gtest.h>

#include <cmath>

#include "../testing/helpers.hpp"
#include "common/check.hpp"
#include "core/daop_engine.hpp"
#include "data/trace_generator.hpp"
#include "eval/serving.hpp"
#include "eval/speed.hpp"
#include "sim/fault_model.hpp"

namespace daop {
namespace {

using daop::testing::fixed_trace;
using daop::testing::prefix_placement;
using daop::testing::small_mixtral;

void expect_same_result(const engines::RunResult& a,
                        const engines::RunResult& b, const char* what) {
  EXPECT_EQ(a.engine, b.engine) << what;
  EXPECT_EQ(a.generated_tokens, b.generated_tokens) << what;
  EXPECT_EQ(a.prefill_s, b.prefill_s) << what;
  EXPECT_EQ(a.decode_s, b.decode_s) << what;
  EXPECT_EQ(a.total_s, b.total_s) << what;
  EXPECT_EQ(a.tokens_per_s, b.tokens_per_s) << what;
  EXPECT_EQ(a.tokens_per_kj, b.tokens_per_kj) << what;
  EXPECT_EQ(a.counters.expert_migrations, b.counters.expert_migrations)
      << what;
  EXPECT_EQ(a.counters.migration_retries, b.counters.migration_retries)
      << what;
  EXPECT_EQ(a.counters.migration_aborts, b.counters.migration_aborts) << what;
  EXPECT_EQ(a.counters.stale_precalcs, b.counters.stale_precalcs) << what;
  EXPECT_EQ(a.counters.hazard_stall_s, b.counters.hazard_stall_s) << what;
  EXPECT_EQ(a.counters.degradations, b.counters.degradations) << what;
  EXPECT_EQ(a.counters.cache_hits, b.counters.cache_hits) << what;
}

class Robustness : public ::testing::Test {
 protected:
  Robustness()
      : cfg_(small_mixtral()),
        platform_(sim::a6000_i9_platform()),
        cm_(platform_),
        costs_(cfg_, cm_) {}

  model::ModelConfig cfg_;
  sim::PlatformSpec platform_;
  sim::CostModel cm_;
  model::OpCosts costs_;
};

// ---- Satellite 3: seed stability with hazards on and off ----

TEST_F(Robustness, SpeedEvalIsSeedStableWithHazardsOnAndOff) {
  for (const char* kind : {"none", "all"}) {
    eval::SpeedEvalOptions opt;
    opt.n_seqs = 2;
    opt.prompt_len = 16;
    opt.gen_len = 12;
    opt.seed = 77;
    opt.hazards = sim::make_hazard_scenario(kind, 0.8);
    for (auto engine : eval::extended_baseline_engines()) {
      const auto a =
          eval::run_speed_eval(engine, cfg_, platform_, data::c4(), opt);
      const auto b =
          eval::run_speed_eval(engine, cfg_, platform_, data::c4(), opt);
      expect_same_result(a, b, kind);
    }
  }
}

TEST_F(Robustness, ServingEvalIsSeedStableWithHazardsOnAndOff) {
  for (const char* kind : {"none", "all"}) {
    eval::ServingOptions opt;
    opt.n_requests = 6;
    opt.arrival_rate_rps = 0.1;
    opt.min_prompt = 8;
    opt.max_prompt = 24;
    opt.min_gen = 4;
    opt.max_gen = 16;
    opt.seed = 31;
    opt.hazards = sim::make_hazard_scenario(kind, 0.8);
    opt.request_timeout_s = 30.0;
    opt.max_request_retries = 1;
    const auto a = eval::run_serving_eval(eval::EngineKind::Daop, cfg_,
                                          platform_, data::c4(), opt);
    const auto b = eval::run_serving_eval(eval::EngineKind::Daop, cfg_,
                                          platform_, data::c4(), opt);
    EXPECT_EQ(a.throughput_tps, b.throughput_tps) << kind;
    EXPECT_EQ(a.makespan_s, b.makespan_s) << kind;
    EXPECT_EQ(a.served, b.served) << kind;
    EXPECT_EQ(a.dropped, b.dropped) << kind;
    EXPECT_EQ(a.request_retries, b.request_retries) << kind;
    EXPECT_EQ(a.slo_violations, b.slo_violations) << kind;
    EXPECT_EQ(a.counters.hazard_stall_s, b.counters.hazard_stall_s) << kind;
    EXPECT_EQ(a.latency_s.mean, b.latency_s.mean) << kind;
  }
}

// ---- Strict no-op: a disabled fault plane changes nothing ----

TEST_F(Robustness, DisabledFaultModelIsBitIdenticalToNoFaultModel) {
  const data::TraceGenerator gen(data::c4(), cfg_.n_layers, cfg_.n_experts,
                                 cfg_.top_k, 5);
  const auto tr = gen.generate(0, 24, 16);
  const auto placement = prefix_placement(cfg_, 4);
  sim::FaultModel disabled(sim::HazardScenario{}, 99);
  ASSERT_FALSE(disabled.enabled());
  for (auto kind : eval::extended_baseline_engines()) {
    auto plain = eval::make_engine(kind, costs_);
    auto faulty = eval::make_engine(kind, costs_);
    faulty->set_fault_model(&disabled);
    expect_same_result(plain->run(tr, placement), faulty->run(tr, placement),
                       plain->name().c_str());
  }
}

// ---- Satellite 4: degenerate inputs under active hazards ----

TEST_F(Robustness, ZeroGenerationUnderHazards) {
  const auto tr = fixed_trace(cfg_, 4, 0, {0, 1});
  const auto placement = prefix_placement(cfg_, 4);
  sim::FaultModel fault(sim::make_hazard_scenario("all", 1.0), 7);
  for (auto kind : eval::extended_baseline_engines()) {
    auto engine = eval::make_engine(kind, costs_);
    engine->set_fault_model(&fault);
    const auto r = engine->run(tr, placement);
    EXPECT_EQ(r.generated_tokens, 0) << engine->name();
    EXPECT_TRUE(std::isfinite(r.total_s)) << engine->name();
    EXPECT_GT(r.prefill_s, 0.0) << engine->name();
    EXPECT_GE(r.counters.hazard_stall_s, 0.0) << engine->name();
  }
}

TEST_F(Robustness, SingleLayerModelUnderHazards) {
  const model::ModelConfig cfg = small_mixtral(1);
  const model::OpCosts costs(cfg, cm_);
  const data::TraceGenerator gen(data::c4(), 1, cfg.n_experts, cfg.top_k, 4);
  const auto tr = gen.generate(0, 6, 6);
  const auto placement = prefix_placement(cfg, 4);
  sim::FaultModel fault(sim::make_hazard_scenario("all", 1.0), 11);
  for (auto kind : eval::extended_baseline_engines()) {
    auto engine = eval::make_engine(kind, costs);
    engine->set_fault_model(&fault);
    const auto r = engine->run(tr, placement);
    EXPECT_GT(r.tokens_per_s, 0.0) << engine->name();
    EXPECT_TRUE(std::isfinite(r.tokens_per_s)) << engine->name();
    EXPECT_TRUE(std::isfinite(r.tokens_per_kj)) << engine->name();
  }
}

TEST_F(Robustness, AllExpertsOnCpuUnderHazards) {
  const auto tr = fixed_trace(cfg_, 4, 6, {0, 1});
  const cache::Placement placement(cfg_.n_layers, cfg_.n_experts);  // ECR 0
  sim::FaultModel fault(sim::make_hazard_scenario("all", 1.0), 13);
  for (auto kind : eval::extended_baseline_engines()) {
    auto engine = eval::make_engine(kind, costs_);
    engine->set_fault_model(&fault);
    const auto r = engine->run(tr, placement);
    EXPECT_GT(r.total_s, 0.0) << engine->name();
    EXPECT_TRUE(std::isfinite(r.total_s)) << engine->name();
    EXPECT_TRUE(std::isfinite(r.tokens_per_s)) << engine->name();
  }
}

// ---- Tentpole: graceful-degradation policies fire under hazards ----

TEST_F(Robustness, DeadlineAndRetryPolicyAbortsMigrationsUnderLoadFailures) {
  const data::TraceGenerator gen(data::c4(), cfg_.n_layers, cfg_.n_experts,
                                 cfg_.top_k, 21);
  const auto tr = gen.generate(0, 48, 24);
  const auto placement = prefix_placement(cfg_, 2);  // tight cache: swaps

  sim::HazardScenario s;
  s.expert_load_fail_prob = 0.9;
  sim::FaultModel fault(s, 3);

  core::DaopConfig dc;
  dc.migration_deadline_factor = 1.5;
  dc.max_migration_retries = 1;
  core::DaopEngine engine(costs_, dc);
  engine.set_fault_model(&fault);
  const auto r = engine.run(tr, placement);
  EXPECT_GT(r.counters.migration_retries, 0);
  EXPECT_GT(r.counters.migration_aborts, 0);
  EXPECT_TRUE(std::isfinite(r.total_s));

  // Without the fault model there are no transient failures to retry, and
  // with the deadline disabled nothing can abort.
  core::DaopConfig calm_dc;
  calm_dc.migration_deadline_factor = 0.0;
  core::DaopEngine calm(costs_, calm_dc);
  const auto rc = calm.run(tr, placement);
  EXPECT_EQ(rc.counters.migration_retries, 0);
  EXPECT_EQ(rc.counters.migration_aborts, 0);
}

TEST_F(Robustness, StalePrecalcPolicyDiscardsLateResults) {
  const data::TraceGenerator gen(data::c4(), cfg_.n_layers, cfg_.n_experts,
                                 cfg_.top_k, 22);
  const auto tr = gen.generate(0, 32, 32);
  const auto placement = prefix_placement(cfg_, 4);

  core::DaopConfig dc;
  dc.min_predict_layer = 1;        // 4-layer test model: pre-calc everywhere
  dc.stale_precalc_factor = 0.01;  // nearly everything counts as stale
  core::DaopEngine engine(costs_, dc);
  const auto r = engine.run(tr, placement);
  EXPECT_GT(r.counters.stale_precalcs, 0);
  // Each discarded pre-calc is re-run as a degraded GPU substitution.
  EXPECT_GE(r.counters.degradations, r.counters.stale_precalcs);
  EXPECT_TRUE(std::isfinite(r.tokens_per_s));
}

// ---- Serving timeouts, retries, SLO accounting ----

TEST_F(Robustness, ServingTimeoutsDropAndRetryDeterministically) {
  eval::ServingOptions opt;
  opt.n_requests = 10;
  opt.arrival_rate_rps = 50.0;  // slam the queue so waits explode
  opt.min_prompt = 32;
  opt.max_prompt = 64;
  opt.min_gen = 16;
  opt.max_gen = 32;
  opt.seed = 41;
  opt.request_timeout_s = 0.5;
  opt.max_request_retries = 1;
  opt.retry_backoff_s = 0.1;
  const auto r = eval::run_serving_eval(eval::EngineKind::MoEOnDemand, cfg_,
                                        platform_, data::c4(), opt);
  EXPECT_EQ(r.served + r.dropped, opt.n_requests);
  EXPECT_GT(r.dropped, 0);
  EXPECT_GT(r.request_retries, 0);
  // Dropped requests always count against the SLO.
  EXPECT_GE(r.slo_violations, r.dropped);
  EXPECT_NEAR(r.slo_violation_rate,
              static_cast<double>(r.slo_violations) / opt.n_requests, 1e-12);
}

TEST_F(Robustness, ServingSloThresholdsCountViolations) {
  eval::ServingOptions opt;
  opt.n_requests = 8;
  opt.arrival_rate_rps = 0.5;
  opt.min_prompt = 16;
  opt.max_prompt = 32;
  opt.min_gen = 8;
  opt.max_gen = 16;
  opt.seed = 43;
  opt.slo_ttft_s = 1e-6;  // impossible SLO: every served request violates
  const auto r = eval::run_serving_eval(eval::EngineKind::Daop, cfg_,
                                        platform_, data::c4(), opt);
  EXPECT_EQ(r.served, opt.n_requests);
  EXPECT_EQ(r.slo_violations, opt.n_requests);
  EXPECT_EQ(r.slo_violation_rate, 1.0);
}

// ---- Satellite 1: DaopConfig validation at construction ----

TEST_F(Robustness, ConfigValidationRejectsBadValues) {
  {
    core::DaopConfig dc;
    dc.swap_in_out = 0.5;  // would swap in less than it swaps out
    EXPECT_THROW(core::DaopEngine(costs_, dc), CheckError);
  }
  {
    core::DaopConfig dc;
    dc.min_predict_layer = -1;
    EXPECT_THROW(core::DaopEngine(costs_, dc), CheckError);
  }
  for (const int bits : {1, 9}) {  // only 0 (off) and 2..8 are implemented
    core::DaopConfig dc;
    dc.cpu_quant_bits = bits;
    EXPECT_THROW(core::DaopEngine(costs_, dc), CheckError) << bits;
  }
  {
    core::DaopConfig dc;
    dc.migration_deadline_factor = -1.0;
    EXPECT_THROW(core::DaopEngine(costs_, dc), CheckError);
  }
  {
    core::DaopConfig dc;
    dc.max_migration_retries = -2;
    EXPECT_THROW(core::DaopEngine(costs_, dc), CheckError);
  }
  {
    core::DaopConfig dc;
    dc.stale_precalc_factor = -0.5;
    EXPECT_THROW(core::DaopEngine(costs_, dc), CheckError);
  }
  core::validate_config(core::DaopConfig{});  // defaults are valid
}

}  // namespace
}  // namespace daop

#include "core/daop_executor.hpp"

#include <gtest/gtest.h>

#include "cache/placement.hpp"
#include "common/check.hpp"
#include "data/gate_bias.hpp"
#include "data/workload.hpp"
#include "eval/accuracy.hpp"
#include "model/config.hpp"

namespace daop::core {
namespace {

class DaopExecutorTest : public ::testing::Test {
 protected:
  DaopExecutorTest() : model_(model::tiny_mixtral(), 7) {}

  cache::Placement placement_with_ecr(double ecr) const {
    const auto& cfg = model_.config();
    const auto calib = eval::calibrate_functional_counts(
        model_, data::sharegpt_calibration(), 4, 12, 12, 99);
    return cache::init_placement_calibrated(cfg.n_layers, cfg.n_experts, ecr,
                                            calib);
  }

  model::GateBias bias_for(int prompt_len, int gen_len, int seq = 0) const {
    const auto& cfg = model_.config();
    return data::make_gate_bias(data::c4(), cfg.n_layers, cfg.n_experts, 21,
                                seq, prompt_len,
                                prompt_len + gen_len + 1);
  }

  model::FunctionalModel model_;
};

TEST_F(DaopExecutorTest, FullEcrMatchesOfficialExactly) {
  const auto prompt = data::make_prompt(model_.config().vocab_size, 12, 3, 0);
  const auto bias = bias_for(12, 16);
  const model::OfficialDecoder official(model_);
  const auto ref = official.generate(prompt, 16, bias);

  DaopFunctionalExecutor daop(model_);
  FunctionalRunStats stats;
  const auto got =
      daop.generate(prompt, 16, placement_with_ecr(1.0), bias, &stats);
  EXPECT_EQ(ref, got);
  EXPECT_EQ(stats.stale_input_execs, 0);
  EXPECT_EQ(stats.degradations, 0);
  EXPECT_EQ(stats.mispredict_fallbacks, 0);
}

TEST_F(DaopExecutorTest, ApproximationsOffIsExactAtAnyEcr) {
  // With pre-calculation and degradation disabled every execution is exact
  // (CPU execution changes time, never math), so outputs must equal the
  // official model even at the smallest cache.
  const auto prompt = data::make_prompt(model_.config().vocab_size, 12, 3, 1);
  const auto bias = bias_for(12, 16, 1);
  const model::OfficialDecoder official(model_);
  const auto ref = official.generate(prompt, 16, bias);

  DaopConfig dc;
  dc.enable_precalc = false;
  dc.enable_degradation = false;
  dc.mispredict_policy = MispredictPolicy::RecomputeExact;
  DaopFunctionalExecutor daop(model_, dc);
  const auto got = daop.generate(prompt, 16, placement_with_ecr(0.25), bias);
  EXPECT_EQ(ref, got);
}

TEST_F(DaopExecutorTest, FirstTokenExactAtAnyEcr) {
  // Table V's mechanism: prefill is numerically exact regardless of ECR.
  const auto prompt = data::make_prompt(model_.config().vocab_size, 16, 3, 2);
  const auto bias = bias_for(16, 1, 2);
  const model::OfficialDecoder official(model_);
  const auto ref = official.generate(prompt, 1, bias);
  for (double ecr : {0.125, 0.25, 0.5}) {
    DaopFunctionalExecutor daop(model_);
    const auto got = daop.generate(prompt, 1, placement_with_ecr(ecr), bias);
    EXPECT_EQ(ref, got) << "ecr=" << ecr;
  }
}

TEST_F(DaopExecutorTest, Deterministic) {
  const auto prompt = data::make_prompt(model_.config().vocab_size, 10, 3, 3);
  const auto bias = bias_for(10, 12, 3);
  const auto placement = placement_with_ecr(0.375);
  DaopFunctionalExecutor daop(model_);
  EXPECT_EQ(daop.generate(prompt, 12, placement, bias),
            daop.generate(prompt, 12, placement, bias));
}

TEST_F(DaopExecutorTest, StatsAccounting) {
  const auto prompt = data::make_prompt(model_.config().vocab_size, 10, 3, 4);
  const auto bias = bias_for(10, 9, 4);
  DaopFunctionalExecutor daop(model_);
  FunctionalRunStats stats;
  daop.generate(prompt, 9, placement_with_ecr(0.375), bias, &stats);
  const auto& cfg = model_.config();
  // n_gen - 1 decode steps actually execute (the first output token comes
  // from prefill); each fills top_k expert slots per layer.
  EXPECT_EQ(stats.decode_expert_uses,
            static_cast<long long>(9 - 1) * cfg.n_layers * cfg.top_k);
  EXPECT_EQ(stats.decode_expert_uses,
            stats.exact_execs + stats.stale_input_execs + stats.degradations +
                stats.mispredict_fallbacks + stats.mispredict_recomputes);
  EXPECT_GT(stats.prefill_swaps, 0);
}

TEST_F(DaopExecutorTest, SmallerCacheMeansMoreApproximation) {
  const auto prompt = data::make_prompt(model_.config().vocab_size, 10, 3, 5);
  const auto bias = bias_for(10, 12, 5);
  DaopFunctionalExecutor daop(model_);
  FunctionalRunStats big;
  FunctionalRunStats small;
  daop.generate(prompt, 12, placement_with_ecr(0.75), bias, &big);
  daop.generate(prompt, 12, placement_with_ecr(0.25), bias, &small);
  const auto approx = [](const FunctionalRunStats& s) {
    return s.stale_input_execs + s.degradations + s.mispredict_fallbacks +
           s.mispredict_recomputes;
  };
  EXPECT_GT(approx(small), approx(big));
}

TEST_F(DaopExecutorTest, TeacherForcingReturnsPerStepPredictions) {
  const auto prompt = data::make_prompt(model_.config().vocab_size, 10, 3, 6);
  const auto bias = bias_for(10, 12, 6);
  const model::OfficialDecoder official(model_);
  const auto ref = official.generate(prompt, 12, bias);

  // At full ECR the teacher-forced run is exact: predictions == teacher.
  DaopFunctionalExecutor daop(model_);
  const auto forced =
      daop.generate(prompt, 12, placement_with_ecr(1.0), bias, nullptr, ref);
  EXPECT_EQ(forced, ref);

  // At a small ECR, teacher-forced agreement upper-bounds free-running
  // agreement in count of early matches (same first token by construction).
  const auto placement = placement_with_ecr(0.25);
  const auto tf =
      daop.generate(prompt, 12, placement, bias, nullptr, ref);
  EXPECT_EQ(tf[0], ref[0]);
  EXPECT_EQ(tf.size(), ref.size());
}

TEST_F(DaopExecutorTest, ZeroGenReturnsEmpty) {
  const auto prompt = data::make_prompt(model_.config().vocab_size, 8, 3, 7);
  DaopFunctionalExecutor daop(model_);
  EXPECT_TRUE(
      daop.generate(prompt, 0, placement_with_ecr(0.5), nullptr).empty());
}

TEST_F(DaopExecutorTest, DegradationChangesExecutedExperts) {
  // With very small cache + degradation the executor must sometimes run a
  // substitute expert; outputs may legitimately differ from official.
  const auto prompt = data::make_prompt(model_.config().vocab_size, 10, 3, 8);
  const auto bias = bias_for(10, 20, 8);
  DaopFunctionalExecutor daop(model_);
  FunctionalRunStats stats;
  daop.generate(prompt, 20, placement_with_ecr(0.125), bias, &stats);
  EXPECT_GT(stats.degradations + stats.mispredict_fallbacks +
                stats.mispredict_recomputes + stats.stale_input_execs,
            0);
}

std::vector<long long> fields(const FunctionalRunStats& s) {
  return {s.decode_expert_uses, s.exact_execs,   s.stale_input_execs,
          s.degradations,       s.mispredict_fallbacks,
          s.mispredict_recomputes, s.prefill_swaps, s.decode_swaps,
          s.quantized_execs,    s.skipped_experts};
}

std::vector<DaopConfig> branch_configs() {
  DaopConfig realloc;
  realloc.decode_realloc_interval = 3;
  DaopConfig quant;
  quant.cpu_quant_bits = 4;
  DaopConfig skip;
  skip.skip_top1_margin = 0.6;
  DaopConfig fallback;
  fallback.mispredict_policy = MispredictPolicy::GracefulFallback;
  return {DaopConfig{}, realloc, quant, skip, fallback};
}

TEST_F(DaopExecutorTest, TeacherForcedSpansMatchFreeRunningSteps) {
  // Teacher-forcing on the free-running output consumes the same tokens,
  // but in spans run layer by layer instead of one step at a time: tokens
  // and every run counter must agree exactly.
  const auto prompt = data::make_prompt(model_.config().vocab_size, 10, 3, 9);
  const auto bias = bias_for(10, 14, 9);
  for (double ecr : {1.0, 0.5, 0.25}) {
    const auto placement = placement_with_ecr(ecr);
    for (const DaopConfig& dc : branch_configs()) {
      const DaopFunctionalExecutor daop(model_, dc);
      FunctionalRunStats free_stats;
      FunctionalRunStats forced_stats;
      const auto free_run =
          daop.generate(prompt, 14, placement, bias, &free_stats);
      const auto forced = daop.generate(prompt, 14, placement, bias,
                                        &forced_stats, free_run);
      EXPECT_EQ(forced, free_run) << "ecr " << ecr;
      EXPECT_EQ(fields(forced_stats), fields(free_stats)) << "ecr " << ecr;
    }
  }
}

TEST_F(DaopExecutorTest, GeneratePairEqualsTwoGenerateCalls) {
  const auto prompt = data::make_prompt(model_.config().vocab_size, 10, 3, 10);
  const auto bias = bias_for(10, 13, 10);
  const model::OfficialDecoder official(model_);
  const model::PrefillState prefill = official.prefill(prompt, 13, bias);
  const auto ref = official.generate(prefill, 13, bias);
  for (double ecr : {1.0, 0.5, 0.25, 0.125}) {
    const auto placement = placement_with_ecr(ecr);
    for (const DaopConfig& dc : branch_configs()) {
      const DaopFunctionalExecutor daop(model_, dc);
      FunctionalRunStats free_stats;
      FunctionalRunStats forced_stats;
      const auto free_run =
          daop.generate(prompt, 13, placement, bias, &free_stats);
      const auto forced =
          daop.generate(prompt, 13, placement, bias, &forced_stats, ref);

      FunctionalRunStats pair_free;
      FunctionalRunStats pair_forced;
      const DecodePair pair = daop.generate_pair(
          prefill, 13, placement, bias, ref, &pair_free, &pair_forced);
      EXPECT_EQ(pair.free_run, free_run) << "ecr " << ecr;
      EXPECT_EQ(pair.forced, forced) << "ecr " << ecr;
      EXPECT_EQ(fields(pair_free), fields(free_stats)) << "ecr " << ecr;
      EXPECT_EQ(fields(pair_forced), fields(forced_stats)) << "ecr " << ecr;
    }
  }
  const DaopFunctionalExecutor daop(model_);
  for (int n : {0, 1, 2}) {
    const DecodePair pair =
        daop.generate_pair(prefill, n, placement_with_ecr(0.25), bias, ref);
    EXPECT_EQ(pair.free_run,
              daop.generate(prompt, n, placement_with_ecr(0.25), bias));
    EXPECT_EQ(pair.forced, daop.generate(prompt, n, placement_with_ecr(0.25),
                                         bias, nullptr, ref));
  }
  EXPECT_THROW(daop.generate_pair(prefill, 13, placement_with_ecr(0.5), bias,
                                  std::span<const int>(ref).first(12)),
               CheckError);
}

TEST_F(DaopExecutorTest, SharedPrefillEqualsOwnPrefill) {
  const auto prompt = data::make_prompt(model_.config().vocab_size, 12, 3, 11);
  const auto bias = bias_for(12, 10, 11);
  const model::PrefillState prefill =
      model::OfficialDecoder(model_).prefill(prompt, 10, bias);
  const auto placement = placement_with_ecr(0.375);
  const DaopFunctionalExecutor daop(model_);
  FunctionalRunStats shared;
  FunctionalRunStats own;
  EXPECT_EQ(daop.generate(prefill, 10, placement, bias, &shared),
            daop.generate(prompt, 10, placement, bias, &own));
  EXPECT_EQ(fields(shared), fields(own));
}

}  // namespace
}  // namespace daop::core

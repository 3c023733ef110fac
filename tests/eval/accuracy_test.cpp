#include "eval/accuracy.hpp"

#include <gtest/gtest.h>

#include "model/config.hpp"

namespace daop::eval {
namespace {

TEST(Rouge, IdenticalSequences) {
  const std::vector<int> a = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(rouge_n(a, a, 1), 1.0);
  EXPECT_DOUBLE_EQ(rouge_n(a, a, 2), 1.0);
}

TEST(Rouge, DisjointSequences) {
  const std::vector<int> a = {1, 2, 3};
  const std::vector<int> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(rouge_n(a, b, 1), 0.0);
  EXPECT_DOUBLE_EQ(rouge_n(a, b, 2), 0.0);
}

TEST(Rouge, PartialUnigramOverlap) {
  const std::vector<int> ref = {1, 2, 3, 4};
  const std::vector<int> cand = {1, 2, 9, 9};
  // overlap 2, both lengths 4 -> P = R = 0.5 -> F1 = 0.5.
  EXPECT_NEAR(rouge_n(ref, cand, 1), 0.5, 1e-12);
}

TEST(Rouge, BigramOrderMatters) {
  const std::vector<int> ref = {1, 2, 3};
  const std::vector<int> reversed = {3, 2, 1};
  EXPECT_DOUBLE_EQ(rouge_n(ref, reversed, 1), 1.0);  // same unigrams
  EXPECT_DOUBLE_EQ(rouge_n(ref, reversed, 2), 0.0);  // no shared bigrams
}

TEST(Rouge, RepeatedNgramsClipped) {
  const std::vector<int> ref = {7, 7, 7};          // "7" x3
  const std::vector<int> cand = {7, 1, 2, 3, 4, 5};  // "7" x1
  // overlap = min(3,1) = 1; P = 1/6, R = 1/3.
  const double p = 1.0 / 6.0;
  const double r = 1.0 / 3.0;
  EXPECT_NEAR(rouge_n(ref, cand, 1), 2 * p * r / (p + r), 1e-12);
}

TEST(Rouge, ShortSequencesForHighN) {
  const std::vector<int> one = {5};
  const std::vector<int> two = {5, 6};
  EXPECT_DOUBLE_EQ(rouge_n(one, one, 2), 1.0);  // both empty bigram sets
  EXPECT_DOUBLE_EQ(rouge_n(one, two, 2), 0.0);  // one empty, one not
}

TEST(CalibrateFunctional, ShapeAndDeterminism) {
  const model::FunctionalModel fm(model::tiny_mixtral(), 3);
  const auto a = calibrate_functional_counts(fm, data::sharegpt_calibration(),
                                             2, 8, 6, 11);
  const auto b = calibrate_functional_counts(fm, data::sharegpt_calibration(),
                                             2, 8, 6, 11);
  EXPECT_EQ(a, b);
  ASSERT_EQ(static_cast<int>(a.size()), fm.config().n_layers);
  for (const auto& layer : a) {
    double sum = 0.0;
    for (double v : layer) sum += v;
    // 2 sequences x 6 decode tokens x top-2 (observer sees decode only).
    EXPECT_DOUBLE_EQ(sum, 2.0 * 6.0 * 2.0);
  }
}

TEST(EvaluateAccuracy, ExactAtFullEcr) {
  const model::FunctionalModel fm(model::tiny_mixtral(), 3);
  AccuracyEvalOptions opt;
  opt.n_episodes = 3;
  opt.prompt_len = 10;
  opt.gen_len = 8;
  opt.calibration_seqs = 2;
  const auto m =
      evaluate_daop_accuracy(fm, data::c4(), core::DaopConfig{}, 1.0, opt);
  EXPECT_DOUBLE_EQ(m.exact_match, 1.0);
  EXPECT_DOUBLE_EQ(m.token_agreement, 1.0);
  EXPECT_DOUBLE_EQ(m.rouge1, 1.0);
  EXPECT_DOUBLE_EQ(m.rouge2, 1.0);
  EXPECT_EQ(m.episodes, 3);
}

TEST(EvaluateAccuracy, MetricsBoundedAndConsistent) {
  const model::FunctionalModel fm(model::tiny_mixtral(), 3);
  AccuracyEvalOptions opt;
  opt.n_episodes = 4;
  opt.prompt_len = 10;
  opt.gen_len = 10;
  opt.calibration_seqs = 2;
  const auto m =
      evaluate_daop_accuracy(fm, data::gsm8k(), core::DaopConfig{}, 0.25, opt);
  EXPECT_GE(m.token_agreement, 0.0);
  EXPECT_LE(m.token_agreement, 1.0);
  EXPECT_GE(m.rouge1, m.rouge2);  // bigram overlap never exceeds unigram
  EXPECT_GT(m.stats.decode_expert_uses, 0);
}

TEST(EvaluateAccuracy, ReusesProvidedCalibration) {
  const model::FunctionalModel fm(model::tiny_mixtral(), 3);
  const auto calib = calibrate_functional_counts(
      fm, data::sharegpt_calibration(), 2, 10, 8, 0x5ca1ab1eULL ^ 42ULL);
  AccuracyEvalOptions opt;
  opt.n_episodes = 2;
  opt.prompt_len = 10;
  opt.gen_len = 8;
  opt.calibration_seqs = 2;
  AccuracyEvalOptions opt2 = opt;
  opt2.calib_counts = &calib;
  // Same calibration distribution -> same placement -> same metrics.
  const auto a =
      evaluate_daop_accuracy(fm, data::c4(), core::DaopConfig{}, 0.5, opt);
  const auto b =
      evaluate_daop_accuracy(fm, data::c4(), core::DaopConfig{}, 0.5, opt2);
  EXPECT_DOUBLE_EQ(a.token_agreement, b.token_agreement);
  EXPECT_DOUBLE_EQ(a.exact_match, b.exact_match);
}

void expect_same_metrics(const AccuracyMetrics& a, const AccuracyMetrics& b) {
  EXPECT_EQ(a.exact_match, b.exact_match);
  EXPECT_EQ(a.token_agreement, b.token_agreement);
  EXPECT_EQ(a.rouge1, b.rouge1);
  EXPECT_EQ(a.rouge2, b.rouge2);
  EXPECT_EQ(a.episodes, b.episodes);
  const core::FunctionalRunStats& x = a.stats;
  const core::FunctionalRunStats& y = b.stats;
  EXPECT_EQ(x.decode_expert_uses, y.decode_expert_uses);
  EXPECT_EQ(x.exact_execs, y.exact_execs);
  EXPECT_EQ(x.stale_input_execs, y.stale_input_execs);
  EXPECT_EQ(x.degradations, y.degradations);
  EXPECT_EQ(x.mispredict_fallbacks, y.mispredict_fallbacks);
  EXPECT_EQ(x.mispredict_recomputes, y.mispredict_recomputes);
  EXPECT_EQ(x.prefill_swaps, y.prefill_swaps);
  EXPECT_EQ(x.decode_swaps, y.decode_swaps);
  EXPECT_EQ(x.quantized_execs, y.quantized_execs);
  EXPECT_EQ(x.skipped_experts, y.skipped_experts);
}

TEST(EvaluateAccuracy, EcrSweepEqualsSeparateCalls) {
  const model::FunctionalModel fm(model::tiny_mixtral(), 3);
  AccuracyEvalOptions opt;
  opt.n_episodes = 3;
  opt.prompt_len = 10;
  opt.gen_len = 8;
  opt.calibration_seqs = 2;
  const std::vector<double> ecrs = {1.0, 0.5, 0.25};
  for (const auto& spec : {data::gsm8k(), data::c4()}) {
    const auto sweep =
        evaluate_daop_accuracy(fm, spec, core::DaopConfig{}, ecrs, opt);
    ASSERT_EQ(sweep.size(), ecrs.size());
    for (std::size_t i = 0; i < ecrs.size(); ++i) {
      SCOPED_TRACE(spec.name + " ecr " + std::to_string(ecrs[i]));
      expect_same_metrics(
          sweep[i],
          evaluate_daop_accuracy(fm, spec, core::DaopConfig{}, ecrs[i], opt));
    }
  }
}

// Every width QuantSpec supports is a valid cpu_quant_bits, including the
// odd ones between the powers of two.
TEST(EvaluateAccuracy, RunsThreeAndSixBitCpuExperts) {
  const model::FunctionalModel fm(model::tiny_mixtral(), 3);
  AccuracyEvalOptions opt;
  opt.n_episodes = 2;
  opt.prompt_len = 10;
  opt.gen_len = 8;
  opt.calibration_seqs = 2;
  for (const int bits : {3, 6}) {
    core::DaopConfig dc;
    dc.cpu_quant_bits = bits;
    const auto m = evaluate_daop_accuracy(fm, data::c4(), dc, 0.25, opt);
    EXPECT_EQ(m.episodes, 2) << bits;
    EXPECT_GT(m.stats.quantized_execs, 0) << bits;
    EXPECT_GE(m.token_agreement, 0.0) << bits;
    EXPECT_LE(m.token_agreement, 1.0) << bits;
  }
}

}  // namespace
}  // namespace daop::eval

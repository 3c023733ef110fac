// Accuracy-proxy harness for the functional plane (Tables V & VI).
//
// The paper evaluates downstream-task accuracy of real Mixtral/Phi models.
// With synthetic weights there is no external task skill to measure, so the
// proxy scores DAOP's generations against the exact official model on the
// SAME conditioned inputs:
//   - exact_match: fraction of episodes whose full generation matches
//     (the paper's ExactMatch analogue),
//   - token_agreement: per-token greedy agreement,
//   - rouge1/rouge2: unigram/bigram overlap F1 (the paper's R1/R2 analogue
//     for generation-scored tasks).
// Official-vs-official is 1.0 by construction; the paper's claim
// "DAOP ≈ official, degrading only for GSM8K at small ECR" maps to these
// ratios staying near 1.0 and dropping for drift-heavy workloads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/placement.hpp"
#include "core/daop_config.hpp"
#include "core/daop_executor.hpp"
#include "data/workload.hpp"
#include "model/functional_model.hpp"

namespace daop::eval {

struct AccuracyMetrics {
  double exact_match = 0.0;
  double token_agreement = 0.0;
  double rouge1 = 0.0;
  double rouge2 = 0.0;
  int episodes = 0;
  core::FunctionalRunStats stats;  ///< summed over episodes
};

/// ROUGE-N F1 over token sequences (order-free n-gram overlap).
double rouge_n(std::span<const int> reference, std::span<const int> candidate,
               int n);

/// Decodes `n_seqs` calibration episodes with the official model under
/// `spec` conditioning and accumulates decode-phase activation counts
/// (functional-plane §IV-A calibration).
std::vector<std::vector<double>> calibrate_functional_counts(
    const model::FunctionalModel& model, const data::WorkloadSpec& spec,
    int n_seqs, int prompt_len, int gen_len, std::uint64_t seed);

struct AccuracyEvalOptions {
  int n_episodes = 16;
  int prompt_len = 24;
  int gen_len = 32;
  std::uint64_t seed = 42;
  int calibration_seqs = 8;
  /// Optional precomputed calibration counts (callers sweeping ECR reuse
  /// one calibration, like the paper's single ShareGPT pass). When null the
  /// harness calibrates internally.
  const std::vector<std::vector<double>>* calib_counts = nullptr;
};

/// Runs official vs DAOP generations episode by episode and scores them at
/// every ECR in `ecrs`, returning one AccuracyMetrics per ECR in order. The
/// official reference does not depend on the ECR, so each episode decodes
/// it once and scores every ECR against it; each result equals a separate
/// single-ECR call field for field.
std::vector<AccuracyMetrics> evaluate_daop_accuracy(
    const model::FunctionalModel& model, const data::WorkloadSpec& spec,
    const core::DaopConfig& config, std::span<const double> ecrs,
    const AccuracyEvalOptions& options);

/// The sweep at one ECR.
AccuracyMetrics evaluate_daop_accuracy(const model::FunctionalModel& model,
                                       const data::WorkloadSpec& spec,
                                       const core::DaopConfig& config,
                                       double ecr,
                                       const AccuracyEvalOptions& options);

}  // namespace daop::eval

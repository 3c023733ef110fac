#include "eval/accuracy.hpp"

#include <algorithm>
#include <map>

#include "common/check.hpp"
#include "data/gate_bias.hpp"

namespace daop::eval {

double rouge_n(std::span<const int> reference, std::span<const int> candidate,
               int n) {
  DAOP_CHECK_GT(n, 0);
  const auto count_ngrams = [n](std::span<const int> seq) {
    std::map<std::vector<int>, int> grams;
    if (static_cast<int>(seq.size()) >= n) {
      for (std::size_t i = 0; i + static_cast<std::size_t>(n) <= seq.size();
           ++i) {
        std::vector<int> g(seq.begin() + static_cast<std::ptrdiff_t>(i),
                           seq.begin() + static_cast<std::ptrdiff_t>(i) + n);
        ++grams[g];
      }
    }
    return grams;
  };
  const auto ref = count_ngrams(reference);
  const auto cand = count_ngrams(candidate);
  if (ref.empty() && cand.empty()) return 1.0;
  if (ref.empty() || cand.empty()) return 0.0;

  long long overlap = 0;
  long long ref_total = 0;
  long long cand_total = 0;
  for (const auto& [g, c] : ref) ref_total += c;
  for (const auto& [g, c] : cand) cand_total += c;
  for (const auto& [g, c] : ref) {
    const auto it = cand.find(g);
    if (it != cand.end()) overlap += std::min(c, it->second);
  }
  if (overlap == 0) return 0.0;
  const double recall = static_cast<double>(overlap) / ref_total;
  const double precision = static_cast<double>(overlap) / cand_total;
  return 2.0 * precision * recall / (precision + recall);
}

std::vector<std::vector<double>> calibrate_functional_counts(
    const model::FunctionalModel& model, const data::WorkloadSpec& spec,
    int n_seqs, int prompt_len, int gen_len, std::uint64_t seed) {
  DAOP_CHECK_GT(n_seqs, 0);
  const model::ModelConfig& cfg = model.config();
  std::vector<std::vector<double>> counts(
      static_cast<std::size_t>(cfg.n_layers),
      std::vector<double>(static_cast<std::size_t>(cfg.n_experts), 0.0));

  const model::OfficialDecoder official(model);
  for (int s = 0; s < n_seqs; ++s) {
    const auto prompt = data::make_prompt(cfg.vocab_size, prompt_len, seed, s);
    const auto bias =
        data::make_gate_bias(spec, cfg.n_layers, cfg.n_experts, seed, s,
                             prompt_len, prompt_len + gen_len + 1);
    const auto observer = [&](int layer, int /*pos*/, bool is_prefill,
                              std::span<const float> /*logits*/,
                              const model::RouteDecision& d) {
      if (is_prefill) return;
      for (int e : d.experts) {
        counts[static_cast<std::size_t>(layer)][static_cast<std::size_t>(e)] +=
            1.0;
      }
    };
    official.generate(prompt, gen_len, bias, observer);
  }
  return counts;
}

std::vector<AccuracyMetrics> evaluate_daop_accuracy(
    const model::FunctionalModel& model, const data::WorkloadSpec& spec,
    const core::DaopConfig& config, std::span<const double> ecrs,
    const AccuracyEvalOptions& options) {
  DAOP_CHECK_GT(options.n_episodes, 0);
  DAOP_CHECK(!ecrs.empty());
  const model::ModelConfig& cfg = model.config();

  // §IV-A: calibrate the initial cache on the (ShareGPT-like) calibration
  // distribution, never on the evaluated workload.
  std::vector<std::vector<double>> local_calib;
  if (!options.calib_counts) {
    local_calib = calibrate_functional_counts(
        model, data::sharegpt_calibration(), options.calibration_seqs,
        options.prompt_len, options.gen_len, options.seed ^ 0x5ca1ab1eULL);
  }
  const auto& calib_counts =
      options.calib_counts ? *options.calib_counts : local_calib;
  std::vector<cache::Placement> initial;
  initial.reserve(ecrs.size());
  for (double ecr : ecrs) {
    initial.push_back(cache::init_placement_calibrated(
        cfg.n_layers, cfg.n_experts, ecr, calib_counts));
  }

  const model::OfficialDecoder official(model);
  const core::DaopFunctionalExecutor daop(model, config);

  std::vector<AccuracyMetrics> out(ecrs.size());
  std::vector<double> token_match(ecrs.size(), 0.0);
  double token_total = 0.0;
  for (int s = 0; s < options.n_episodes; ++s) {
    const auto prompt =
        data::make_prompt(cfg.vocab_size, options.prompt_len, options.seed, s);
    const auto bias = data::make_gate_bias(
        spec, cfg.n_layers, cfg.n_experts, options.seed, s, options.prompt_len,
        options.prompt_len + options.gen_len + 1);

    // Prefill is exact under DAOP (§IV-B): the reference and every DAOP
    // decode of this episode continue one prefill.
    const model::PrefillState prefill =
        official.prefill(prompt, options.gen_len, bias);
    const std::vector<int> ref =
        official.generate(prefill, options.gen_len, bias);
    token_total += static_cast<double>(ref.size());

    for (std::size_t e = 0; e < ecrs.size(); ++e) {
      AccuracyMetrics& m = out[e];
      // Free-running generation (the paper's ExactMatch / ROUGE setting)
      // and the teacher-forced pass on the reference: per-step agreement
      // without compounding divergence (primary Table VI proxy).
      const core::DecodePair run = daop.generate_pair(
          prefill, options.gen_len, initial[e], bias, ref, &m.stats);
      const std::vector<int>& cand = run.free_run;
      const std::vector<int>& forced = run.forced;

      DAOP_CHECK_EQ(ref.size(), cand.size());
      DAOP_CHECK_EQ(ref.size(), forced.size());
      if (ref == cand) m.exact_match += 1.0;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i] == forced[i]) token_match[e] += 1.0;
      }
      m.rouge1 += rouge_n(ref, cand, 1);
      m.rouge2 += rouge_n(ref, cand, 2);
    }
  }
  for (std::size_t e = 0; e < ecrs.size(); ++e) {
    AccuracyMetrics& m = out[e];
    m.episodes = options.n_episodes;
    m.exact_match /= options.n_episodes;
    m.rouge1 /= options.n_episodes;
    m.rouge2 /= options.n_episodes;
    m.token_agreement =
        token_total > 0.0 ? token_match[e] / token_total : 1.0;
  }
  return out;
}

AccuracyMetrics evaluate_daop_accuracy(const model::FunctionalModel& model,
                                       const data::WorkloadSpec& spec,
                                       const core::DaopConfig& config,
                                       double ecr,
                                       const AccuracyEvalOptions& options) {
  return evaluate_daop_accuracy(model, spec, config,
                                std::span<const double>(&ecr, 1), options)
      .front();
}

}  // namespace daop::eval

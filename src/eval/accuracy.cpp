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

namespace {

/// The prompts and dataset conditioners of sequences [0, n) under `spec`.
struct Sequences {
  Sequences(const model::ModelConfig& cfg, const data::WorkloadSpec& spec,
            int n, int prompt_len, int gen_len, std::uint64_t seed) {
    for (int s = 0; s < n; ++s) {
      prompts.push_back(data::make_prompt(cfg.vocab_size, prompt_len, seed, s));
      biases.push_back(data::make_gate_bias(spec, cfg.n_layers, cfg.n_experts,
                                            seed, s, prompt_len,
                                            prompt_len + gen_len + 1));
    }
  }

  std::vector<std::vector<int>> prompts;
  std::vector<model::GateBias> biases;
};

}  // namespace

std::vector<std::vector<double>> calibrate_functional_counts(
    const model::FunctionalModel& model, const data::WorkloadSpec& spec,
    int n_seqs, int prompt_len, int gen_len, std::uint64_t seed) {
  DAOP_CHECK_GT(n_seqs, 0);
  const model::ModelConfig& cfg = model.config();
  std::vector<std::vector<double>> counts(
      static_cast<std::size_t>(cfg.n_layers),
      std::vector<double>(static_cast<std::size_t>(cfg.n_experts), 0.0));

  const auto observer = [&](int layer, int /*pos*/, bool is_prefill,
                            std::span<const float> /*logits*/,
                            const model::RouteDecision& d) {
    if (is_prefill) return;
    for (int e : d.experts) {
      counts[static_cast<std::size_t>(layer)][static_cast<std::size_t>(e)] +=
          1.0;
    }
  };
  const Sequences seqs(cfg, spec, n_seqs, prompt_len, gen_len, seed);
  // Every sequence's prompt in one span, then its decode steps in lockstep.
  const std::vector<model::RouteObserver> observers(
      static_cast<std::size_t>(n_seqs), observer);
  const model::OfficialDecoder official(model);
  official.generate_batch(
      official.prefill_batch(seqs.prompts, gen_len, seqs.biases, observers),
      gen_len, seqs.biases, observers);
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

  const std::size_t episodes = static_cast<std::size_t>(options.n_episodes);
  const Sequences seqs(cfg, spec, options.n_episodes, options.prompt_len,
                       options.gen_len, options.seed);
  const std::vector<model::GateBias>& biases = seqs.biases;
  // Prefill is exact under DAOP (§IV-B): the reference and every DAOP
  // decode of an episode continue one prefill. The prompts run as one
  // span, the reference decodes of all episodes in lockstep.
  const std::vector<model::PrefillState> prefills =
      official.prefill_batch(seqs.prompts, options.gen_len, biases);
  const std::vector<std::vector<int>> refs =
      official.generate_batch(prefills, options.gen_len, biases);

  // Free-running generation (the paper's ExactMatch / ROUGE setting) and
  // the teacher-forced pass on the reference: per-step agreement without
  // compounding divergence (primary Table VI proxy). The free-running
  // decodes of every (episode, ECR) pair step in lockstep.
  std::vector<core::PairRequest> requests;
  for (std::size_t s = 0; s < episodes; ++s) {
    for (std::size_t e = 0; e < ecrs.size(); ++e) {
      requests.push_back({&prefills[s], &initial[e], &biases[s], refs[s]});
    }
  }
  const std::vector<core::DecodePair> runs =
      daop.generate_pairs(requests, options.gen_len);

  std::vector<AccuracyMetrics> out(ecrs.size());
  std::vector<double> token_match(ecrs.size(), 0.0);
  double token_total = 0.0;
  for (std::size_t s = 0; s < episodes; ++s) {
    const std::vector<int>& ref = refs[s];
    token_total += static_cast<double>(ref.size());
    for (std::size_t e = 0; e < ecrs.size(); ++e) {
      AccuracyMetrics& m = out[e];
      const core::DecodePair& run = runs[s * ecrs.size() + e];
      m.stats += run.free_stats;
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

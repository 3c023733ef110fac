#include "data/trace_generator.hpp"

#include <cmath>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace daop::data {

TraceGenerator::TraceGenerator(WorkloadSpec spec, int n_layers, int n_experts,
                               int top_k, std::uint64_t seed)
    : spec_(std::move(spec)),
      n_layers_(n_layers),
      n_experts_(n_experts),
      top_k_(top_k),
      seed_(seed) {
  DAOP_CHECK_GT(n_layers_, 0);
  DAOP_CHECK_GT(n_experts_, 0);
  DAOP_CHECK_GT(top_k_, 0);
  DAOP_CHECK_LE(top_k_, n_experts_);
  DAOP_CHECK_LE(top_k_, kMaxTopK);
  DAOP_CHECK_GE(spec_.layer_rho, 0.0);
  DAOP_CHECK_LT(spec_.layer_rho, 1.0);
}

SequenceTrace TraceGenerator::generate(int seq_index) const {
  return generate(seq_index, spec_.prompt_len, spec_.gen_len);
}

SequenceTrace TraceGenerator::generate(int seq_index, int prompt_len,
                                       int gen_len) const {
  DAOP_CHECK_GT(prompt_len, 0);
  DAOP_CHECK_GE(gen_len, 0);
  Rng rng = Rng(seed_).fork(static_cast<std::uint64_t>(seq_index));

  const auto E = static_cast<std::size_t>(n_experts_);
  const double skew = spec_.seq_skew_sigma;
  const double rho = spec_.layer_rho;
  const double shift = spec_.phase_shift_sigma;

  SequenceTrace tr;
  tr.reshape(n_layers_, n_experts_, top_k_, prompt_len, gen_len);

  // Per-layer rows of E doubles, flat: [layer][expert].
  auto row = [E](std::vector<double>& v, int l) {
    return std::span<double>(v).subspan(static_cast<std::size_t>(l) * E, E);
  };
  const auto LE = static_cast<std::size_t>(n_layers_) * E;

  // Layer-correlated sequence preference field.
  std::vector<double> pref(LE);
  for (int l = 0; l < n_layers_; ++l) {
    const std::span<double> p = row(pref, l);
    if (l == 0) {
      for (auto& v : p) v = skew * rng.normal();
    } else {
      const std::span<double> prev = row(pref, l - 1);
      const double fresh = std::sqrt(1.0 - rho * rho);
      for (std::size_t e = 0; e < E; ++e) {
        p[e] = rho * prev[e] + fresh * skew * rng.normal();
      }
    }
  }

  // Decode-phase preferences: correlated with prefill, scale-preserving.
  std::vector<double> dpref(LE);
  const double keep = std::sqrt(std::max(0.0, 1.0 - shift * shift));
  for (std::size_t i = 0; i < LE; ++i) {
    dpref[i] = keep * pref[i] + shift * skew * rng.normal();
  }

  // Prefill tokens.
  for (int l = 0; l < n_layers_; ++l) {
    const std::span<double> p = row(pref, l);
    for (int t = 0; t < prompt_len; ++t) {
      const std::span<float> scores =
          tr.mutable_scores(Phase::Prefill, l, t);
      for (std::size_t e = 0; e < E; ++e) {
        scores[e] = static_cast<float>(p[e] +
                                       spec_.token_noise_sigma * rng.normal());
      }
    }
  }

  // Decode tokens with random-walk drift and gate-ahead predictions.
  std::vector<double> drift(LE, 0.0);
  for (int t = 0; t < gen_len; ++t) {
    for (int l = 0; l < n_layers_; ++l) {
      const std::span<double> d = row(drift, l);
      for (std::size_t e = 0; e < E; ++e) {
        d[e] = spec_.drift_rho * d[e] + spec_.drift_sigma * skew * rng.normal();
      }
      const std::span<double> dp = row(dpref, l);
      const std::span<float> scores = tr.mutable_scores(Phase::Decode, l, t);
      for (std::size_t e = 0; e < E; ++e) {
        scores[e] = static_cast<float>(dp[e] + d[e] +
                                       spec_.token_noise_sigma * rng.normal());
      }
      if (l >= 1) {
        // A prediction for this layer, formed while layer l-1 executed.
        const double pn =
            l < 4 ? spec_.pred_noise_early : spec_.pred_noise_late;
        const std::span<float> pred = tr.mutable_pred_scores(l, t);
        for (std::size_t e = 0; e < E; ++e) {
          pred[e] = scores[e] + static_cast<float>(pn * rng.normal());
        }
      }
    }
  }
  return tr;
}

}  // namespace daop::data

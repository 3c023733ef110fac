#include "data/trace_generator.hpp"

#include <algorithm>
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
  DAOP_CHECK_LE(n_experts_, kMaxRoutedExperts);
  DAOP_CHECK_GE(spec_.layer_rho, 0.0);
  DAOP_CHECK_LT(spec_.layer_rho, 1.0);
}

namespace {

/// Keeps every cell: builds the trace.
struct TraceSink {
  static constexpr bool kKeepsPrefill = true;
  static constexpr bool kKeepsPredictions = true;
  SequenceTrace& trace;

  std::span<float> prefill(int l, int t) {
    return trace.mutable_scores(Phase::Prefill, l, t);
  }
  std::span<float> decode(int l, int t) {
    return trace.mutable_scores(Phase::Decode, l, t);
  }
  void decoded(int /*l*/, std::span<const float> /*scores*/) {}
  std::span<float> prediction(int l, int t) {
    return trace.mutable_pred_scores(l, t);
  }
};

/// Keeps decode cells only, each in the same row, and counts their top-k.
struct DecodeCountSink {
  static constexpr bool kKeepsPrefill = false;
  static constexpr bool kKeepsPredictions = false;
  std::vector<std::vector<double>>& counts;
  std::span<float> row;
  int top_k;

  std::span<float> decode(int /*l*/, int /*t*/) { return row; }
  void decoded(int l, std::span<const float> scores) {
    auto& out = counts[static_cast<std::size_t>(l)];
    for (int e : topk_indices(scores, top_k)) {
      out[static_cast<std::size_t>(e)] += 1.0;
    }
  }
};

}  // namespace

template <typename Sink>
void TraceGenerator::walk(int seq_index, int prompt_len, int gen_len,
                          std::vector<double>& scratch, Sink& sink) const {
  DAOP_CHECK_GT(prompt_len, 0);
  DAOP_CHECK_GE(gen_len, 0);
  Rng rng = Rng(seed_).fork(static_cast<std::uint64_t>(seq_index));

  const auto E = static_cast<std::size_t>(n_experts_);
  const double skew = spec_.seq_skew_sigma;
  const double rho = spec_.layer_rho;
  const double shift = spec_.phase_shift_sigma;

  // Per-layer rows of E doubles, flat: [layer][expert], for the prefill
  // preferences, the decode preferences and the decode drift.
  const auto LE = static_cast<std::size_t>(n_layers_) * E;
  scratch.assign(3 * LE, 0.0);
  const std::span<double> rows(scratch);
  const std::span<double> pref = rows.subspan(0, LE);
  const std::span<double> dpref = rows.subspan(LE, LE);
  const std::span<double> drift = rows.subspan(2 * LE, LE);
  auto row = [E](std::span<double> v, int l) {
    return v.subspan(static_cast<std::size_t>(l) * E, E);
  };

  // Layer-correlated sequence preference field.
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
  const double keep = std::sqrt(std::max(0.0, 1.0 - shift * shift));
  for (std::size_t i = 0; i < LE; ++i) {
    dpref[i] = keep * pref[i] + shift * skew * rng.normal();
  }

  // Prefill tokens.
  if constexpr (Sink::kKeepsPrefill) {
    for (int l = 0; l < n_layers_; ++l) {
      const std::span<double> p = row(pref, l);
      for (int t = 0; t < prompt_len; ++t) {
        const std::span<float> scores = sink.prefill(l, t);
        for (std::size_t e = 0; e < E; ++e) {
          scores[e] = static_cast<float>(
              p[e] + spec_.token_noise_sigma * rng.normal());
        }
      }
    }
  } else {
    rng.discard_normals(static_cast<std::size_t>(n_layers_) *
                        static_cast<std::size_t>(prompt_len) * E);
  }

  // Decode tokens with random-walk drift and gate-ahead predictions.
  for (int t = 0; t < gen_len; ++t) {
    for (int l = 0; l < n_layers_; ++l) {
      const std::span<double> d = row(drift, l);
      for (std::size_t e = 0; e < E; ++e) {
        d[e] = spec_.drift_rho * d[e] + spec_.drift_sigma * skew * rng.normal();
      }
      const std::span<double> dp = row(dpref, l);
      const std::span<float> scores = sink.decode(l, t);
      for (std::size_t e = 0; e < E; ++e) {
        scores[e] = static_cast<float>(dp[e] + d[e] +
                                       spec_.token_noise_sigma * rng.normal());
      }
      sink.decoded(l, scores);
      if (l >= 1) {
        // A prediction for this layer, formed while layer l-1 executed.
        if constexpr (Sink::kKeepsPredictions) {
          const double pn =
              l < 4 ? spec_.pred_noise_early : spec_.pred_noise_late;
          const std::span<float> pred = sink.prediction(l, t);
          for (std::size_t e = 0; e < E; ++e) {
            pred[e] = scores[e] + static_cast<float>(pn * rng.normal());
          }
        } else {
          rng.discard_normals(E);
        }
      }
    }
  }
}

SequenceTrace TraceGenerator::generate(int seq_index) const {
  return generate(seq_index, spec_.prompt_len, spec_.gen_len);
}

SequenceTrace TraceGenerator::generate(int seq_index, int prompt_len,
                                       int gen_len) const {
  SequenceTrace tr;
  tr.reshape(n_layers_, n_experts_, top_k_, prompt_len, gen_len);
  TraceSink sink{tr};
  std::vector<double> scratch;
  walk(seq_index, prompt_len, gen_len, scratch, sink);
  tr.route();
  return tr;
}

void TraceGenerator::add_decode_counts(
    int seq_index, std::vector<std::vector<double>>& counts,
    std::vector<double>& scratch) const {
  DAOP_CHECK_EQ(counts.size(), static_cast<std::size_t>(n_layers_));
  for (const auto& c : counts) {
    DAOP_CHECK_EQ(c.size(), static_cast<std::size_t>(n_experts_));
  }
  float row[kMaxRoutedExperts];
  DecodeCountSink sink{counts,
                       std::span<float>(row, static_cast<std::size_t>(
                                                 n_experts_)),
                       top_k_};
  walk(seq_index, spec_.prompt_len, spec_.gen_len, scratch, sink);
}

}  // namespace daop::data

// Shared test helpers: small model/platform setups and hand-built routing
// traces with fully controlled expert selections and predictions. The
// traces come back routed; a test that edits cells afterwards calls
// route() again.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "cache/placement.hpp"
#include "data/routing_trace.hpp"
#include "model/config.hpp"
#include "model/op_costs.hpp"
#include "sim/device.hpp"

namespace daop::testing {

/// Mixtral-shaped config shrunk to 4 layers for fast engine tests (per-op
/// costs stay full-scale Mixtral).
inline model::ModelConfig small_mixtral(int n_layers = 4) {
  model::ModelConfig c = model::mixtral_8x7b();
  c.n_layers = n_layers;
  return c;
}

/// Writes scores that rank `sel` first, in order (10, 9, ...), and every
/// other expert at 0.
inline void write_scores(std::span<float> s, const std::vector<int>& sel) {
  std::fill(s.begin(), s.end(), 0.0F);
  float v = 10.0F;
  for (int e : sel) {
    s[static_cast<std::size_t>(e)] = v;
    v -= 1.0F;
  }
}

/// A trace where every token at every layer selects exactly `experts`
/// (descending preference) and predictions point at `predicted`
/// (empty => same as experts) for layers >= 1.
inline data::SequenceTrace fixed_trace(const model::ModelConfig& cfg,
                                       int prompt_len, int gen_len,
                                       std::vector<int> experts,
                                       std::vector<int> predicted = {}) {
  if (predicted.empty()) predicted = experts;
  data::SequenceTrace tr;
  tr.reshape(cfg.n_layers, cfg.n_experts, cfg.top_k, prompt_len, gen_len);
  for (int l = 0; l < cfg.n_layers; ++l) {
    for (int t = 0; t < prompt_len; ++t) {
      write_scores(tr.mutable_scores(data::Phase::Prefill, l, t), experts);
    }
    for (int t = 0; t < gen_len; ++t) {
      write_scores(tr.mutable_scores(data::Phase::Decode, l, t), experts);
      if (l >= 1) write_scores(tr.mutable_pred_scores(l, t), predicted);
    }
  }
  tr.route();
  return tr;
}

/// Like fixed_trace, but decode tokens alternate between expert sets `a`
/// (even steps) and `b` (odd steps); predictions are perfect. With a cache
/// too small for both sets this forces sustained decode-phase churn.
inline data::SequenceTrace alternating_trace(const model::ModelConfig& cfg,
                                             int prompt_len, int gen_len,
                                             const std::vector<int>& a,
                                             const std::vector<int>& b) {
  data::SequenceTrace tr = fixed_trace(cfg, prompt_len, gen_len, a);
  for (int l = 0; l < cfg.n_layers; ++l) {
    for (int t = 0; t < gen_len; ++t) {
      const auto& sel = (t % 2 == 0) ? a : b;
      write_scores(tr.mutable_scores(data::Phase::Decode, l, t), sel);
      if (l >= 1) write_scores(tr.mutable_pred_scores(l, t), sel);
    }
  }
  tr.route();
  return tr;
}

/// Placement with uniform capacity `cap` per layer holding experts 0..cap-1.
inline cache::Placement prefix_placement(const model::ModelConfig& cfg,
                                         int cap) {
  cache::Placement p(cfg.n_layers, cfg.n_experts);
  for (int l = 0; l < cfg.n_layers; ++l) {
    p.set_capacity(l, cap);
    for (int e = 0; e < cap; ++e) p.move_to_gpu(l, e);
  }
  return p;
}

}  // namespace daop::testing

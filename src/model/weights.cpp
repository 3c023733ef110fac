#include "model/weights.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace daop::model {

ModelWeights init_weights(const ModelConfig& cfg, std::uint64_t seed) {
  DAOP_CHECK_GT(cfg.d_model, 0);
  DAOP_CHECK_EQ(cfg.n_heads % cfg.n_kv_heads, 0);
  Rng root(seed);

  const float in_std = 1.0F / std::sqrt(static_cast<float>(cfg.d_model));
  const float ff_std = 1.0F / std::sqrt(static_cast<float>(cfg.d_ff));
  // Scale residual-writing projections down so the residual stream grows
  // like sqrt(depth) rather than exploding.
  const float resid_scale =
      1.0F / std::sqrt(2.0F * static_cast<float>(cfg.n_layers));

  ModelWeights w;
  {
    Rng r = root.fork(0);
    w.embedding = Tensor::randn(cfg.vocab_size, cfg.d_model, r, 1.0F);
    w.lm_head = PackedMatrix::randn(cfg.vocab_size, cfg.d_model, r, in_std);
    w.final_norm = Tensor(cfg.d_model);
    w.final_norm.fill(1.0F);
  }

  w.layers.resize(static_cast<std::size_t>(cfg.n_layers));
  for (int l = 0; l < cfg.n_layers; ++l) {
    Rng r = root.fork(static_cast<std::uint64_t>(l) + 1);
    LayerWeights& lw = w.layers[static_cast<std::size_t>(l)];

    lw.attn_norm = Tensor(cfg.d_model);
    lw.attn_norm.fill(1.0F);
    lw.ffn_norm = Tensor(cfg.d_model);
    lw.ffn_norm.fill(1.0F);

    const int qdim = cfg.n_heads * cfg.head_dim;
    const int kvdim = cfg.n_kv_heads * cfg.head_dim;
    lw.wq = PackedMatrix::randn(qdim, cfg.d_model, r, in_std);
    lw.wk = PackedMatrix::randn(kvdim, cfg.d_model, r, in_std);
    lw.wv = PackedMatrix::randn(kvdim, cfg.d_model, r, in_std);
    lw.wo = PackedMatrix::randn(cfg.d_model, qdim, r, in_std * resid_scale);
    lw.gate = PackedMatrix::randn(cfg.n_experts, cfg.d_model, r, in_std);

    lw.experts.resize(static_cast<std::size_t>(cfg.n_experts));
    for (int e = 0; e < cfg.n_experts; ++e) {
      ExpertWeights& ew = lw.experts[static_cast<std::size_t>(e)];
      ew.w1 = PackedMatrix::randn(cfg.d_ff, cfg.d_model, r, in_std);
      ew.w3 = PackedMatrix::randn(cfg.d_ff, cfg.d_model, r, in_std);
      ew.w2 =
          PackedMatrix::randn(cfg.d_model, cfg.d_ff, r, ff_std * resid_scale);
    }
  }
  return w;
}

}  // namespace daop::model

// Synthetic model weights for the functional plane.
//
// Weights are deterministic in (config, seed). Initialization follows the
// usual transformer recipe (Gaussian, 1/sqrt(fan_in) scaling, output
// projections additionally scaled down by sqrt(2 * n_layers)) so that
// activations stay well-conditioned through deep residual stacks — which is
// what makes observation ③ (next-layer predictability through the residual
// stream) reproducible with synthetic weights.
//
// Every matrix the model multiplies by a vector is stored once, panel-packed
// for the GEMV kernel; the embedding is a row lookup and stays row-major.
#pragma once

#include <cstdint>
#include <vector>

#include "model/config.hpp"
#include "tensor/packed_matrix.hpp"
#include "tensor/tensor.hpp"

namespace daop::model {

struct ExpertWeights {
  PackedMatrix w1;  ///< [d_ff, d_model]   gate projection of SwiGLU
  PackedMatrix w3;  ///< [d_ff, d_model]   up projection
  PackedMatrix w2;  ///< [d_model, d_ff]   down projection
};

struct LayerWeights {
  Tensor attn_norm;   ///< [d_model] RMSNorm gain before attention
  Tensor ffn_norm;    ///< [d_model] RMSNorm gain before the MoE FFN
  PackedMatrix wq;    ///< [n_heads*head_dim, d_model]
  PackedMatrix wk;    ///< [n_kv_heads*head_dim, d_model]
  PackedMatrix wv;    ///< [n_kv_heads*head_dim, d_model]
  PackedMatrix wo;    ///< [d_model, n_heads*head_dim]
  PackedMatrix gate;  ///< [n_experts, d_model] router
  std::vector<ExpertWeights> experts;
};

struct ModelWeights {
  Tensor embedding;      ///< [vocab, d_model]
  Tensor final_norm;     ///< [d_model]
  PackedMatrix lm_head;  ///< [vocab, d_model]
  std::vector<LayerWeights> layers;
};

/// Builds deterministic synthetic weights for `cfg`.
ModelWeights init_weights(const ModelConfig& cfg, std::uint64_t seed);

}  // namespace daop::model

#include "model/op_costs.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace daop::model {
namespace {

// Kernel counts per op, matching a Transformers-style implementation: they
// set the fixed launch-overhead floor that makes small decode GEMVs slower
// than the pure roofline.
constexpr int kAttnKernels = 14;  // 2 norms, qkv, rope, attn, o-proj, adds
constexpr int kGateKernels = 2;   // gate matmul + topk/softmax
constexpr int kExpertKernels = 4; // w1, w3, silu*mul, w2

}  // namespace

OpCosts::OpCosts(const ModelConfig& cfg, const sim::CostModel& cm)
    : cfg_(cfg), cm_(cm) {
  DAOP_CHECK_GT(cfg_.n_layers, 0);
  DAOP_CHECK_GT(cfg_.n_experts, 0);
  DAOP_CHECK_GT(cfg_.top_k, 0);
  DAOP_CHECK_LE(cfg_.top_k, kMaxTopK);
}

double OpCosts::nonmoe_time(const sim::DeviceSpec& dev, int n_tokens,
                            int ctx) const {
  DAOP_CHECK_GT(n_tokens, 0);
  DAOP_CHECK_GE(ctx, 0);
  // Projections + gate: 2 flops per weight per token.
  const double proj_flops =
      2.0 * (cfg_.attn_params() + cfg_.gate_params()) * n_tokens;
  // Attention scores/values: per token, 2 * ctx * head_dim flops per head
  // for QK^T and same for PV.
  const double attn_flops =
      4.0 * cfg_.n_heads * cfg_.head_dim * static_cast<double>(ctx) * n_tokens;
  // Weight read (once per op) + KV cache read (per token).
  const double bytes =
      cfg_.nonmoe_bytes_per_layer() +
      cfg_.kv_bytes_per_token_per_layer() * static_cast<double>(ctx) * n_tokens;
  return cm_.dense_op_time(dev, proj_flops + attn_flops, bytes,
                           kAttnKernels + kGateKernels);
}

double OpCosts::expert_time(const sim::DeviceSpec& dev, int n_tokens) const {
  DAOP_CHECK_GT(n_tokens, 0);
  const double flops = 2.0 * cfg_.expert_params() * n_tokens;
  const double bytes = cfg_.expert_bytes() +
                       2.0 * cfg_.hidden_state_bytes() * n_tokens;
  return cm_.dense_op_time(dev, flops, bytes, kExpertKernels);
}

double OpCosts::nonmoe_gpu(int ctx) const {
  return nonmoe_time(cm_.platform().gpu, 1, ctx);
}

double OpCosts::nonmoe_cpu(int ctx) const {
  return nonmoe_time(cm_.platform().cpu, 1, ctx);
}

double OpCosts::expert_gpu() const { return expert_time(cm_.platform().gpu, 1); }

double OpCosts::expert_cpu() const { return expert_time(cm_.platform().cpu, 1); }

double OpCosts::expert_cpu_scaled(double weight_bytes_factor) const {
  DAOP_CHECK_GT(weight_bytes_factor, 0.0);
  const double flops = 2.0 * cfg_.expert_params();
  const double bytes = cfg_.expert_bytes() * weight_bytes_factor +
                       2.0 * cfg_.hidden_state_bytes();
  return cm_.dense_op_time(cm_.platform().cpu, flops, bytes, kExpertKernels);
}

double OpCosts::gate_gpu() const {
  const double flops = 2.0 * cfg_.gate_params();
  const double bytes = cfg_.gate_params() * cfg_.bytes_per_param;
  return cm_.gpu_op_time(flops, bytes, kGateKernels);
}

double OpCosts::nonmoe_gpu_prefill(int n_tokens) const {
  // Average context during prefill ~ n/2.
  return nonmoe_time(cm_.platform().gpu, n_tokens, n_tokens / 2);
}

double OpCosts::nonmoe_cpu_prefill(int n_tokens) const {
  return nonmoe_time(cm_.platform().cpu, n_tokens, n_tokens / 2);
}

double OpCosts::expert_gpu_prefill(int n_tokens) const {
  return expert_time(cm_.platform().gpu, n_tokens);
}

double OpCosts::expert_cpu_prefill(int n_tokens) const {
  return expert_time(cm_.platform().cpu, n_tokens);
}

double OpCosts::nonmoe_gpu_batch(int n_tokens, int ctx) const {
  return nonmoe_time(cm_.platform().gpu, n_tokens, ctx);
}

double OpCosts::expert_migration() const {
  return cm_.h2d_time(cfg_.expert_bytes());
}

double OpCosts::activations_h2d(int n_tokens) const {
  return cm_.h2d_time(cfg_.hidden_state_bytes() * n_tokens);
}

double OpCosts::activations_d2h(int n_tokens) const {
  return cm_.d2h_time(cfg_.hidden_state_bytes() * n_tokens);
}

double OpCosts::full_block_gpu(int ctx) const {
  return nonmoe_gpu(ctx) + cfg_.top_k * expert_gpu();
}

double OpCosts::full_block_cpu(int ctx) const {
  return nonmoe_cpu(ctx) + cfg_.top_k * expert_cpu();
}

double max_expert_cache_ratio(const ModelConfig& cfg,
                              const sim::PlatformSpec& platform,
                              double reserve_fraction) {
  DAOP_CHECK_GE(reserve_fraction, 0.0);
  DAOP_CHECK_LT(reserve_fraction, 1.0);
  const double nonmoe_total =
      static_cast<double>(cfg.n_layers) * cfg.nonmoe_bytes_per_layer() +
      2.0 * cfg.vocab_size * cfg.d_model * cfg.bytes_per_param;
  const double usable = platform.gpu.mem_capacity_bytes *
                            (1.0 - reserve_fraction) -
                        nonmoe_total;
  if (usable <= 0.0) return 0.0;
  const double slots = std::floor(usable / cfg.expert_bytes());
  const double total = static_cast<double>(cfg.n_layers) * cfg.n_experts;
  return std::min(1.0, slots / total);
}

}  // namespace daop::model

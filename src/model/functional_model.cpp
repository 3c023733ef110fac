#include "model/functional_model.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace daop::model {

FunctionalModel::FunctionalModel(ModelConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)), weights_(init_weights(cfg_, seed)) {
  DAOP_CHECK_GE(cfg_.n_layers, 1);
  DAOP_CHECK_GE(cfg_.top_k, 1);
  DAOP_CHECK_LE(cfg_.top_k, cfg_.n_experts);
  DAOP_CHECK_LE(cfg_.top_k, kMaxTopK);
}

void FunctionalModel::embed(int token, std::span<float> x) const {
  DAOP_CHECK(token >= 0 && token < cfg_.vocab_size);
  DAOP_CHECK_EQ(static_cast<int>(x.size()), cfg_.d_model);
  const auto row = weights_.embedding.row(token);
  std::copy(row.begin(), row.end(), x.begin());
}

void FunctionalModel::attention_block(int layer, std::span<float> x,
                                      KvCache& kv, int pos) const {
  DAOP_CHECK(layer >= 0 && layer < cfg_.n_layers);
  DAOP_CHECK_EQ(static_cast<int>(x.size()), cfg_.d_model);
  const LayerWeights& lw = weights_.layers[static_cast<std::size_t>(layer)];
  const int qdim = cfg_.n_heads * cfg_.head_dim;
  const int kvdim = cfg_.n_kv_heads * cfg_.head_dim;
  const int group = cfg_.n_heads / cfg_.n_kv_heads;

  std::vector<float> h(static_cast<std::size_t>(cfg_.d_model));
  rmsnorm(x, lw.attn_norm.span(), cfg_.rms_eps, h);

  std::vector<float> q(static_cast<std::size_t>(qdim));
  matvec(lw.wq, h, q);
  rope_inplace(q, cfg_.n_heads, cfg_.head_dim, pos, cfg_.rope_theta);

  auto kslot = kv.k_slot(layer, pos);
  auto vslot = kv.v_slot(layer, pos);
  matvec(lw.wk, h, kslot);
  rope_inplace(kslot, cfg_.n_kv_heads, cfg_.head_dim, pos, cfg_.rope_theta);
  matvec(lw.wv, h, vslot);

  // Causal attention over positions [0, pos].
  const float inv_sqrt_d = 1.0F / std::sqrt(static_cast<float>(cfg_.head_dim));
  std::vector<float> attn_out(static_cast<std::size_t>(qdim), 0.0F);
  std::vector<float> scores(static_cast<std::size_t>(pos) + 1);
  for (int hd = 0; hd < cfg_.n_heads; ++hd) {
    const int kvh = hd / group;
    const float* qh = q.data() + static_cast<std::size_t>(hd) * cfg_.head_dim;
    for (int p = 0; p <= pos; ++p) {
      const auto kp = kv.k_at(layer, p);
      const float* kh = kp.data() + static_cast<std::size_t>(kvh) * cfg_.head_dim;
      float s = 0.0F;
      for (int d = 0; d < cfg_.head_dim; ++d) s += qh[d] * kh[d];
      scores[static_cast<std::size_t>(p)] = s * inv_sqrt_d;
    }
    softmax_inplace(std::span<float>(scores.data(), static_cast<std::size_t>(pos) + 1));
    float* oh = attn_out.data() + static_cast<std::size_t>(hd) * cfg_.head_dim;
    for (int p = 0; p <= pos; ++p) {
      const auto vp = kv.v_at(layer, p);
      const float* vh = vp.data() + static_cast<std::size_t>(kvh) * cfg_.head_dim;
      const float w = scores[static_cast<std::size_t>(p)];
      for (int d = 0; d < cfg_.head_dim; ++d) oh[d] += w * vh[d];
    }
  }
  DAOP_CHECK_EQ(static_cast<int>(kslot.size()), kvdim);

  std::vector<float> proj(static_cast<std::size_t>(cfg_.d_model));
  matvec(lw.wo, attn_out, proj);
  add_inplace(x, proj);
}

void FunctionalModel::ffn_input(int layer, std::span<const float> x,
                                std::span<float> h) const {
  DAOP_CHECK(layer >= 0 && layer < cfg_.n_layers);
  const LayerWeights& lw = weights_.layers[static_cast<std::size_t>(layer)];
  rmsnorm(x, lw.ffn_norm.span(), cfg_.rms_eps, h);
}

void FunctionalModel::gate(int layer, std::span<const float> h,
                           std::span<float> logits) const {
  DAOP_CHECK(layer >= 0 && layer < cfg_.n_layers);
  DAOP_CHECK_EQ(static_cast<int>(logits.size()), cfg_.n_experts);
  const LayerWeights& lw = weights_.layers[static_cast<std::size_t>(layer)];
  matvec(lw.gate, h, logits);
}

RouteDecision FunctionalModel::route(std::span<const float> logits) const {
  RouteDecision d;
  const TopK top = topk_indices(logits, cfg_.top_k);
  d.experts.assign(top.begin(), top.end());
  d.weights.resize(d.experts.size());
  softmax_subset(logits, d.experts, d.weights);
  return d;
}

void FunctionalModel::expert_forward(int layer, int expert,
                                     std::span<const float> h,
                                     std::span<float> out) const {
  DAOP_CHECK(layer >= 0 && layer < cfg_.n_layers);
  DAOP_CHECK(expert >= 0 && expert < cfg_.n_experts);
  DAOP_CHECK_EQ(static_cast<int>(out.size()), cfg_.d_model);
  const ExpertWeights& ew =
      weights_.layers[static_cast<std::size_t>(layer)]
          .experts[static_cast<std::size_t>(expert)];

  std::vector<float> a(static_cast<std::size_t>(cfg_.d_ff));
  std::vector<float> b(static_cast<std::size_t>(cfg_.d_ff));
  matvec(ew.w1, h, a);
  matvec(ew.w3, h, b);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = silu(a[i]) * b[i];
  matvec(ew.w2, a, out);
}

void FunctionalModel::lm_logits(std::span<const float> x,
                                std::span<float> logits) const {
  DAOP_CHECK_EQ(static_cast<int>(logits.size()), cfg_.vocab_size);
  std::vector<float> h(static_cast<std::size_t>(cfg_.d_model));
  rmsnorm(x, weights_.final_norm.span(), cfg_.rms_eps, h);
  matvec(weights_.lm_head, h, logits);
}

RouteDecision FunctionalModel::official_block(
    int layer, std::span<float> x, KvCache& kv, int pos, const GateBias& bias,
    std::vector<float>* gate_logits_out) const {
  attention_block(layer, x, kv, pos);

  std::vector<float> h(static_cast<std::size_t>(cfg_.d_model));
  ffn_input(layer, x, h);

  std::vector<float> logits(static_cast<std::size_t>(cfg_.n_experts));
  gate(layer, h, logits);
  if (bias) bias(layer, pos, logits);
  RouteDecision d = route(logits);
  if (gate_logits_out) *gate_logits_out = logits;

  std::vector<float> out(static_cast<std::size_t>(cfg_.d_model));
  for (std::size_t i = 0; i < d.experts.size(); ++i) {
    expert_forward(layer, d.experts[i], h, out);
    axpy_inplace(x, d.weights[i], out);
  }
  return d;
}

OfficialDecoder::OfficialDecoder(const FunctionalModel& model)
    : model_(model) {}

std::vector<int> OfficialDecoder::generate(std::span<const int> prompt,
                                           int n_gen, const GateBias& bias,
                                           const RouteObserver& observer) const {
  DAOP_CHECK(!prompt.empty());
  DAOP_CHECK_GE(n_gen, 0);
  const ModelConfig& cfg = model_.config();
  const int total = static_cast<int>(prompt.size()) + n_gen;
  KvCache kv(cfg, total);

  std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
  std::vector<float> logits(static_cast<std::size_t>(cfg.vocab_size));
  std::vector<float> gate_logits(static_cast<std::size_t>(cfg.n_experts));
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n_gen));

  int next_token = -1;
  for (int pos = 0; pos < total; ++pos) {
    const bool is_prefill = pos < static_cast<int>(prompt.size());
    const int token =
        is_prefill ? prompt[static_cast<std::size_t>(pos)] : next_token;
    model_.embed(token, x);
    for (int l = 0; l < cfg.n_layers; ++l) {
      std::vector<float>* logits_ptr = observer ? &gate_logits : nullptr;
      RouteDecision d = model_.official_block(l, x, kv, pos, bias, logits_ptr);
      if (observer) observer(l, pos, is_prefill, gate_logits, d);
    }
    kv.advance();
    if (pos == total - 1 && n_gen == 0) break;
    model_.lm_logits(x, logits);
    next_token = argmax(logits);
    if (!is_prefill || pos == static_cast<int>(prompt.size()) - 1) {
      if (static_cast<int>(out.size()) < n_gen) out.push_back(next_token);
    }
  }
  return out;
}

}  // namespace daop::model

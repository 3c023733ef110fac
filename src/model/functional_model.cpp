#include "model/functional_model.hpp"

#include <algorithm>
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

int FunctionalModel::rows_of(std::size_t size, int width) {
  const auto w = static_cast<std::size_t>(width);
  DAOP_CHECK(size >= w && size % w == 0);
  return static_cast<int>(size / w);
}

void FunctionalModel::embed(int token, std::span<float> x) const {
  DAOP_CHECK(token >= 0 && token < cfg_.vocab_size);
  DAOP_CHECK_EQ(static_cast<int>(x.size()), cfg_.d_model);
  const auto row = weights_.embedding.row(token);
  std::copy(row.begin(), row.end(), x.begin());
}

void FunctionalModel::attention_block(
    int layer, std::span<float> x, std::span<const Segment> segments) const {
  DAOP_CHECK(layer >= 0 && layer < cfg_.n_layers);
  const int n = rows_of(x.size(), cfg_.d_model);
  int total = 0;
  int max_end = 0;
  for (const Segment& seg : segments) {
    DAOP_CHECK(seg.kv != nullptr);
    DAOP_CHECK_GE(seg.rows, 1);
    total += seg.rows;
    max_end = std::max(max_end, seg.kv->size() + seg.rows);
  }
  DAOP_CHECK_EQ(total, n);
  const LayerWeights& lw = weights_.layers[static_cast<std::size_t>(layer)];
  const auto D = static_cast<std::size_t>(cfg_.d_model);
  const auto hd = static_cast<std::size_t>(cfg_.head_dim);
  const auto qdim = static_cast<std::size_t>(cfg_.n_heads) * hd;
  const auto kvdim = static_cast<std::size_t>(cfg_.n_kv_heads) * hd;
  const int group = cfg_.n_heads / cfg_.n_kv_heads;

  std::vector<float> h(x.size());
  for (int t = 0; t < n; ++t) {
    rmsnorm(x.subspan(t * D, D), lw.attn_norm.span(), cfg_.rms_eps,
            std::span<float>(h).subspan(t * D, D));
  }

  std::vector<float> q(static_cast<std::size_t>(n) * qdim);
  std::vector<float> k(static_cast<std::size_t>(n) * kvdim);
  std::vector<float> v(k.size());
  matmul(lw.wq, h, n, q);
  matmul(lw.wk, h, n, k);
  matmul(lw.wv, h, n, v);

  const float inv_sqrt_d = 1.0F / std::sqrt(static_cast<float>(cfg_.head_dim));
  std::vector<float> rotation(hd);
  std::vector<float> attn_out(q.size(), 0.0F);
  std::vector<float> scores(static_cast<std::size_t>(max_end));
  int t0 = 0;  // the segment's first row in the span
  for (const Segment& seg : segments) {
    KvCache& kv = *seg.kv;
    const int pos = kv.size();
    const int rows = seg.rows;
    const auto kv_rows = std::span<const float>(k).subspan(t0 * kvdim,
                                                           rows * kvdim);
    const auto seg_k = kv.k_span(layer, pos, rows);
    std::copy(kv_rows.begin(), kv_rows.end(), seg_k.begin());
    const auto v_rows = std::span<const float>(v).subspan(t0 * kvdim,
                                                          rows * kvdim);
    std::copy(v_rows.begin(), v_rows.end(),
              kv.v_span(layer, pos, rows).begin());
    for (int t = 0; t < rows; ++t) {
      rope_rotation(cfg_.head_dim, pos + t, cfg_.rope_theta, rotation);
      rope_apply(std::span<float>(q).subspan((t0 + t) * qdim, qdim),
                 cfg_.n_heads, cfg_.head_dim, rotation);
      rope_apply(seg_k.subspan(t * kvdim, kvdim), cfg_.n_kv_heads,
                 cfg_.head_dim, rotation);
    }

    // Causal attention: row t sees positions [0, pos + t].
    const auto keys = kv.k_rows(layer, pos + rows);
    const auto values = kv.v_rows(layer, pos + rows);
    for (int t = 0; t < rows; ++t) {
      const int last = pos + t;
      const auto seen = std::span<float>(scores).first(
          static_cast<std::size_t>(last) + 1);
      for (int head = 0; head < cfg_.n_heads; ++head) {
        const std::size_t kv_off = static_cast<std::size_t>(head / group) * hd;
        const float* qh = q.data() + (t0 + t) * qdim + head * hd;
        // Four positions at a time: four independent dot-product chains,
        // each summing d ascending.
        int p = 0;
        for (; p + 4 <= last + 1; p += 4) {
          const float* kh = keys.data() + p * kvdim + kv_off;
          float s[4] = {};
          for (std::size_t d = 0; d < hd; ++d) {
            for (std::size_t j = 0; j < 4; ++j) {
              s[j] += qh[d] * kh[j * kvdim + d];
            }
          }
          for (std::size_t j = 0; j < 4; ++j) {
            seen[static_cast<std::size_t>(p) + j] = s[j] * inv_sqrt_d;
          }
        }
        for (; p <= last; ++p) {
          const float* kh = keys.data() + p * kvdim + kv_off;
          float s = 0.0F;
          for (std::size_t d = 0; d < hd; ++d) s += qh[d] * kh[d];
          seen[static_cast<std::size_t>(p)] = s * inv_sqrt_d;
        }
        softmax_inplace(seen);
        float* oh = attn_out.data() + (t0 + t) * qdim + head * hd;
        for (p = 0; p <= last; ++p) {
          const float* vh = values.data() + p * kvdim + kv_off;
          const float w = seen[static_cast<std::size_t>(p)];
          for (std::size_t d = 0; d < hd; ++d) oh[d] += w * vh[d];
        }
      }
    }
    t0 += rows;
  }

  std::vector<float> proj(x.size());
  matmul(lw.wo, attn_out, n, proj);
  add_inplace(x, proj);
}

void FunctionalModel::attention_block(int layer, std::span<float> x,
                                      KvCache& kv, int pos) const {
  DAOP_CHECK_EQ(pos, kv.size());
  const Segment seg{&kv, rows_of(x.size(), cfg_.d_model), nullptr};
  attention_block(layer, x, std::span<const Segment>(&seg, 1));
}

void FunctionalModel::ffn_input(int layer, std::span<const float> x,
                                std::span<float> h) const {
  DAOP_CHECK(layer >= 0 && layer < cfg_.n_layers);
  DAOP_CHECK_EQ(x.size(), h.size());
  const LayerWeights& lw = weights_.layers[static_cast<std::size_t>(layer)];
  const auto D = static_cast<std::size_t>(cfg_.d_model);
  const int n = rows_of(x.size(), cfg_.d_model);
  for (int t = 0; t < n; ++t) {
    rmsnorm(x.subspan(t * D, D), lw.ffn_norm.span(), cfg_.rms_eps,
            h.subspan(t * D, D));
  }
}

void FunctionalModel::gate(int layer, std::span<const float> h,
                           std::span<float> logits) const {
  DAOP_CHECK(layer >= 0 && layer < cfg_.n_layers);
  const LayerWeights& lw = weights_.layers[static_cast<std::size_t>(layer)];
  matmul(lw.gate, h, rows_of(h.size(), cfg_.d_model), logits);
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
  const int n = rows_of(h.size(), cfg_.d_model);
  const ExpertWeights& ew =
      weights_.layers[static_cast<std::size_t>(layer)]
          .experts[static_cast<std::size_t>(expert)];

  std::vector<float> a(static_cast<std::size_t>(n) * cfg_.d_ff);
  std::vector<float> b(a.size());
  matmul(ew.w1, h, n, a);
  matmul(ew.w3, h, n, b);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = silu(a[i]) * b[i];
  matmul(ew.w2, a, n, out);
}

void FunctionalModel::run_experts(int layer, std::span<const float> h,
                                  std::span<const ExpertJob> jobs,
                                  std::span<float> out) const {
  const auto D = static_cast<std::size_t>(cfg_.d_model);
  const int rows = rows_of(h.size(), cfg_.d_model);
  for (const ExpertJob& j : jobs) {
    DAOP_CHECK(j.expert >= 0 && j.expert < cfg_.n_experts);
    DAOP_CHECK(j.row >= 0 && j.row < rows);
    DAOP_CHECK(j.slot >= 0 &&
               static_cast<std::size_t>(j.slot) < out.size() / D);
  }
  std::vector<float> in;
  std::vector<float> res;
  std::vector<int> slots;
  for (int e = 0; e < cfg_.n_experts; ++e) {
    in.clear();
    slots.clear();
    for (const ExpertJob& j : jobs) {
      if (j.expert != e) continue;
      const auto row = h.subspan(static_cast<std::size_t>(j.row) * D, D);
      in.insert(in.end(), row.begin(), row.end());
      slots.push_back(j.slot);
    }
    if (slots.empty()) continue;
    res.resize(in.size());
    expert_forward(layer, e, in, res);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      std::copy_n(res.begin() + static_cast<std::ptrdiff_t>(i * D), D,
                  out.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(slots[i]) * D));
    }
  }
}

void FunctionalModel::lm_logits(std::span<const float> x,
                                std::span<float> logits) const {
  const auto D = static_cast<std::size_t>(cfg_.d_model);
  const int n = rows_of(x.size(), cfg_.d_model);
  std::vector<float> h(x.size());
  for (int t = 0; t < n; ++t) {
    rmsnorm(x.subspan(t * D, D), weights_.final_norm.span(), cfg_.rms_eps,
            std::span<float>(h).subspan(t * D, D));
  }
  matmul(weights_.lm_head, h, n, logits);
}

std::vector<RouteDecision> FunctionalModel::official_block(
    int layer, std::span<float> x, std::span<const Segment> segments,
    std::vector<float>* gate_logits_out) const {
  attention_block(layer, x, segments);

  const int n = rows_of(x.size(), cfg_.d_model);
  const auto D = static_cast<std::size_t>(cfg_.d_model);
  const auto E = static_cast<std::size_t>(cfg_.n_experts);
  const auto K = static_cast<std::size_t>(cfg_.top_k);
  std::vector<float> h(x.size());
  ffn_input(layer, x, h);
  std::vector<float> logits(static_cast<std::size_t>(n) * E);
  gate(layer, h, logits);

  std::vector<RouteDecision> d(static_cast<std::size_t>(n));
  std::vector<ExpertJob> jobs;
  jobs.reserve(static_cast<std::size_t>(n) * K);
  int t = 0;
  for (const Segment& seg : segments) {
    const int pos = seg.kv->size();
    const bool biased = seg.bias != nullptr && *seg.bias;
    for (int i = 0; i < seg.rows; ++i, ++t) {
      const auto row = std::span<float>(logits).subspan(t * E, E);
      if (biased) (*seg.bias)(layer, pos + i, row);
      d[static_cast<std::size_t>(t)] = route(row);
      for (std::size_t j = 0; j < K; ++j) {
        jobs.push_back({d[static_cast<std::size_t>(t)].experts[j], t,
                        static_cast<int>(t * K + j)});
      }
    }
  }
  std::vector<float> out(jobs.size() * D);
  run_experts(layer, h, jobs, out);
  for (t = 0; t < n; ++t) {
    const RouteDecision& dt = d[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < K; ++i) {
      axpy_inplace(x.subspan(t * D, D), dt.weights[i],
                   std::span<const float>(out).subspan((t * K + i) * D, D));
    }
  }
  if (gate_logits_out) *gate_logits_out = std::move(logits);
  return d;
}

std::vector<RouteDecision> FunctionalModel::official_block(
    int layer, std::span<float> x, KvCache& kv, int pos, const GateBias& bias,
    std::vector<float>* gate_logits_out) const {
  DAOP_CHECK_EQ(pos, kv.size());
  const Segment seg{&kv, rows_of(x.size(), cfg_.d_model), &bias};
  return official_block(layer, x, std::span<const Segment>(&seg, 1),
                        gate_logits_out);
}

OfficialDecoder::OfficialDecoder(const FunctionalModel& model)
    : model_(model) {}

namespace {

/// Entry i of a per-sequence list that is either empty or one per sequence.
template <typename T>
const T* entry(std::span<const T> list, std::size_t i) {
  return list.empty() ? nullptr : &list[i];
}

template <typename T>
void check_per_sequence(std::span<const T> list, std::size_t n) {
  DAOP_CHECK(list.empty() || list.size() == n);
}

}  // namespace

std::vector<PrefillState> OfficialDecoder::prefill_batch(
    std::span<const std::vector<int>> prompts, int max_new_tokens,
    std::span<const GateBias> biases,
    std::span<const RouteObserver> observers) const {
  DAOP_CHECK(!prompts.empty());
  DAOP_CHECK_GE(max_new_tokens, 0);
  check_per_sequence(biases, prompts.size());
  check_per_sequence(observers, prompts.size());
  const ModelConfig& cfg = model_.config();
  const auto D = static_cast<std::size_t>(cfg.d_model);
  const auto E = static_cast<std::size_t>(cfg.n_experts);
  std::vector<PrefillState> states;
  states.reserve(prompts.size());
  std::size_t rows = 0;
  for (const std::vector<int>& prompt : prompts) {
    DAOP_CHECK(!prompt.empty());
    const int n = static_cast<int>(prompt.size());
    states.push_back({KvCache(cfg, n + max_new_tokens), -1,
                      std::vector<std::vector<double>>(
                          static_cast<std::size_t>(cfg.n_layers),
                          std::vector<double>(E, 0.0))});
    rows += prompt.size();
  }
  std::vector<Segment> segments;
  std::vector<float> x(rows * D);
  std::size_t t = 0;
  for (std::size_t s = 0; s < prompts.size(); ++s) {
    segments.push_back({&states[s].kv, static_cast<int>(prompts[s].size()),
                        entry(biases, s)});
    for (const int token : prompts[s]) {
      model_.embed(token, std::span<float>(x).subspan(t++ * D, D));
    }
  }

  std::vector<float> gate_logits;
  for (int l = 0; l < cfg.n_layers; ++l) {
    const std::vector<RouteDecision> d = model_.official_block(
        l, x, segments, observers.empty() ? nullptr : &gate_logits);
    t = 0;
    for (std::size_t s = 0; s < prompts.size(); ++s) {
      auto& counts = states[s].counts[static_cast<std::size_t>(l)];
      const RouteObserver* observer = entry(observers, s);
      for (int i = 0; i < segments[s].rows; ++i, ++t) {
        const RouteDecision& dt = d[t];
        for (int e : dt.experts) counts[static_cast<std::size_t>(e)] += 1.0;
        if (observer && *observer) {
          (*observer)(l, i, true,
                      std::span<const float>(gate_logits).subspan(t * E, E),
                      dt);
        }
      }
    }
  }

  // The LM head over each prompt's last row.
  std::vector<float> last(prompts.size() * D);
  t = 0;
  for (std::size_t s = 0; s < prompts.size(); ++s) {
    states[s].kv.advance(segments[s].rows);
    t += prompts[s].size();
    std::copy_n(x.begin() + static_cast<std::ptrdiff_t>((t - 1) * D), D,
                last.begin() + static_cast<std::ptrdiff_t>(s * D));
  }
  const auto V = static_cast<std::size_t>(cfg.vocab_size);
  std::vector<float> logits(prompts.size() * V);
  model_.lm_logits(last, logits);
  for (std::size_t s = 0; s < prompts.size(); ++s) {
    states[s].first_token =
        argmax(std::span<const float>(logits).subspan(s * V, V));
  }
  return states;
}

std::vector<std::vector<int>> OfficialDecoder::generate_batch(
    std::vector<PrefillState> states, int n_gen,
    std::span<const GateBias> biases,
    std::span<const RouteObserver> observers) const {
  DAOP_CHECK_GE(n_gen, 0);
  check_per_sequence(biases, states.size());
  check_per_sequence(observers, states.size());
  const ModelConfig& cfg = model_.config();
  const auto D = static_cast<std::size_t>(cfg.d_model);
  const auto E = static_cast<std::size_t>(cfg.n_experts);
  const auto V = static_cast<std::size_t>(cfg.vocab_size);
  const std::size_t n = states.size();
  std::vector<std::vector<int>> out(n);
  if (n_gen == 0 || n == 0) return out;
  std::vector<Segment> segments;
  for (std::size_t s = 0; s < n; ++s) {
    out[s].reserve(static_cast<std::size_t>(n_gen));
    out[s].push_back(states[s].first_token);
    segments.push_back({&states[s].kv, 1, entry(biases, s)});
  }

  std::vector<float> x(n * D);
  std::vector<float> logits(n * V);
  std::vector<float> gate_logits;
  // The last step's tokens are never returned: it runs only so the
  // observers see the routing of every decode position.
  const int steps = observers.empty() ? n_gen - 1 : n_gen;
  for (int g = 0; g < steps; ++g) {
    for (std::size_t s = 0; s < n; ++s) {
      model_.embed(out[s][static_cast<std::size_t>(g)],
                   std::span<float>(x).subspan(s * D, D));
    }
    for (int l = 0; l < cfg.n_layers; ++l) {
      const std::vector<RouteDecision> d = model_.official_block(
          l, x, segments, observers.empty() ? nullptr : &gate_logits);
      for (std::size_t s = 0; s < n && !observers.empty(); ++s) {
        if (!observers[s]) continue;
        observers[s](l, states[s].kv.size(), false,
                     std::span<const float>(gate_logits).subspan(s * E, E),
                     d[s]);
      }
    }
    for (PrefillState& state : states) state.kv.advance();
    if (g + 1 == n_gen) break;
    model_.lm_logits(x, logits);
    for (std::size_t s = 0; s < n; ++s) {
      out[s].push_back(argmax(std::span<const float>(logits).subspan(s * V, V)));
    }
  }
  return out;
}

PrefillState OfficialDecoder::prefill(std::span<const int> prompt,
                                      int max_new_tokens, const GateBias& bias,
                                      const RouteObserver& observer) const {
  const std::vector<int> prompts[] = {{prompt.begin(), prompt.end()}};
  return std::move(prefill_batch(prompts, max_new_tokens,
                                 std::span<const GateBias>(&bias, 1),
                                 observer ? std::span<const RouteObserver>(
                                                &observer, 1)
                                          : std::span<const RouteObserver>())
                       .front());
}

std::vector<int> OfficialDecoder::generate(PrefillState state, int n_gen,
                                           const GateBias& bias,
                                           const RouteObserver& observer) const {
  std::vector<PrefillState> states;
  states.push_back(std::move(state));
  return std::move(
      generate_batch(std::move(states), n_gen,
                     std::span<const GateBias>(&bias, 1),
                     observer ? std::span<const RouteObserver>(&observer, 1)
                              : std::span<const RouteObserver>())
          .front());
}

std::vector<int> OfficialDecoder::generate(std::span<const int> prompt,
                                           int n_gen, const GateBias& bias,
                                           const RouteObserver& observer) const {
  return generate(prefill(prompt, n_gen, bias, observer), n_gen, bias,
                  observer);
}

}  // namespace daop::model

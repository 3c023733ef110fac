#include "data/routing_trace.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace daop::data {

void SequenceTrace::reshape(int n_layers, int n_experts_in, int top_k_in,
                            int prompt_len_in, int gen_len_in) {
  DAOP_CHECK_GE(n_layers, 0);
  DAOP_CHECK_GE(n_experts_in, 0);
  DAOP_CHECK_GE(prompt_len_in, 0);
  DAOP_CHECK_GE(gen_len_in, 0);
  n_layers_ = n_layers;
  n_experts = n_experts_in;
  top_k = top_k_in;
  prompt_len = prompt_len_in;
  gen_len = gen_len_in;
  const auto L = static_cast<std::size_t>(n_layers);
  const auto E = static_cast<std::size_t>(n_experts);
  prefill_.assign(L * static_cast<std::size_t>(prompt_len) * E, 0.0F);
  decode_.assign(L * static_cast<std::size_t>(gen_len) * E, 0.0F);
  pred_.assign(decode_.size(), 0.0F);
  has_pred_.assign(L * static_cast<std::size_t>(gen_len), 0);
  routed_ = false;
}

std::size_t SequenceTrace::offset(Phase phase, int layer, int token) const {
  const int n_tokens = phase == Phase::Prefill ? prompt_len : gen_len;
  DAOP_CHECK(layer >= 0 && layer < n_layers_);
  DAOP_CHECK(token >= 0 && token < n_tokens);
  const std::size_t cell = static_cast<std::size_t>(layer) *
                               static_cast<std::size_t>(n_tokens) +
                           static_cast<std::size_t>(token);
  // Guards the buffers against shape fields edited without reshape().
  DAOP_CHECK_LE((cell + 1) * static_cast<std::size_t>(n_experts),
                (phase == Phase::Prefill ? prefill_ : decode_).size());
  return cell;
}

TokenRouting SequenceTrace::at(Phase phase, int layer, int token) const {
  const std::size_t cell = offset(phase, layer, token);
  const auto E = static_cast<std::size_t>(n_experts);
  if (phase == Phase::Prefill) {
    return {std::span<const float>(prefill_).subspan(cell * E, E), {}};
  }
  TokenRouting r{std::span<const float>(decode_).subspan(cell * E, E), {}};
  if (has_pred_[cell] != 0) {
    r.pred_scores = std::span<const float>(pred_).subspan(cell * E, E);
  }
  return r;
}

std::span<float> SequenceTrace::mutable_scores(Phase phase, int layer,
                                               int token) {
  const std::size_t cell = offset(phase, layer, token);
  routed_ = false;
  const auto E = static_cast<std::size_t>(n_experts);
  return std::span<float>(phase == Phase::Prefill ? prefill_ : decode_)
      .subspan(cell * E, E);
}

std::span<float> SequenceTrace::mutable_pred_scores(int layer, int token) {
  const std::size_t cell = offset(Phase::Decode, layer, token);
  has_pred_[cell] = 1;
  routed_ = false;
  const auto E = static_cast<std::size_t>(n_experts);
  return std::span<float>(pred_).subspan(cell * E, E);
}

void SequenceTrace::route() {
  DAOP_CHECK(top_k > 0 && top_k <= n_experts);
  DAOP_CHECK_LE(n_experts, kMaxRoutedExperts);
  const auto E = static_cast<std::size_t>(n_experts);
  const auto k = static_cast<std::size_t>(top_k);
  const std::size_t n_prefill = prefill_.size() / E;
  const std::size_t n_decode = decode_.size() / E;
  ids_.resize((n_prefill + 2 * n_decode) * k);
  const auto put = [&](const std::vector<float>& scores, std::size_t cell,
                       std::size_t index_cell) {
    const TopK top =
        topk_indices(std::span<const float>(scores).subspan(cell * E, E),
                     top_k);
    for (std::size_t i = 0; i < k; ++i) {
      ids_[index_cell * k + i] = static_cast<std::uint8_t>(top[i]);
    }
  };
  for (std::size_t c = 0; c < n_prefill; ++c) put(prefill_, c, c);
  for (std::size_t c = 0; c < n_decode; ++c) put(decode_, c, n_prefill + c);
  for (std::size_t c = 0; c < n_decode; ++c) {
    if (has_pred_[c] != 0) put(pred_, c, n_prefill + n_decode + c);
  }
  routed_ = true;
}

void SequenceTrace::check_routed() const {
  DAOP_CHECK_MSG(routed_,
                 "routing index read on a trace that is not routed (call "
                 "route() after filling its scores)");
}

TopK SequenceTrace::ids_at(std::size_t cell) const {
  check_routed();
  const auto k = static_cast<std::size_t>(top_k);
  // Guards the index against shape fields edited without reshape().
  DAOP_CHECK_LE((cell + 1) * k, ids_.size());
  TopK out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(ids_[cell * k + i]);
  return out;
}

TopK SequenceTrace::selected(Phase phase, int layer, int token) const {
  const std::size_t cell = offset(phase, layer, token);
  if (phase == Phase::Prefill) return ids_at(cell);
  return ids_at(static_cast<std::size_t>(n_layers_) *
                    static_cast<std::size_t>(prompt_len) +
                cell);
}

TopK SequenceTrace::predicted(int layer, int token) const {
  const std::size_t cell = offset(Phase::Decode, layer, token);
  check_routed();
  if (has_pred_[cell] == 0) return {};
  const auto L = static_cast<std::size_t>(n_layers_);
  return ids_at(L * static_cast<std::size_t>(prompt_len) +
                L * static_cast<std::size_t>(gen_len) + cell);
}

std::vector<std::vector<double>> SequenceTrace::count_window(Phase phase,
                                                            int t0,
                                                            int t1) const {
  std::vector<std::vector<double>> counts(
      static_cast<std::size_t>(n_layers_),
      std::vector<double>(static_cast<std::size_t>(n_experts), 0.0));
  for (int l = 0; l < n_layers_; ++l) {
    auto& row = counts[static_cast<std::size_t>(l)];
    for (int t = t0; t < t1; ++t) {
      for (int e : selected(phase, l, t)) {
        row[static_cast<std::size_t>(e)] += 1.0;
      }
    }
  }
  return counts;
}

std::vector<std::vector<double>> SequenceTrace::activation_counts(
    Phase phase) const {
  return count_window(phase, 0,
                      phase == Phase::Prefill ? prompt_len : gen_len);
}

std::vector<std::vector<double>> SequenceTrace::decode_window_counts(
    int t0, int t1) const {
  DAOP_CHECK_LE(0, t0);
  DAOP_CHECK_LE(t0, t1);
  return count_window(Phase::Decode, t0, std::min(t1, gen_len));
}

}  // namespace daop::data

#include "model/kv_cache.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace daop::model {

KvCache::KvCache(const ModelConfig& cfg, int max_seq)
    : kv_dim_(cfg.n_kv_heads * cfg.head_dim),
      max_seq_(max_seq),
      n_layers_(cfg.n_layers) {
  DAOP_CHECK_GT(max_seq, 0);
  k_.reserve(static_cast<std::size_t>(n_layers_));
  v_.reserve(static_cast<std::size_t>(n_layers_));
  for (int l = 0; l < n_layers_; ++l) {
    k_.emplace_back(max_seq_, kv_dim_);
    v_.emplace_back(max_seq_, kv_dim_);
  }
}

std::span<float> KvCache::rows(std::vector<Tensor>& t, int layer, int pos,
                               int n) {
  DAOP_CHECK(layer >= 0 && layer < n_layers_);
  DAOP_CHECK_EQ(pos, size_);  // spans append at the frontier only
  DAOP_CHECK_GE(n, 1);
  DAOP_CHECK_LE(pos + n, max_seq_);
  open_end_ = std::max(open_end_, pos + n);
  float* base = t[static_cast<std::size_t>(layer)].data();
  return {base + static_cast<std::size_t>(pos) * kv_dim_,
          static_cast<std::size_t>(n) * kv_dim_};
}

std::span<const float> KvCache::prefix(const std::vector<Tensor>& t,
                                       int layer, int end) const {
  DAOP_CHECK(layer >= 0 && layer < n_layers_);
  DAOP_CHECK(end >= 0 && end <= open_end_);
  return {t[static_cast<std::size_t>(layer)].data(),
          static_cast<std::size_t>(end) * kv_dim_};
}

std::span<float> KvCache::k_span(int layer, int pos, int n) {
  return rows(k_, layer, pos, n);
}

std::span<float> KvCache::v_span(int layer, int pos, int n) {
  return rows(v_, layer, pos, n);
}

std::span<const float> KvCache::k_rows(int layer, int end) const {
  return prefix(k_, layer, end);
}

std::span<const float> KvCache::v_rows(int layer, int end) const {
  return prefix(v_, layer, end);
}

void KvCache::advance(int n) {
  DAOP_CHECK_GE(n, 1);
  DAOP_CHECK_LE(size_ + n, max_seq_);
  size_ += n;
  open_end_ = std::max(open_end_, size_);
}

void KvCache::truncate(int n) {
  DAOP_CHECK(n >= 0 && n <= size_);
  size_ = n;
  open_end_ = n;
}

}  // namespace daop::model

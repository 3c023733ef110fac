// Per-layer key/value cache for autoregressive decoding.
#pragma once

#include <span>
#include <vector>

#include "model/config.hpp"
#include "tensor/tensor.hpp"

namespace daop::model {

class KvCache {
 public:
  KvCache(const ModelConfig& cfg, int max_seq);

  int max_seq() const { return max_seq_; }
  int kv_dim() const { return kv_dim_; }
  /// Number of positions currently filled (same across layers by contract).
  int size() const { return size_; }

  /// Rows [pos, pos + n) of `layer`'s keys (values), row-major, for a span
  /// being appended: `pos` must be the frontier size() and the span must
  /// fit in max_seq(). Every layer writes the same span before advance(n).
  std::span<float> k_span(int layer, int pos, int n);
  std::span<float> v_span(int layer, int pos, int n);

  /// Rows [0, end) of `layer`'s keys (values): the filled positions plus
  /// the span opened since the last advance(). Raises CheckError past it.
  std::span<const float> k_rows(int layer, int end) const;
  std::span<const float> v_rows(int layer, int end) const;

  /// Marks positions [size(), size() + n) complete across all layers.
  void advance(int n = 1);

  /// Drops cached positions back to `n` (used to replay a prefix).
  void truncate(int n);

  void clear() { truncate(0); }

 private:
  std::span<float> rows(std::vector<Tensor>& t, int layer, int pos, int n);
  std::span<const float> prefix(const std::vector<Tensor>& t, int layer,
                                int end) const;

  int kv_dim_ = 0;
  int max_seq_ = 0;
  int n_layers_ = 0;
  int size_ = 0;
  int open_end_ = 0;  ///< size_, or the end of the span opened since
                      ///< the last advance() when one is open
  std::vector<Tensor> k_;  // per layer: [max_seq, kv_dim]
  std::vector<Tensor> v_;
};

}  // namespace daop::model

// Routing traces: the per-token, per-layer gate information that the
// performance-plane engines schedule against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/ops.hpp"

namespace daop::data {

/// Inference phase.
enum class Phase { Prefill, Decode };

/// Gate information for one token at one layer: a view into the owning
/// SequenceTrace, valid while the trace lives and is not reshaped.
struct TokenRouting {
  /// True gate logits, length n_experts.
  std::span<const float> scores;
  /// One-layer-ahead predicted logits for THIS layer (produced while the
  /// previous layer executed). Empty for layer 0, where no earlier layer
  /// exists to predict from, and for every prefill token.
  std::span<const float> pred_scores;
};

/// Complete routing trace of a single sequence through a model.
///
/// Storage is flat: prefill scores, decode scores and decode predictions are
/// three contiguous [layer][token][expert] float buffers, so a trace is four
/// heap blocks whatever its length. Whether a decode cell carries a
/// prediction is a per-(layer, token) flag, because the daop-trace format
/// allows predictions cell by cell.
struct SequenceTrace {
  int n_experts = 0;
  int top_k = 0;
  int prompt_len = 0;
  int gen_len = 0;

  /// Sets the shape and sizes the buffers: every score 0, no predictions.
  /// The only way to change the shape; builders then fill cells through
  /// mutable_scores() / mutable_pred_scores().
  void reshape(int n_layers, int n_experts, int top_k, int prompt_len,
               int gen_len);

  int n_layers() const { return n_layers_; }

  TokenRouting at(Phase phase, int layer, int token) const;

  /// True gate logits of one cell, writable.
  std::span<float> mutable_scores(Phase phase, int layer, int token);
  /// Predicted logits of one decode cell, writable; marks the cell as
  /// carrying a prediction.
  std::span<float> mutable_pred_scores(int layer, int token);

  /// Top-k expert ids for a token (descending true score).
  TopK selected(Phase phase, int layer, int token) const;

  /// Top-k expert ids by predicted score; empty when no prediction exists.
  TopK predicted(int layer, int token) const;

  /// Activation-count matrix for a phase: out[layer][expert] = number of
  /// tokens routed to that expert (paper observation ②'s P / D matrices).
  std::vector<std::vector<double>> activation_counts(Phase phase) const;

  /// Activation counts restricted to decode tokens [t0, t1).
  std::vector<std::vector<double>> decode_window_counts(int t0, int t1) const;

 private:
  /// Cell index (layer * tokens + token) after bounds checks.
  std::size_t offset(Phase phase, int layer, int token) const;
  /// Activation counts over tokens [t0, t1) of a phase.
  std::vector<std::vector<double>> count_window(Phase phase, int t0,
                                                int t1) const;

  int n_layers_ = 0;
  std::vector<float> prefill_;
  std::vector<float> decode_;
  std::vector<float> pred_;
  /// [layer][decode token]: 1 when pred_ holds a prediction for the cell.
  std::vector<std::uint8_t> has_pred_;
};

}  // namespace daop::data

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

/// Largest n_experts a routed trace holds: route() stores expert ids as
/// bytes.
inline constexpr int kMaxRoutedExperts = 256;

/// Complete routing trace of a single sequence through a model.
///
/// Storage is flat: prefill scores, decode scores and decode predictions are
/// three contiguous [layer][token][expert] float buffers. Whether a decode
/// cell carries a prediction is a per-(layer, token) flag, because the
/// daop-trace format allows predictions cell by cell. route() adds the
/// routing index, the top-k ids of every cell in one byte buffer, so a
/// routed trace is five heap blocks whatever its length.
///
/// Builders reshape(), fill cells through mutable_scores() /
/// mutable_pred_scores(), then route(). Every engine replaying the trace
/// reads the index instead of re-running top-k; any mutable_*() call drops
/// it, and the index readers raise CheckError until route() runs again.
struct SequenceTrace {
  int n_experts = 0;
  int top_k = 0;
  int prompt_len = 0;
  int gen_len = 0;

  /// Sets the shape and sizes the buffers: every score 0, no predictions,
  /// not routed. The only way to change the shape.
  void reshape(int n_layers, int n_experts, int top_k, int prompt_len,
               int gen_len);

  int n_layers() const { return n_layers_; }

  TokenRouting at(Phase phase, int layer, int token) const;

  /// True gate logits of one cell, writable; drops the routing index.
  std::span<float> mutable_scores(Phase phase, int layer, int token);
  /// Predicted logits of one decode cell, writable; marks the cell as
  /// carrying a prediction and drops the routing index.
  std::span<float> mutable_pred_scores(int layer, int token);

  /// Builds the routing index: topk_indices() of every prefill, decode and
  /// predicted cell, computed once. Requires top_k in [1, kMaxTopK] and
  /// n_experts <= kMaxRoutedExperts.
  void route();

  /// Top-k expert ids for a token (descending true score). Reads the
  /// routing index; CheckError on a trace that is not routed.
  TopK selected(Phase phase, int layer, int token) const;

  /// Top-k expert ids by predicted score; empty when no prediction exists.
  /// Reads the routing index like selected().
  TopK predicted(int layer, int token) const;

  /// Activation-count matrix for a phase: out[layer][expert] = number of
  /// tokens routed to that expert (paper observation ②'s P / D matrices).
  std::vector<std::vector<double>> activation_counts(Phase phase) const;

  /// Activation counts restricted to decode tokens [t0, t1).
  std::vector<std::vector<double>> decode_window_counts(int t0, int t1) const;

 private:
  /// Cell index (layer * tokens + token) after bounds checks.
  std::size_t offset(Phase phase, int layer, int token) const;
  /// CheckError unless the routing index is current.
  void check_routed() const;
  /// The top_k ids stored at index cell `cell` (prefill cells first, then
  /// decode cells, then prediction cells).
  TopK ids_at(std::size_t cell) const;
  /// Activation counts over tokens [t0, t1) of a phase.
  std::vector<std::vector<double>> count_window(Phase phase, int t0,
                                                int t1) const;

  int n_layers_ = 0;
  std::vector<float> prefill_;
  std::vector<float> decode_;
  std::vector<float> pred_;
  /// [layer][decode token]: 1 when pred_ holds a prediction for the cell.
  std::vector<std::uint8_t> has_pred_;
  /// Routing index, top_k ids per cell: prefill cells, then decode cells,
  /// then prediction cells (unset where a cell has no prediction).
  std::vector<std::uint8_t> ids_;
  bool routed_ = false;
};

}  // namespace daop::data

// Functional (real-numerics) decoder-only MoE model.
//
// Architecture matches Mixtral/Phi-3.5-MoE: RMSNorm -> GQA attention with
// RoPE -> residual -> RMSNorm -> top-k softmax-gated SwiGLU experts ->
// residual; final RMSNorm + LM head. The class exposes per-sub-block
// primitives rather than a monolithic forward so that executors (official
// baseline in this header; DAOP's approximate executor in src/core) can
// compose them differently while sharing identical numerics.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/weights.hpp"

namespace daop::model {

/// Optional per-(layer, pos) additive bias on gate logits. The workload
/// conditioner in src/data uses this to imprint dataset-specific routing
/// statistics on the functional model; it is applied identically to the
/// official and DAOP executors, so it acts as part of the input, not as an
/// approximation.
///
/// A GateBias must be a pure function of (layer, pos): the span paths call
/// it layer by layer over many positions, and the DAOP executor calls it
/// for the gate-ahead prediction of layer l+1 before layer l+1 itself.
/// data::make_gate_bias precomputes its whole field, so it is pure.
using GateBias =
    std::function<void(int layer, int pos, std::span<float> logits)>;

/// Routing decision for one token at one layer.
struct RouteDecision {
  std::vector<int> experts;    ///< top_k expert ids, descending score
  std::vector<float> weights;  ///< renormalized softmax weights, same order
};

/// Observer invoked at every gate evaluation (used to collect activation
/// patterns for observations ①/②, Table II, and Algorithm 1 counting).
/// The events of one span of known tokens (a prompt) arrive layer-major:
/// every position of layer 0, then of layer 1, and so on. Consumers must
/// not depend on the order of events; positions are in `pos`.
using RouteObserver = std::function<void(
    int layer, int pos, bool is_prefill, std::span<const float> logits,
    const RouteDecision& decision)>;

/// One expert run over one row of a span: expert `expert` applied to row
/// `row` of the span's hidden states, written to output slot `slot`.
struct ExpertJob {
  int expert = 0;
  int row = 0;
  int slot = 0;
};

/// The exact prefill of one prompt: what a decoder needs to continue the
/// sequence. Prefill is exact under DAOP (§IV-B), so the official decoder
/// and every DAOP decode of one prompt under one GateBias continue from the
/// same state.
struct PrefillState {
  KvCache kv;  ///< the prompt's keys/values; room for the decode after it
  int first_token = -1;  ///< argmax of the lm logits after the prompt
  /// counts[layer][expert]: prompt tokens routed to the expert (the input
  /// of Algorithm 1's sequence-specific allocation).
  std::vector<std::vector<double>> counts;
};

/// One sequence's rows in a multi-sequence span: `rows` consecutive
/// positions starting at the cache's frontier kv->size(), whose keys and
/// values are appended to `kv`, routed under `*bias` (none when `bias` is
/// null or empty).
struct Segment {
  KvCache* kv = nullptr;
  int rows = 0;
  const GateBias* bias = nullptr;
};

/// Every sub-block works on a span of rows: `x` holds n = x.size() /
/// d_model rows, row-major. The rows of a span may come from several
/// sequences, one Segment each, in order: a prompt, a teacher-forced span
/// and one lockstep decode step of many sequences are the same call, and a
/// single-sequence decode step is a span of one row. The projections, the
/// gate, the experts and the LM head run once over all rows; RoPE and
/// causal attention run per segment. Each row's numerics are bit-identical
/// whatever shares its span: the multi-row kernel keeps every output's
/// accumulation chain, and each row's expert outputs are added in the order
/// of its own routing decision.
class FunctionalModel {
 public:
  FunctionalModel(ModelConfig cfg, std::uint64_t seed);

  const ModelConfig& config() const { return cfg_; }
  const ModelWeights& weights() const { return weights_; }

  /// x = embedding[token]
  void embed(int token, std::span<float> x) const;

  /// x <- x + Attention(RMSNorm(x)) for every row, each attending causally
  /// to its segment's cache and the segment's earlier rows; appends each
  /// segment's k/v to its cache. The segments' rows must add up to x's.
  void attention_block(int layer, std::span<float> x,
                       std::span<const Segment> segments) const;

  /// The span of one sequence at `pos`, which must equal kv.size().
  void attention_block(int layer, std::span<float> x, KvCache& kv,
                       int pos) const;

  /// h = RMSNorm_ffn(x) per row: the hidden state fed to the gate and the
  /// experts — and, in DAOP, the state used to predict the next layer's
  /// experts.
  void ffn_input(int layer, std::span<const float> x,
                 std::span<float> h) const;

  /// logits = gate_layer(h) per row; logits holds n_experts per row.
  void gate(int layer, std::span<const float> h,
            std::span<float> logits) const;

  /// Selects top_k experts from logits and renormalizes their scores.
  RouteDecision route(std::span<const float> logits) const;

  /// out = SwiGLU expert (w2(silu(w1 h) * (w3 h))) per row of h.
  void expert_forward(int layer, int expert, std::span<const float> h,
                      std::span<float> out) const;

  /// Runs every job on the span's hidden states `h` into `out` (d_model
  /// floats per slot), each expert once over all of its rows: ExpertFlow's
  /// token grouping on the functional plane.
  void run_experts(int layer, std::span<const float> h,
                   std::span<const ExpertJob> jobs,
                   std::span<float> out) const;

  /// Logits over the vocabulary from the final residual state, per row.
  void lm_logits(std::span<const float> x, std::span<float> logits) const;

  /// Runs one full official block (attention + exact MoE) over a span in
  /// place, returning each row's route. When `gate_logits_out` is non-null
  /// it receives the (biased) gate logits of every row, n_experts per row.
  std::vector<RouteDecision> official_block(
      int layer, std::span<float> x, std::span<const Segment> segments,
      std::vector<float>* gate_logits_out = nullptr) const;

  /// The span of one sequence at `pos`, which must equal kv.size().
  std::vector<RouteDecision> official_block(
      int layer, std::span<float> x, KvCache& kv, int pos,
      const GateBias& bias,
      std::vector<float>* gate_logits_out = nullptr) const;

 private:
  /// Rows in `size` floats of `width`-float rows; CheckError unless that
  /// is a whole number of at least one.
  static int rows_of(std::size_t size, int width);

  ModelConfig cfg_;
  ModelWeights weights_;
};

/// Exact greedy decoder: the paper's "Official" rows in Tables V/VI.
///
/// The batch calls run their sequences in lockstep: one span per layer
/// holds a segment of every sequence. `biases` and `observers` are either
/// empty (none) or hold one entry per sequence; each observer sees only its
/// own sequence's routing events. The single-sequence calls are batches of
/// one.
class OfficialDecoder {
 public:
  explicit OfficialDecoder(const FunctionalModel& model);

  /// The exact prefills of `prompts`, run together layer by layer over
  /// every prompt, each with room in its cache for `max_new_tokens` decode
  /// positions. Observers see the prompts' routing events, layer-major.
  std::vector<PrefillState> prefill_batch(
      std::span<const std::vector<int>> prompts, int max_new_tokens,
      std::span<const GateBias> biases = {},
      std::span<const RouteObserver> observers = {}) const;

  /// Greedily decodes `n_gen` tokens continuing every state, one lockstep
  /// step per position. Each bias must be its prefill's; observers see
  /// every decode routing event.
  std::vector<std::vector<int>> generate_batch(
      std::vector<PrefillState> states, int n_gen,
      std::span<const GateBias> biases = {},
      std::span<const RouteObserver> observers = {}) const;

  /// prefill_batch of one prompt.
  PrefillState prefill(std::span<const int> prompt, int max_new_tokens,
                       const GateBias& bias = nullptr,
                       const RouteObserver& observer = nullptr) const;

  /// generate_batch of one state (taken by value: pass a copy to continue
  /// one prefill several times).
  std::vector<int> generate(PrefillState state, int n_gen,
                            const GateBias& bias = nullptr,
                            const RouteObserver& observer = nullptr) const;

  /// Prefill `prompt` then greedily decode `n_gen` tokens. `bias` (optional)
  /// conditions the router; `observer` (optional) sees every routing event.
  std::vector<int> generate(std::span<const int> prompt, int n_gen,
                            const GateBias& bias = nullptr,
                            const RouteObserver& observer = nullptr) const;

 private:
  const FunctionalModel& model_;
};

}  // namespace daop::model

#include "core/daop_executor.hpp"

#include <algorithm>
#include <optional>

#include "common/check.hpp"
#include "core/allocation.hpp"
#include "tensor/ops.hpp"

namespace daop::core {
namespace {

int best_gpu_expert(const cache::Placement& placement, int layer,
                    std::span<const float> scores,
                    const std::vector<int>& exclude) {
  int best = -1;
  float best_score = 0.0F;
  for (int e = 0; e < placement.n_experts(); ++e) {
    if (!placement.on_gpu(layer, e)) continue;
    if (std::find(exclude.begin(), exclude.end(), e) != exclude.end()) continue;
    const float s = scores[static_cast<std::size_t>(e)];
    if (best < 0 || s > best_score) {
      best = e;
      best_score = s;
    }
  }
  return best;
}

/// Pre-calculation plans of a span's rows, carried from layer l to l+1.
struct SpanPlan {
  bool active = false;          ///< layer l+1 is predicted (same every row)
  std::vector<int> precalc;     ///< [row][expert]: slot in `outputs`, or -1
  std::vector<int> substitute;  ///< [row][expert]: GPU substitute, or -1
  std::vector<float> outputs;   ///< pre-calculated outputs, d_model per slot

  void reset(int n, int n_experts) {
    active = false;
    precalc.assign(static_cast<std::size_t>(n) * n_experts, -1);
    substitute.assign(precalc.size(), -1);
  }
};

/// Expert runs of one layer over a span, split by how they execute.
struct Jobs {
  std::vector<model::ExpertJob> exact;      ///< fp weights, grouped by expert
  std::vector<model::ExpertJob> quantized;  ///< cpu_quant_bits copies
  int slots = 0;

  void clear() {
    exact.clear();
    quantized.clear();
    slots = 0;
  }
  /// Adds expert `e` on `row`, quantized when it runs on the CPU under
  /// the quantization extension; returns its output slot.
  int add(int e, int row, bool quantize) {
    (quantize ? quantized : exact).push_back({e, row, slots});
    return slots++;
  }
};

/// One DAOP decode continuing a prefill. It owns the sequence's cache,
/// placement, re-allocation window and run counters, and runs spans of
/// consumed tokens layer by layer: per row it keeps the plan, the exec
/// decisions and the order of the residual updates of a step-by-step
/// decode, and it runs each expert once over the rows that need it. A copy
/// continues the same sequence independently.
class SpanDecoder {
 public:
  /// Applies Algorithm 1 to `initial` from the prefill's routing counts.
  SpanDecoder(const model::FunctionalModel& model, const DaopConfig& config,
              const model::QuantizedExpertSet* quantized,
              const model::GateBias& bias, model::PrefillState prefill,
              const cache::Placement& initial)
      : model_(model),
        cfg_(model.config()),
        config_(config),
        quantized_(quantized),
        bias_(bias),
        kv_(std::move(prefill.kv)),
        placement_(initial),
        window_(static_cast<std::size_t>(cfg_.n_layers),
                std::vector<double>(static_cast<std::size_t>(cfg_.n_experts),
                                    0.0)) {
    DAOP_CHECK_EQ(initial.n_layers(), cfg_.n_layers);
    DAOP_CHECK_EQ(initial.n_experts(), cfg_.n_experts);
    if (config_.enable_seq_allocation) {
      for (int l = 0; l < cfg_.n_layers; ++l) {
        const auto swaps = sequence_specific_swaps(
            prefill.counts[static_cast<std::size_t>(l)], placement_, l,
            config_.swap_in_out);
        apply_swaps(placement_, l, swaps);
        stats.prefill_swaps += static_cast<long long>(swaps.size());
      }
    }
  }

  /// Runs decode steps [g, end), appending their tokens to `out`. Step g
  /// consumes out[g] (free-running, one step at a time) or, when `teacher`
  /// is non-empty, teacher[g] (teacher-forced, in spans cut where decode
  /// re-allocation moves the placement).
  void decode(std::vector<int>& out, int g, int end,
              std::span<const int> teacher) {
    const int interval = config_.decode_realloc_interval;
    while (g < end) {
      int stop = teacher.empty() ? g + 1 : end;
      if (interval > 0) stop = std::min(stop, (g / interval + 1) * interval);
      if (teacher.empty()) {
        const int token = out[static_cast<std::size_t>(g)];
        step(std::span<const int>(&token, 1), out);
      } else {
        step(teacher.subspan(static_cast<std::size_t>(g),
                             static_cast<std::size_t>(stop - g)),
             out);
      }
      // Decode re-allocation (extension): let the cache follow drift.
      if (interval > 0 && stop % interval == 0) reallocate();
      g = stop;
    }
  }

  FunctionalRunStats stats;

 private:
  /// Decodes the positions that consume `tokens`, appending each row's
  /// argmax next token to `out`.
  void step(std::span<const int> tokens, std::vector<int>& out);

  /// Algorithm 1 over the trailing window, which then restarts.
  void reallocate() {
    for (int l = 0; l < cfg_.n_layers; ++l) {
      auto& w = window_[static_cast<std::size_t>(l)];
      const auto swaps =
          sequence_specific_swaps(w, placement_, l, config_.swap_in_out);
      apply_swaps(placement_, l, swaps);
      stats.decode_swaps += static_cast<long long>(swaps.size());
      std::fill(w.begin(), w.end(), 0.0);
    }
  }

  /// Runs `jobs` of `layer` on the span's hidden states into `out`.
  void run(int layer, const Jobs& jobs, std::vector<float>& out) {
    const auto D = static_cast<std::size_t>(cfg_.d_model);
    out.resize(static_cast<std::size_t>(jobs.slots) * D);
    model_.run_experts(layer, h_, jobs.exact, out);
    for (const model::ExpertJob& j : jobs.quantized) {
      quantized_->forward(layer, j.expert,
                          std::span<const float>(h_).subspan(j.row * D, D),
                          std::span<float>(out).subspan(j.slot * D, D));
      ++stats.quantized_execs;
    }
  }

  /// Decides row `t`'s executed experts at `layer` from its gate logits and
  /// the plan made at the previous layer; queues the runs.
  void decide(int layer, int t, std::span<const float> logits);
  /// Plans row `t`'s pre-calculation for layer `nl` from `pred_logits`.
  void plan(int nl, int t, std::span<const float> pred_logits);

  /// What one selected expert slot of a row executes.
  struct Exec {
    int expert = 0;  ///< id used for gate weighting
    int slot = 0;    ///< its output: in cur_.outputs when pre-calculated,
                     ///< else in exec_out_
    bool precalculated = false;
  };

  const model::FunctionalModel& model_;
  const model::ModelConfig& cfg_;
  const DaopConfig& config_;
  const model::QuantizedExpertSet* quantized_;
  const model::GateBias& bias_;
  model::KvCache kv_;
  cache::Placement placement_;
  /// Decode re-allocation extension: trailing-window activation counts.
  std::vector<std::vector<double>> window_;

  // Span buffers, reused across steps.
  std::vector<float> x_, h_, gate_logits_, pred_logits_, vocab_logits_;
  std::vector<float> exec_out_, weights_;
  std::vector<Exec> execs_;      ///< [row][top_k]
  std::vector<int> n_execs_;     ///< per row
  Jobs jobs_, pre_jobs_;
  SpanPlan cur_, next_;
};

void SpanDecoder::decide(int layer, int t, std::span<const float> logits) {
  const int K = cfg_.top_k;
  model::RouteDecision sel = model_.route(logits);
  // Adaptive expert skipping (extension): confident tokens keep only their
  // top-1 expert.
  if (config_.skip_top1_margin > 0.0 && sel.experts.size() >= 2 &&
      sel.weights[0] >= config_.skip_top1_margin) {
    stats.skipped_experts += static_cast<long long>(sel.experts.size()) - 1;
    sel.experts.erase(sel.experts.begin() + 1, sel.experts.end());
    sel.weights.assign(1, 1.0F);
  }

  Exec* execs = execs_.data() + static_cast<std::size_t>(t) * K;
  int n = 0;
  // Runs expert e on this row's exact input; on the CPU it is quantized
  // under the cpu_quant_bits extension.
  const auto run = [&](int e, bool on_cpu) {
    execs[n++] = {e, jobs_.add(e, t, on_cpu && quantized_ != nullptr), false};
  };
  const auto row = static_cast<std::size_t>(t) * cfg_.n_experts;
  std::vector<int> used = sel.experts;
  for (int e : sel.experts) {
    window_[static_cast<std::size_t>(layer)][static_cast<std::size_t>(e)] +=
        1.0;
    ++stats.decode_expert_uses;
    const auto ei = row + static_cast<std::size_t>(e);
    if (placement_.on_gpu(layer, e) || !cur_.active) {
      // GPU-resident, or an early/in-place layer: true expert, true input.
      // In-place CPU execution is exact in fp, quantized only under the
      // cpu_quant_bits extension.
      ++stats.exact_execs;
      run(e, !placement_.on_gpu(layer, e));
    } else if (cur_.precalc[ei] >= 0) {
      ++stats.stale_input_execs;
      execs[n++] = {e, cur_.precalc[ei], true};
    } else if (cur_.substitute[ei] >= 0) {
      ++stats.degradations;
      used.push_back(cur_.substitute[ei]);
      run(cur_.substitute[ei], false);
    } else {
      // Misprediction on a CPU-resident expert.
      int fb = -1;
      if (config_.mispredict_policy == MispredictPolicy::GracefulFallback) {
        fb = best_gpu_expert(placement_, layer, logits, used);
      }
      if (fb >= 0) {
        ++stats.mispredict_fallbacks;
        used.push_back(fb);
        run(fb, false);
      } else {
        ++stats.mispredict_recomputes;
        run(e, true);
      }
    }
  }
  n_execs_[static_cast<std::size_t>(t)] = n;

  // Renormalize gate weights over the experts actually executed.
  int ids[kMaxTopK];
  for (int i = 0; i < n; ++i) ids[i] = execs[i].expert;
  const auto count = static_cast<std::size_t>(n);
  softmax_subset(logits, std::span<const int>(ids, count),
                 std::span<float>(weights_).subspan(
                     static_cast<std::size_t>(t) * K, count));
}

void SpanDecoder::plan(int nl, int t, std::span<const float> pred_logits) {
  model::RouteDecision pred = model_.route(pred_logits);
  // Under adaptive skipping, confident predictions only need their top-1
  // expert pre-calculated.
  if (config_.skip_top1_margin > 0.0 && pred.experts.size() >= 2 &&
      pred.weights[0] >= config_.skip_top1_margin) {
    pred.experts.erase(pred.experts.begin() + 1, pred.experts.end());
  }

  std::vector<int> pred_cpu;
  for (int e : pred.experts) {
    if (!placement_.on_gpu(nl, e)) pred_cpu.push_back(e);
  }
  const auto row = static_cast<std::size_t>(t) * cfg_.n_experts;
  if (config_.enable_degradation &&
      static_cast<int>(pred_cpu.size()) == cfg_.top_k && cfg_.top_k >= 2) {
    const int drop = pred_cpu.back();
    const int sub =
        best_gpu_expert(placement_, nl, pred_logits, pred.experts);
    if (sub >= 0) {
      next_.substitute[row + static_cast<std::size_t>(drop)] = sub;
      pred_cpu.pop_back();
    }
  }
  // Stale input: this layer's non-MoE hidden state stands in for the next
  // layer's (residual-stream approximation, §IV-C); pre-calculations run
  // on the CPU.
  for (int e : pred_cpu) {
    next_.precalc[row + static_cast<std::size_t>(e)] =
        pre_jobs_.add(e, t, quantized_ != nullptr);
  }
}

void SpanDecoder::step(std::span<const int> tokens, std::vector<int>& out) {
  const int n = static_cast<int>(tokens.size());
  const int pos = kv_.size();
  const int L = cfg_.n_layers;
  const int E = cfg_.n_experts;
  const auto D = static_cast<std::size_t>(cfg_.d_model);
  const auto K = static_cast<std::size_t>(cfg_.top_k);
  const auto rows = static_cast<std::size_t>(n);

  x_.resize(rows * D);
  h_.resize(rows * D);
  gate_logits_.resize(rows * static_cast<std::size_t>(E));
  pred_logits_.resize(gate_logits_.size());
  execs_.resize(rows * K);
  weights_.resize(rows * K);
  n_execs_.resize(rows);
  for (int t = 0; t < n; ++t) {
    model_.embed(tokens[static_cast<std::size_t>(t)],
                 std::span<float>(x_).subspan(t * D, D));
  }

  cur_.reset(n, E);
  for (int l = 0; l < L; ++l) {
    model_.attention_block(l, x_, kv_, pos);
    model_.ffn_input(l, x_, h_);
    model_.gate(l, h_, gate_logits_);
    jobs_.clear();
    for (int t = 0; t < n; ++t) {
      const auto logits = std::span<float>(gate_logits_).subspan(t * E, E);
      if (bias_) bias_(l, pos + t, logits);
      decide(l, t, logits);
    }
    run(l, jobs_, exec_out_);
    for (int t = 0; t < n; ++t) {
      const auto xt = std::span<float>(x_).subspan(t * D, D);
      for (int i = 0; i < n_execs_[static_cast<std::size_t>(t)]; ++i) {
        const std::size_t k = t * K + static_cast<std::size_t>(i);
        const Exec& ex = execs_[k];
        const std::vector<float>& src =
            ex.precalculated ? cur_.outputs : exec_out_;
        axpy_inplace(xt, weights_[k],
                     std::span<const float>(src).subspan(ex.slot * D, D));
      }
    }

    // Plan pre-calculation for layer l+1 from this layer's hidden states.
    next_.reset(n, E);
    pre_jobs_.clear();
    const int nl = l + 1;
    if (config_.enable_precalc && nl < L && nl >= config_.min_predict_layer) {
      next_.active = true;
      model_.gate(nl, h_, pred_logits_);
      for (int t = 0; t < n; ++t) {
        const auto logits = std::span<float>(pred_logits_).subspan(t * E, E);
        if (bias_) bias_(nl, pos + t, logits);
        plan(nl, t, logits);
      }
      run(nl, pre_jobs_, next_.outputs);
    }
    std::swap(cur_, next_);
  }
  kv_.advance(n);

  const auto V = static_cast<std::size_t>(cfg_.vocab_size);
  vocab_logits_.resize(rows * V);
  model_.lm_logits(x_, vocab_logits_);
  for (int t = 0; t < n; ++t) {
    out.push_back(
        argmax(std::span<const float>(vocab_logits_).subspan(t * V, V)));
  }
}

}  // namespace

FunctionalRunStats& FunctionalRunStats::operator+=(
    const FunctionalRunStats& o) {
  decode_expert_uses += o.decode_expert_uses;
  exact_execs += o.exact_execs;
  stale_input_execs += o.stale_input_execs;
  degradations += o.degradations;
  mispredict_fallbacks += o.mispredict_fallbacks;
  mispredict_recomputes += o.mispredict_recomputes;
  prefill_swaps += o.prefill_swaps;
  decode_swaps += o.decode_swaps;
  quantized_execs += o.quantized_execs;
  skipped_experts += o.skipped_experts;
  return *this;
}

DaopFunctionalExecutor::DaopFunctionalExecutor(
    const model::FunctionalModel& model, DaopConfig config)
    : model_(model), config_(config) {
  validate_config(config_);
  if (config_.cpu_quant_bits > 0) {
    quantized_ = std::make_unique<model::QuantizedExpertSet>(
        model_, QuantSpec{config_.cpu_quant_bits, config_.cpu_quant_group});
  }
}

std::vector<int> DaopFunctionalExecutor::generate(
    model::PrefillState prefill, int n_gen, const cache::Placement& initial,
    const model::GateBias& bias, FunctionalRunStats* stats,
    std::span<const int> teacher) const {
  DAOP_CHECK_GE(n_gen, 0);
  DAOP_CHECK(teacher.empty() ||
             static_cast<int>(teacher.size()) >= n_gen);
  const int first_token = prefill.first_token;
  SpanDecoder decoder(model_, config_, quantized_.get(), bias,
                      std::move(prefill), initial);
  std::vector<int> out;
  if (n_gen > 0) {
    out.reserve(static_cast<std::size_t>(n_gen));
    out.push_back(first_token);  // prefill-exact
    // Step g predicts out[g + 1]; the last token needs no step of its own.
    decoder.decode(out, 0, n_gen - 1, teacher);
  }
  if (stats) *stats += decoder.stats;
  return out;
}

DecodePair DaopFunctionalExecutor::generate_pair(
    model::PrefillState prefill, int n_gen, const cache::Placement& initial,
    const model::GateBias& bias, std::span<const int> teacher,
    FunctionalRunStats* free_stats, FunctionalRunStats* forced_stats) const {
  DAOP_CHECK_GE(n_gen, 0);
  DAOP_CHECK_GE(static_cast<int>(teacher.size()), n_gen);
  const int first_token = prefill.first_token;
  SpanDecoder decoder(model_, config_, quantized_.get(), bias,
                      std::move(prefill), initial);
  DecodePair pair;
  std::optional<SpanDecoder> forced;
  if (n_gen > 0) {
    pair.free_run.reserve(static_cast<std::size_t>(n_gen));
    pair.free_run.push_back(first_token);
    for (int g = 0; g < n_gen - 1; ++g) {
      if (!forced && pair.free_run[static_cast<std::size_t>(g)] !=
                         teacher[static_cast<std::size_t>(g)]) {
        // The first step whose consumed tokens differ: the teacher-forced
        // decode continues from here on its own copy.
        forced.emplace(decoder);
        pair.forced.assign(pair.free_run.begin(), pair.free_run.end());
        forced->decode(pair.forced, g, n_gen - 1, teacher);
      }
      decoder.decode(pair.free_run, g, g + 1, {});
    }
  }
  if (!forced) pair.forced = pair.free_run;
  if (free_stats) *free_stats += decoder.stats;
  if (forced_stats) *forced_stats += forced ? forced->stats : decoder.stats;
  return pair;
}

std::vector<int> DaopFunctionalExecutor::generate(
    std::span<const int> prompt, int n_gen, const cache::Placement& initial,
    const model::GateBias& bias, FunctionalRunStats* stats,
    std::span<const int> teacher) const {
  return generate(model::OfficialDecoder(model_).prefill(prompt, n_gen, bias),
                  n_gen, initial, bias, stats, teacher);
}

}  // namespace daop::core

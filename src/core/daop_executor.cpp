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

/// One DAOP decode continuing a prefill: the sequence's cache, placement,
/// decode re-allocation window and run counters. A copy continues the same
/// sequence independently.
struct DecodeState {
  /// Applies Algorithm 1 to `initial` from the prefill's routing counts.
  DecodeState(const model::ModelConfig& cfg, const DaopConfig& config,
              const model::GateBias& bias, model::PrefillState prefill,
              const cache::Placement& initial)
      : bias(&bias),
        kv(std::move(prefill.kv)),
        placement(initial),
        window(static_cast<std::size_t>(cfg.n_layers),
               std::vector<double>(static_cast<std::size_t>(cfg.n_experts),
                                   0.0)) {
    DAOP_CHECK_EQ(initial.n_layers(), cfg.n_layers);
    DAOP_CHECK_EQ(initial.n_experts(), cfg.n_experts);
    if (config.enable_seq_allocation) {
      for (int l = 0; l < cfg.n_layers; ++l) {
        const auto swaps = sequence_specific_swaps(
            prefill.counts[static_cast<std::size_t>(l)], placement, l,
            config.swap_in_out);
        apply_swaps(placement, l, swaps);
        stats.prefill_swaps += static_cast<long long>(swaps.size());
      }
    }
  }

  /// Algorithm 1 over the trailing window, which then restarts.
  void reallocate(const DaopConfig& config) {
    for (int l = 0; l < placement.n_layers(); ++l) {
      auto& w = window[static_cast<std::size_t>(l)];
      const auto swaps =
          sequence_specific_swaps(w, placement, l, config.swap_in_out);
      apply_swaps(placement, l, swaps);
      stats.decode_swaps += static_cast<long long>(swaps.size());
      std::fill(w.begin(), w.end(), 0.0);
    }
  }

  const model::GateBias* bias;  ///< the dataset conditioner
  model::KvCache kv;
  cache::Placement placement;
  /// Decode re-allocation extension: trailing-window activation counts.
  std::vector<std::vector<double>> window;
  FunctionalRunStats stats;
};

/// A decode of a lockstep batch: its state, its tokens so far, and the
/// teacher it consumes (empty: its own tokens, free-running).
struct Member {
  DecodeState* state = nullptr;
  std::vector<int>* out = nullptr;
  std::span<const int> teacher;
};

/// Steps a batch of decodes together. Each step's span holds a segment of
/// every member: the projections, the gate, each expert's run and the LM
/// head run once over all rows, while per row it keeps the plan, the exec
/// decisions and the order of the residual updates of a single-sequence
/// step-by-step decode, against its own sequence's placement and counters.
class LockstepDecoder {
 public:
  LockstepDecoder(const model::FunctionalModel& model,
                  const DaopConfig& config,
                  const model::QuantizedExpertSet* quantized)
      : model_(model),
        cfg_(model.config()),
        config_(config),
        quantized_(quantized) {}

  /// Runs decode steps [g, end) of every member, appending their tokens.
  /// Step g consumes out[g] (free-running, one step at a time) or
  /// teacher[g] (teacher-forced, in spans cut where decode re-allocation
  /// moves the placement); the members share one of the two modes.
  void decode(std::span<const Member> members, int g, int end) {
    if (members.empty()) return;
    const bool forced = !members.front().teacher.empty();
    for (const Member& m : members) DAOP_CHECK_EQ(m.teacher.empty(), !forced);
    const int interval = config_.decode_realloc_interval;
    std::vector<int> free_tokens(members.size());
    std::vector<std::span<const int>> tokens(members.size());
    while (g < end) {
      int stop = forced ? end : g + 1;
      if (interval > 0) stop = std::min(stop, (g / interval + 1) * interval);
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (forced) {
          tokens[i] = members[i].teacher.subspan(
              static_cast<std::size_t>(g), static_cast<std::size_t>(stop - g));
        } else {
          free_tokens[i] = (*members[i].out)[static_cast<std::size_t>(g)];
          tokens[i] = std::span<const int>(&free_tokens[i], 1);
        }
      }
      step(members, tokens);
      // Decode re-allocation (extension): let the cache follow drift.
      if (interval > 0 && stop % interval == 0) {
        for (const Member& m : members) m.state->reallocate(config_);
      }
      g = stop;
    }
  }

 private:
  /// Decodes the positions where member i consumes tokens[i], appending
  /// each row's argmax next token to its out.
  void step(std::span<const Member> members,
            std::span<const std::span<const int>> tokens);

  /// Runs `jobs` of `layer` on the span's hidden states into `out`.
  void run(int layer, const Jobs& jobs, std::vector<float>& out) {
    const auto D = static_cast<std::size_t>(cfg_.d_model);
    out.resize(static_cast<std::size_t>(jobs.slots) * D);
    model_.run_experts(layer, h_, jobs.exact, out);
    for (const model::ExpertJob& j : jobs.quantized) {
      quantized_->forward(layer, j.expert,
                          std::span<const float>(h_).subspan(j.row * D, D),
                          std::span<float>(out).subspan(j.slot * D, D));
    }
  }

  /// Decides row `t`'s executed experts at `layer` from its gate logits and
  /// the plan made at the previous layer; queues the runs.
  void decide(DecodeState& seq, int layer, int t,
              std::span<const float> logits);
  /// Plans row `t`'s pre-calculation for layer `nl` from `pred_logits`.
  void plan(DecodeState& seq, int nl, int t,
            std::span<const float> pred_logits);

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

  // Span buffers, reused across steps; rows are indexed over the whole span.
  std::vector<model::Segment> segments_;
  std::vector<float> x_, h_, gate_logits_, pred_logits_, vocab_logits_;
  std::vector<float> exec_out_, weights_;
  std::vector<Exec> execs_;      ///< [row][top_k]
  std::vector<int> n_execs_;     ///< per row
  Jobs jobs_, pre_jobs_;
  SpanPlan cur_, next_;
};

void LockstepDecoder::decide(DecodeState& seq, int layer, int t,
                             std::span<const float> logits) {
  const int K = cfg_.top_k;
  FunctionalRunStats& stats = seq.stats;
  const cache::Placement& placement = seq.placement;
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
    const bool quantize = on_cpu && quantized_ != nullptr;
    if (quantize) ++stats.quantized_execs;
    execs[n++] = {e, jobs_.add(e, t, quantize), false};
  };
  const auto row = static_cast<std::size_t>(t) * cfg_.n_experts;
  std::vector<int> used = sel.experts;
  for (int e : sel.experts) {
    seq.window[static_cast<std::size_t>(layer)][static_cast<std::size_t>(e)] +=
        1.0;
    ++stats.decode_expert_uses;
    const auto ei = row + static_cast<std::size_t>(e);
    if (placement.on_gpu(layer, e) || !cur_.active) {
      // GPU-resident, or an early/in-place layer: true expert, true input.
      // In-place CPU execution is exact in fp, quantized only under the
      // cpu_quant_bits extension.
      ++stats.exact_execs;
      run(e, !placement.on_gpu(layer, e));
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
        fb = best_gpu_expert(placement, layer, logits, used);
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

void LockstepDecoder::plan(DecodeState& seq, int nl, int t,
                           std::span<const float> pred_logits) {
  const cache::Placement& placement = seq.placement;
  model::RouteDecision pred = model_.route(pred_logits);
  // Under adaptive skipping, confident predictions only need their top-1
  // expert pre-calculated.
  if (config_.skip_top1_margin > 0.0 && pred.experts.size() >= 2 &&
      pred.weights[0] >= config_.skip_top1_margin) {
    pred.experts.erase(pred.experts.begin() + 1, pred.experts.end());
  }

  std::vector<int> pred_cpu;
  for (int e : pred.experts) {
    if (!placement.on_gpu(nl, e)) pred_cpu.push_back(e);
  }
  const auto row = static_cast<std::size_t>(t) * cfg_.n_experts;
  if (config_.enable_degradation &&
      static_cast<int>(pred_cpu.size()) == cfg_.top_k && cfg_.top_k >= 2) {
    const int drop = pred_cpu.back();
    const int sub = best_gpu_expert(placement, nl, pred_logits, pred.experts);
    if (sub >= 0) {
      next_.substitute[row + static_cast<std::size_t>(drop)] = sub;
      pred_cpu.pop_back();
    }
  }
  // Stale input: this layer's non-MoE hidden state stands in for the next
  // layer's (residual-stream approximation, §IV-C); pre-calculations run
  // on the CPU.
  for (int e : pred_cpu) {
    if (quantized_ != nullptr) ++seq.stats.quantized_execs;
    next_.precalc[row + static_cast<std::size_t>(e)] =
        pre_jobs_.add(e, t, quantized_ != nullptr);
  }
}

void LockstepDecoder::step(std::span<const Member> members,
                           std::span<const std::span<const int>> tokens) {
  const int L = cfg_.n_layers;
  const int E = cfg_.n_experts;
  const auto D = static_cast<std::size_t>(cfg_.d_model);
  const auto K = static_cast<std::size_t>(cfg_.top_k);

  segments_.clear();
  std::size_t rows = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    segments_.push_back({&members[i].state->kv,
                         static_cast<int>(tokens[i].size()),
                         members[i].state->bias});
    rows += tokens[i].size();
  }
  const int n = static_cast<int>(rows);
  x_.resize(rows * D);
  h_.resize(rows * D);
  gate_logits_.resize(rows * static_cast<std::size_t>(E));
  pred_logits_.resize(gate_logits_.size());
  execs_.resize(rows * K);
  weights_.resize(rows * K);
  n_execs_.resize(rows);
  int t = 0;
  for (const std::span<const int> seg_tokens : tokens) {
    for (const int token : seg_tokens) {
      model_.embed(token, std::span<float>(x_).subspan(t++ * D, D));
    }
  }

  // Row by row over the span, with its decode and its position.
  const auto for_rows = [&](const auto& fn) {
    int row = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      DecodeState& seq = *members[i].state;
      const int pos = seq.kv.size();
      for (int r = 0; r < segments_[i].rows; ++r) fn(seq, row++, pos + r);
    }
  };
  const auto apply_bias = [](const DecodeState& seq, int layer, int pos,
                             std::span<float> logits) {
    if (seq.bias != nullptr && *seq.bias) (*seq.bias)(layer, pos, logits);
  };

  cur_.reset(n, E);
  for (int l = 0; l < L; ++l) {
    model_.attention_block(l, x_, segments_);
    model_.ffn_input(l, x_, h_);
    model_.gate(l, h_, gate_logits_);
    jobs_.clear();
    for_rows([&](DecodeState& seq, int row, int pos) {
      const auto logits = std::span<float>(gate_logits_).subspan(row * E, E);
      apply_bias(seq, l, pos, logits);
      decide(seq, l, row, logits);
    });
    run(l, jobs_, exec_out_);
    for (t = 0; t < n; ++t) {
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
      for_rows([&](DecodeState& seq, int row, int pos) {
        const auto logits = std::span<float>(pred_logits_).subspan(row * E, E);
        apply_bias(seq, nl, pos, logits);
        plan(seq, nl, row, logits);
      });
      run(nl, pre_jobs_, next_.outputs);
    }
    std::swap(cur_, next_);
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    members[i].state->kv.advance(segments_[i].rows);
  }

  const auto V = static_cast<std::size_t>(cfg_.vocab_size);
  vocab_logits_.resize(rows * V);
  model_.lm_logits(x_, vocab_logits_);
  t = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (int r = 0; r < segments_[i].rows; ++r, ++t) {
      members[i].out->push_back(
          argmax(std::span<const float>(vocab_logits_).subspan(t * V, V)));
    }
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
  DecodeState state(model_.config(), config_, bias, std::move(prefill),
                    initial);
  std::vector<int> out;
  if (n_gen > 0) {
    out.reserve(static_cast<std::size_t>(n_gen));
    out.push_back(first_token);  // prefill-exact
    // Step g predicts out[g + 1]; the last token needs no step of its own.
    const Member member{&state, &out, teacher};
    LockstepDecoder(model_, config_, quantized_.get())
        .decode(std::span<const Member>(&member, 1), 0, n_gen - 1);
  }
  if (stats) *stats += state.stats;
  return out;
}

std::vector<DecodePair> DaopFunctionalExecutor::generate_pairs(
    std::span<const PairRequest> requests, int n_gen) const {
  DAOP_CHECK_GE(n_gen, 0);
  const std::size_t n = requests.size();
  std::vector<DecodeState> free;
  free.reserve(n);
  std::vector<DecodePair> pairs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PairRequest& r = requests[i];
    DAOP_CHECK(r.prefill != nullptr && r.initial != nullptr &&
               r.bias != nullptr);
    DAOP_CHECK_GE(static_cast<int>(r.teacher.size()), n_gen);
    free.emplace_back(model_.config(), config_, *r.bias, *r.prefill,
                      *r.initial);
    if (n_gen > 0) {
      pairs[i].free_run.reserve(static_cast<std::size_t>(n_gen));
      pairs[i].free_run.push_back(r.prefill->first_token);
    }
  }
  // While a free-running decode's tokens equal its teacher's, its
  // teacher-forced decode consumes the same tokens from the same state; it
  // forks onto its own copy at the first difference and runs the rest of
  // its teacher at once, beside the other forks of that step.
  std::vector<std::optional<DecodeState>> forced(n);
  std::vector<Member> free_members;
  for (std::size_t i = 0; i < n; ++i) {
    free_members.push_back({&free[i], &pairs[i].free_run, {}});
  }
  LockstepDecoder decoder(model_, config_, quantized_.get());
  std::vector<Member> forks;
  for (int g = 0; g + 1 < n_gen; ++g) {
    forks.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto gi = static_cast<std::size_t>(g);
      if (forced[i] || pairs[i].free_run[gi] == requests[i].teacher[gi]) {
        continue;
      }
      forced[i].emplace(free[i]);
      pairs[i].forced = pairs[i].free_run;
      forks.push_back({&*forced[i], &pairs[i].forced, requests[i].teacher});
    }
    if (!forks.empty()) decoder.decode(forks, g, n_gen - 1);
    decoder.decode(free_members, g, g + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!forced[i]) pairs[i].forced = pairs[i].free_run;
    pairs[i].free_stats = free[i].stats;
    pairs[i].forced_stats = forced[i] ? forced[i]->stats : free[i].stats;
  }
  return pairs;
}

DecodePair DaopFunctionalExecutor::generate_pair(
    model::PrefillState prefill, int n_gen, const cache::Placement& initial,
    const model::GateBias& bias, std::span<const int> teacher,
    FunctionalRunStats* free_stats, FunctionalRunStats* forced_stats) const {
  const PairRequest request{&prefill, &initial, &bias, teacher};
  DecodePair pair =
      std::move(generate_pairs(std::span<const PairRequest>(&request, 1), n_gen)
                    .front());
  if (free_stats) *free_stats += pair.free_stats;
  if (forced_stats) *forced_stats += pair.forced_stats;
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

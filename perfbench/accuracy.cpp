// Workload `accuracy`: the paper's Table VI ECR sweep on the functional
// model.
//
// eval::evaluate_daop_accuracy on the reduced-scale fp32 Mixtral over a
// drift-heavy task (GSM8K-like) and a calm one (C4-like), at three ECRs,
// with one calibration reused across the sweep. It is the only workload
// that runs the model/tensor/core executor. Its reference decode does not
// depend on the ECR, so memoising it shows here and nowhere else.
#include <cstdio>
#include <string>

#include "eval/accuracy.hpp"
#include "data/gate_bias.hpp"
#include "harness.hpp"
#include "model/config.hpp"

namespace perfbench {
namespace {

namespace eval = daop::eval;

// Multiply-adds x 2 of one decoder position from the config's dimensions:
// attention projections, gate, top-k experts, attention over `context`
// cached positions, and the LM head.
double flops_per_position(const daop::model::ModelConfig& c, int context) {
  const double per_layer =
      2.0 * static_cast<double>(c.attn_params()) +
      2.0 * static_cast<double>(c.gate_params()) +
      2.0 * c.top_k * static_cast<double>(c.expert_params()) +
      4.0 * c.n_heads * c.head_dim * static_cast<double>(context);
  return c.n_layers * per_layer + 2.0 * c.vocab_size * c.d_model;
}

class Accuracy : public Workload {
 public:
  Accuracy(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void setup() override {
    model_ = std::make_unique<daop::model::FunctionalModel>(
        daop::model::tiny_mixtral(), 0xDA0FULL);
    tasks_ = {daop::data::gsm8k(), daop::data::c4()};
    ecrs_ = {1.0, 0.5, 0.25};
    opt_ = {};
    opt_.n_episodes = tiny_ ? 2 : 8;
    opt_.prompt_len = tiny_ ? 8 : 24;
    opt_.gen_len = tiny_ ? 8 : 32;
    opt_.seed = seed_;
    calib_seqs_ = tiny_ ? 2 : 8;
  }

  PassOutput pass(const PassOptions& po) override {
    PassOutput out;
    {
      const Scope s(po.tracer, "cache.calib");
      calib_ = eval::calibrate_functional_counts(
          *model_, daop::data::sharegpt_calibration(), calib_seqs_,
          opt_.prompt_len, opt_.gen_len, seed_ ^ 0x5ca1ab1eULL);
    }
    eval::AccuracyEvalOptions opt = opt_;
    opt.calib_counts = &calib_;
    results_.clear();
    long long uses = 0, mispredicts = 0;
    for (const auto& task : tasks_) {
      for (double ecr : ecrs_) {
        eval::AccuracyMetrics m;
        {
          const Scope s(po.tracer, "eval.accuracy");
          m = eval::evaluate_daop_accuracy(*model_, task,
                                           daop::core::DaopConfig{}, ecr, opt);
        }
        results_.push_back(m);
        Digest& d = out.digest;
        for (double v : {m.exact_match, m.token_agreement, m.rouge1, m.rouge2}) {
          d.add(v);
        }
        const auto& st = m.stats;
        for (long long v :
             {static_cast<long long>(m.episodes), st.decode_expert_uses,
              st.exact_execs, st.stale_input_execs, st.degradations,
              st.mispredict_fallbacks, st.mispredict_recomputes,
              st.prefill_swaps, st.decode_swaps, st.quantized_execs,
              st.skipped_experts}) {
          d.add(v);
        }
        out.check(m.episodes == opt.n_episodes, "every episode scored");
        if (ecr == 1.0) {
          // With every expert on the GPU, DAOP executes exactly.
          out.check(m.exact_match == 1.0 && m.token_agreement == 1.0,
                    "ECR 100% matches the official model exactly");
        }
        out.tokens += static_cast<double>(m.episodes) * opt.gen_len;
        out.layer["core.degradations"] += static_cast<double>(st.degradations);
        out.layer["core.stale_input_execs"] +=
            static_cast<double>(st.stale_input_execs);
        uses += st.decode_expert_uses;
        mispredicts += st.mispredict_fallbacks + st.mispredict_recomputes;

        char at[48];
        std::snprintf(at, sizeof(at), "@%s.ecr%g", task.name.c_str(), ecr);
        out.add_report(std::string("token_agreement") + at, m.token_agreement,
                       "ratio",
                       "teacher-forced, n=" +
                           std::to_string(m.episodes * opt.gen_len) +
                           " tokens");
        out.add_report(std::string("exact_match") + at, m.exact_match,
                       "ratio",
                       "n=" + std::to_string(m.episodes) + " episodes");
      }
    }
    out.layer["core.pred_hit_ratio"] =
        uses > 0 ? 1.0 - static_cast<double>(mispredicts) / uses : 0.0;
    return out;
  }

  void probe(Tracer* tracer, const PassOutput& /*reference*/,
             PassOutput& out) override {
    // Splits one ECR point (the smallest) into the reference decode and the
    // DAOP decodes, by calling the model and core layers directly. The
    // scores it recomputes must equal evaluate_daop_accuracy's.
    const auto& cfg = model_->config();
    const double ecr = ecrs_.back();
    const daop::cache::Placement initial = daop::cache::init_placement_calibrated(
        cfg.n_layers, cfg.n_experts, ecr, calib_);
    const daop::model::OfficialDecoder official(*model_);
    const daop::core::DaopFunctionalExecutor daop(*model_, {});
    double ref_s = 0.0, daop_s = 0.0, positions = 0.0, flops = 0.0;
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
      double exact = 0.0, agree = 0.0, total = 0.0;
      for (int e = 0; e < opt_.n_episodes; ++e) {
        const auto prompt = daop::data::make_prompt(
            cfg.vocab_size, opt_.prompt_len, opt_.seed, e);
        const auto bias = daop::data::make_gate_bias(
            tasks_[t], cfg.n_layers, cfg.n_experts, opt_.seed, e,
            opt_.prompt_len, opt_.prompt_len + opt_.gen_len + 1);
        double t0 = now_s();
        std::vector<int> ref;
        {
          const Scope s(tracer, "model.ref_decode", e);
          ref = official.generate(prompt, opt_.gen_len, bias);
        }
        ref_s += now_s() - t0;
        t0 = now_s();
        std::vector<int> cand, forced;
        {
          const Scope s(tracer, "core.daop_decode", e);
          cand = daop.generate(prompt, opt_.gen_len, initial, bias);
          forced = daop.generate(prompt, opt_.gen_len, initial, bias, nullptr,
                                 ref);
        }
        daop_s += now_s() - t0;
        const int total_pos = opt_.prompt_len + opt_.gen_len;
        for (int p = 0; p < total_pos; ++p) flops += flops_per_position(cfg, p + 1);
        positions += total_pos;
        if (ref == cand) exact += 1.0;
        for (std::size_t i = 0; i < ref.size() && i < forced.size(); ++i) {
          total += 1.0;
          if (ref[i] == forced[i]) agree += 1.0;
        }
      }
      const auto& m = results_[t * ecrs_.size() + ecrs_.size() - 1];
      out.check(exact / opt_.n_episodes == m.exact_match &&
                    agree / total == m.token_agreement,
                "layer probe reproduces evaluate_daop_accuracy's scores");
    }
    out.layer["model.ref_decode_s"] = ref_s;
    out.layer["core.daop_decode_s"] = daop_s;
    out.layer["model.decode_tokens"] = positions;
    out.layer["model.gflop"] = flops / 1e9;
    out.layer["model.gflop_per_s"] = ref_s > 0.0 ? flops / 1e9 / ref_s : 0.0;
  }

 private:
  std::uint64_t seed_;
  bool tiny_;
  std::unique_ptr<daop::model::FunctionalModel> model_;
  std::vector<daop::data::WorkloadSpec> tasks_;
  std::vector<double> ecrs_;
  eval::AccuracyEvalOptions opt_;
  int calib_seqs_ = 0;
  std::vector<std::vector<double>> calib_;
  std::vector<eval::AccuracyMetrics> results_;
};

}  // namespace

std::unique_ptr<Workload> make_accuracy(std::uint64_t seed, bool tiny) {
  return std::make_unique<Accuracy>(seed, tiny);
}

}  // namespace perfbench

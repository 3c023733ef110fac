// Cross-plane validation: the paper's observations ②/③ are statements
// about REAL model routing. The synthetic trace generator is calibrated to
// them, but the functional model must exhibit the same phenomena natively —
// gathered here from actual gate evaluations on real hidden states.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "data/gate_bias.hpp"
#include "eval/accuracy.hpp"
#include "eval/similarity.hpp"
#include "model/functional_model.hpp"
#include "tensor/ops.hpp"

namespace daop {
namespace {

class FunctionalObservations : public ::testing::Test {
 protected:
  FunctionalObservations() : model_(model::tiny_mixtral(), 23) {}

  model::FunctionalModel model_;
};

// Observation ②: prefill and decode activation matrices of one sequence are
// highly similar — measured on the functional model's own routing.
TEST_F(FunctionalObservations, PrefillDecodeSimilarityIsHigh) {
  const auto& cfg = model_.config();
  const int prompt_len = 32;
  const int gen_len = 32;
  double total = 0.0;
  const int n_seqs = 6;
  for (int s = 0; s < n_seqs; ++s) {
    const auto prompt = data::make_prompt(cfg.vocab_size, prompt_len, 77, s);
    const auto bias =
        data::make_gate_bias(data::c4(), cfg.n_layers, cfg.n_experts, 77, s,
                             prompt_len, prompt_len + gen_len + 1);
    std::vector<std::vector<double>> prefill(
        static_cast<std::size_t>(cfg.n_layers),
        std::vector<double>(static_cast<std::size_t>(cfg.n_experts), 0.0));
    auto decode = prefill;
    const model::RouteObserver obs =
        [&](int layer, int, bool is_prefill, std::span<const float>,
            const model::RouteDecision& d) {
          auto& m = is_prefill ? prefill : decode;
          for (int e : d.experts) {
            m[static_cast<std::size_t>(layer)][static_cast<std::size_t>(e)] += 1.0;
          }
        };
    model::OfficialDecoder(model_).generate(prompt, gen_len, bias, obs);
    total += eval::matrix_similarity(prefill, decode);
  }
  // The tiny model's real router under C4-like conditioning reproduces the
  // high-similarity regime (paper: ~90% at 46B scale).
  EXPECT_GT(total / n_seqs, 0.80);
}

// Observation ③: applying layer l+1's gate to layer l's hidden state
// predicts layer l+1's expert selection far above chance — the residual
// stream carries the signal, with no calibration knob involved.
TEST_F(FunctionalObservations, GateAheadPredictionBeatsChance) {
  const auto& cfg = model_.config();
  const int prompt_len = 16;
  const int total_pos = 48;

  long long correct = 0;
  long long total = 0;
  for (int s = 0; s < 4; ++s) {
    const auto prompt = data::make_prompt(cfg.vocab_size, prompt_len, 91, s);
    const auto bias = data::make_gate_bias(data::c4(), cfg.n_layers,
                                           cfg.n_experts, 91, s, prompt_len,
                                           total_pos + 1);
    model::KvCache kv(cfg, total_pos + 1);
    std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
    std::vector<float> h(static_cast<std::size_t>(cfg.d_model));
    std::vector<float> logits(static_cast<std::size_t>(cfg.n_experts));
    std::vector<float> vlogits(static_cast<std::size_t>(cfg.vocab_size));

    int token = prompt[0];
    for (int pos = 0; pos < total_pos; ++pos) {
      model_.embed(token, x);
      std::vector<TopK> predicted(
          static_cast<std::size_t>(cfg.n_layers));
      for (int l = 0; l < cfg.n_layers; ++l) {
        model_.attention_block(l, x, kv, pos);
        model_.ffn_input(l, x, h);

        // Gate-ahead prediction for the next layer from THIS hidden state.
        if (l + 1 < cfg.n_layers) {
          model_.gate(l + 1, h, logits);
          if (bias) bias(l + 1, pos, logits);
          predicted[static_cast<std::size_t>(l + 1)] =
              topk_indices(logits, cfg.top_k);
        }

        // True selection for this layer.
        model_.gate(l, h, logits);
        if (bias) bias(l, pos, logits);
        const auto truth = topk_indices(logits, cfg.top_k);
        if (pos >= prompt_len && l >= 1) {
          for (int e : truth) {
            ++total;
            const auto& pred = predicted[static_cast<std::size_t>(l)];
            if (std::find(pred.begin(), pred.end(), e) != pred.end()) {
              ++correct;
            }
          }
        }

        // Execute the layer exactly to keep the stream honest.
        std::vector<float> out(static_cast<std::size_t>(cfg.d_model));
        std::vector<float> w(truth.size());
        softmax_subset(logits, truth, w);
        for (std::size_t i = 0; i < truth.size(); ++i) {
          model_.expert_forward(l, truth[i], h, out);
          axpy_inplace(x, w[i], out);
        }
      }
      kv.advance();
      model_.lm_logits(x, vlogits);
      token = pos + 1 < prompt_len ? prompt[static_cast<std::size_t>(pos + 1)]
                                   : argmax(vlogits);
    }
  }
  const double accuracy = static_cast<double>(correct) / total;
  // Chance for top-2 of 8 is 0.25; the residual stream must do much better.
  EXPECT_GT(accuracy, 0.55);
  EXPECT_LE(accuracy, 1.0);
}

// The prompt's routing events arrive layer-major (the prefill runs layer by
// layer over the whole prompt), decode events token-major. The matrices
// above and the calibration counts are sums of +1.0 per routed expert, so
// they must not depend on that order: built here from one recorded event
// list replayed as received, reversed, token-major and layer-major.
TEST_F(FunctionalObservations, ActivationMatricesIgnoreEventOrder) {
  const auto& cfg = model_.config();
  const int prompt_len = 20;
  const int gen_len = 12;
  const std::uint64_t seed = 55;
  struct Event {
    int layer;
    int pos;
    bool is_prefill;
    std::vector<int> experts;
  };
  std::vector<Event> events;
  const model::RouteObserver record =
      [&](int layer, int pos, bool is_prefill, std::span<const float>,
          const model::RouteDecision& d) {
        events.push_back({layer, pos, is_prefill, d.experts});
      };
  const auto prompt = data::make_prompt(cfg.vocab_size, prompt_len, seed, 0);
  const auto bias =
      data::make_gate_bias(data::gsm8k(), cfg.n_layers, cfg.n_experts, seed, 0,
                           prompt_len, prompt_len + gen_len + 1);
  model::OfficialDecoder(model_).generate(prompt, gen_len, bias, record);
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>((prompt_len + gen_len) * cfg.n_layers));

  using Matrix = std::vector<std::vector<double>>;
  const auto build = [&](const std::vector<Event>& order) {
    std::pair<Matrix, Matrix> m{
        Matrix(static_cast<std::size_t>(cfg.n_layers),
               std::vector<double>(static_cast<std::size_t>(cfg.n_experts))),
        Matrix(static_cast<std::size_t>(cfg.n_layers),
               std::vector<double>(static_cast<std::size_t>(cfg.n_experts)))};
    for (const Event& ev : order) {
      auto& dst = ev.is_prefill ? m.first : m.second;
      for (int e : ev.experts) {
        dst[static_cast<std::size_t>(ev.layer)][static_cast<std::size_t>(e)] +=
            1.0;
      }
    }
    return m;
  };
  const auto received = build(events);
  std::vector<Event> reversed(events.rbegin(), events.rend());
  std::vector<Event> token_major = events;
  std::stable_sort(token_major.begin(), token_major.end(),
                   [](const Event& a, const Event& b) {
                     return std::tie(a.pos, a.layer) < std::tie(b.pos, b.layer);
                   });
  std::vector<Event> layer_major = events;
  std::stable_sort(layer_major.begin(), layer_major.end(),
                   [](const Event& a, const Event& b) {
                     return std::tie(a.layer, a.pos) < std::tie(b.layer, b.pos);
                   });
  EXPECT_NE(token_major[1].layer, events[1].layer);  // the orders differ
  for (const auto* order : {&reversed, &token_major, &layer_major}) {
    const auto m = build(*order);
    EXPECT_EQ(m, received);
    EXPECT_EQ(eval::matrix_similarity(m.first, m.second),
              eval::matrix_similarity(received.first, received.second));
  }
  // calibrate_functional_counts over this one sequence is its decode matrix.
  EXPECT_EQ(eval::calibrate_functional_counts(model_, data::gsm8k(), 1,
                                              prompt_len, gen_len, seed),
            received.second);
}

// NOTE: predicted[l] is filled at layer l-1 of the SAME position loop before
// layer l reads it — the two-layer pipeline the paper exploits.

}  // namespace
}  // namespace daop

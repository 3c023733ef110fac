#include "model/functional_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/check.hpp"
#include "model/config.hpp"
#include "tensor/ops.hpp"

namespace daop::model {
namespace {

class FunctionalModelTest : public ::testing::Test {
 protected:
  FunctionalModelTest() : model_(tiny_mixtral(), 42) {}
  FunctionalModel model_;
};

TEST_F(FunctionalModelTest, DeterministicAcrossInstances) {
  FunctionalModel other(tiny_mixtral(), 42);
  const OfficialDecoder a(model_);
  const OfficialDecoder b(other);
  const std::vector<int> prompt = {1, 2, 3, 4};
  EXPECT_EQ(a.generate(prompt, 8), b.generate(prompt, 8));
}

TEST_F(FunctionalModelTest, DifferentSeedsGiveDifferentModels) {
  FunctionalModel other(tiny_mixtral(), 43);
  const OfficialDecoder a(model_);
  const OfficialDecoder b(other);
  const std::vector<int> prompt = {1, 2, 3, 4};
  EXPECT_NE(a.generate(prompt, 8), b.generate(prompt, 8));
}

TEST_F(FunctionalModelTest, EmbedLooksUpRow) {
  const auto& cfg = model_.config();
  std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
  model_.embed(7, x);
  const auto row = model_.weights().embedding.row(7);
  for (int i = 0; i < cfg.d_model; ++i) {
    EXPECT_EQ(x[static_cast<std::size_t>(i)], row[static_cast<std::size_t>(i)]);
  }
}

TEST_F(FunctionalModelTest, RouteSelectsTopKWithNormalizedWeights) {
  std::vector<float> logits = {0.1F, 2.0F, -1.0F, 1.5F,
                               0.0F, 0.0F, 0.0F, 0.0F};
  const RouteDecision d = model_.route(logits);
  ASSERT_EQ(d.experts.size(), 2U);
  EXPECT_EQ(d.experts[0], 1);
  EXPECT_EQ(d.experts[1], 3);
  EXPECT_NEAR(d.weights[0] + d.weights[1], 1.0F, 1e-6F);
  EXPECT_GT(d.weights[0], d.weights[1]);
}

TEST_F(FunctionalModelTest, ExpertsDiffer) {
  const auto& cfg = model_.config();
  std::vector<float> h(static_cast<std::size_t>(cfg.d_model), 0.3F);
  std::vector<float> o0(static_cast<std::size_t>(cfg.d_model));
  std::vector<float> o1(static_cast<std::size_t>(cfg.d_model));
  model_.expert_forward(0, 0, h, o0);
  model_.expert_forward(0, 1, h, o1);
  EXPECT_NE(o0, o1);
}

TEST_F(FunctionalModelTest, AttentionIsCausalIncrementalConsistent) {
  // Processing [t0, t1] then decoding t2 must equal processing all three in
  // one sweep — the KV cache is exact.
  const auto& cfg = model_.config();
  const std::vector<int> tokens = {5, 9, 11};

  auto run_through_layer0 = [&](int upto) {
    KvCache kv(cfg, 8);
    std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
    std::vector<float> last;
    for (int p = 0; p <= upto; ++p) {
      model_.embed(tokens[static_cast<std::size_t>(p)], x);
      model_.attention_block(0, x, kv, p);
      kv.advance();
      last = x;
    }
    return last;
  };
  // Both paths end processing token 2 at position 2 with the same history.
  const auto full = run_through_layer0(2);
  const auto again = run_through_layer0(2);
  EXPECT_EQ(full, again);
}

TEST_F(FunctionalModelTest, ResidualStreamStaysBounded) {
  // The init scaling must keep activations finite through all layers.
  const auto& cfg = model_.config();
  KvCache kv(cfg, 4);
  std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
  model_.embed(3, x);
  for (int l = 0; l < cfg.n_layers; ++l) {
    model_.official_block(l, x, kv, 0, nullptr);
  }
  const float norm = l2_norm(x);
  EXPECT_TRUE(std::isfinite(norm));
  EXPECT_LT(norm, 1e4F);
  EXPECT_GT(norm, 1e-4F);
}

TEST_F(FunctionalModelTest, GateBiasChangesRouting) {
  const auto& cfg = model_.config();
  int biased_first_expert = -1;
  int plain_first_expert = -1;
  {
    KvCache kv(cfg, 2);
    std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
    model_.embed(3, x);
    const auto d = model_.official_block(0, x, kv, 0, nullptr);
    plain_first_expert = d.front().experts[0];
  }
  {
    KvCache kv(cfg, 2);
    std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
    model_.embed(3, x);
    const int forced = (plain_first_expert + 1) % cfg.n_experts;
    const GateBias bias = [&](int, int, std::span<float> logits) {
      logits[static_cast<std::size_t>(forced)] += 100.0F;
    };
    const auto d = model_.official_block(0, x, kv, 0, bias);
    biased_first_expert = d.front().experts[0];
    EXPECT_EQ(biased_first_expert, forced);
  }
}

TEST_F(FunctionalModelTest, OfficialBlockReportsGateLogits) {
  const auto& cfg = model_.config();
  KvCache kv(cfg, 2);
  std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
  model_.embed(1, x);
  std::vector<float> logits;
  const auto d = model_.official_block(0, x, kv, 0, nullptr, &logits);
  ASSERT_EQ(static_cast<int>(logits.size()), cfg.n_experts);
  const TopK top = topk_indices(logits, cfg.top_k);
  EXPECT_EQ(std::vector<int>(top.begin(), top.end()), d.front().experts);
}

TEST_F(FunctionalModelTest, GenerateProducesRequestedCount) {
  const OfficialDecoder dec(model_);
  const std::vector<int> prompt = {1, 2, 3};
  EXPECT_EQ(dec.generate(prompt, 0).size(), 0U);
  EXPECT_EQ(dec.generate(prompt, 5).size(), 5U);
  for (int t : dec.generate(prompt, 5)) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, model_.config().vocab_size);
  }
}

TEST_F(FunctionalModelTest, ObserverSeesAllRoutingEvents) {
  const OfficialDecoder dec(model_);
  const std::vector<int> prompt = {1, 2};
  int prefill_events = 0;
  int decode_events = 0;
  const RouteObserver obs = [&](int layer, int pos, bool is_prefill,
                                std::span<const float> logits,
                                const RouteDecision& d) {
    EXPECT_GE(layer, 0);
    EXPECT_LT(layer, model_.config().n_layers);
    EXPECT_EQ(static_cast<int>(logits.size()), model_.config().n_experts);
    EXPECT_EQ(static_cast<int>(d.experts.size()), model_.config().top_k);
    (void)pos;
    if (is_prefill) {
      ++prefill_events;
    } else {
      ++decode_events;
    }
  };
  dec.generate(prompt, 3, nullptr, obs);
  const int L = model_.config().n_layers;
  EXPECT_EQ(prefill_events, 2 * L);
  EXPECT_EQ(decode_events, 3 * L);
}

TEST_F(FunctionalModelTest, GreedyGenerationIsPrefixConsistent) {
  // Greedy decoding is deterministic: generating 4 tokens then 8 tokens
  // from the same prompt must agree on the shared prefix.
  const OfficialDecoder dec(model_);
  const std::vector<int> prompt = {7, 3, 1};
  const auto short_gen = dec.generate(prompt, 4);
  const auto long_gen = dec.generate(prompt, 8);
  ASSERT_EQ(long_gen.size(), 8U);
  for (std::size_t i = 0; i < short_gen.size(); ++i) {
    EXPECT_EQ(short_gen[i], long_gen[i]) << "position " << i;
  }
}

TEST_F(FunctionalModelTest, KvTruncateReplayMatches) {
  // Processing [a, b] then truncating to 1 and reprocessing b must give the
  // same post-attention state as the original pass over b.
  const auto& cfg = model_.config();
  KvCache kv(cfg, 4);
  std::vector<float> x1(static_cast<std::size_t>(cfg.d_model));
  std::vector<float> x2(static_cast<std::size_t>(cfg.d_model));

  model_.embed(3, x1);
  model_.attention_block(0, x1, kv, 0);
  kv.advance();
  model_.embed(9, x2);
  std::vector<float> x2_first = x2;
  model_.attention_block(0, x2_first, kv, 1);
  kv.advance();

  kv.truncate(1);
  std::vector<float> x2_replay = x2;
  model_.attention_block(0, x2_replay, kv, 1);
  EXPECT_EQ(x2_first, x2_replay);
}

TEST_F(FunctionalModelTest, TopKGreaterThanOneUsed) {
  // Ensure the MoE mixes at least two experts (weights strictly between 0,1).
  const auto& cfg = model_.config();
  KvCache kv(cfg, 2);
  std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
  model_.embed(9, x);
  const auto d = model_.official_block(0, x, kv, 0, nullptr).front();
  ASSERT_EQ(d.weights.size(), 2U);
  EXPECT_GT(d.weights[1], 0.0F);
  EXPECT_LT(d.weights[0], 1.0F);
}

std::vector<std::uint32_t> bits_of(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

TEST_F(FunctionalModelTest, SpanBlockMatchesSpanOfOneCallsBitForBit) {
  // Seven positions through every layer: layer-major as one span, and
  // token-major as seven spans of one row. Residuals, gate logits, routes
  // and the cache must agree bit for bit.
  const auto& cfg = model_.config();
  const auto D = static_cast<std::size_t>(cfg.d_model);
  const std::vector<int> tokens = {5, 9, 11, 200, 3, 3, 77};
  const int n = static_cast<int>(tokens.size());
  const GateBias bias = [](int layer, int pos, std::span<float> logits) {
    logits[static_cast<std::size_t>((layer + pos) % 8)] += 0.5F;
  };

  KvCache span_kv(cfg, n);
  std::vector<float> span_x(static_cast<std::size_t>(n) * D);
  for (int t = 0; t < n; ++t) {
    model_.embed(tokens[static_cast<std::size_t>(t)],
                 std::span<float>(span_x).subspan(t * D, D));
  }
  std::vector<std::vector<float>> span_logits;
  std::vector<std::vector<RouteDecision>> span_routes;
  for (int l = 0; l < cfg.n_layers; ++l) {
    std::vector<float> logits;
    span_routes.push_back(
        model_.official_block(l, span_x, span_kv, 0, bias, &logits));
    span_logits.push_back(logits);
  }
  span_kv.advance(n);

  KvCache step_kv(cfg, n);
  for (int t = 0; t < n; ++t) {
    std::vector<float> x(D);
    model_.embed(tokens[static_cast<std::size_t>(t)], x);
    for (int l = 0; l < cfg.n_layers; ++l) {
      std::vector<float> logits;
      const auto d = model_.official_block(l, x, step_kv, t, bias, &logits);
      const auto E = static_cast<std::size_t>(cfg.n_experts);
      const std::span<const float> layer_logits =
          span_logits[static_cast<std::size_t>(l)];
      EXPECT_EQ(bits_of(logits), bits_of(layer_logits.subspan(t * E, E)))
          << "layer " << l << " pos " << t;
      const RouteDecision& want =
          span_routes[static_cast<std::size_t>(l)][static_cast<std::size_t>(t)];
      EXPECT_EQ(d.front().experts, want.experts);
      EXPECT_EQ(bits_of(d.front().weights), bits_of(want.weights));
    }
    step_kv.advance();
    EXPECT_EQ(bits_of(x),
              bits_of(std::span<const float>(span_x).subspan(t * D, D)))
        << "pos " << t;
  }
  for (int l = 0; l < cfg.n_layers; ++l) {
    EXPECT_EQ(bits_of(step_kv.k_rows(l, n)), bits_of(span_kv.k_rows(l, n)));
    EXPECT_EQ(bits_of(step_kv.v_rows(l, n)), bits_of(span_kv.v_rows(l, n)));
  }
}

TEST_F(FunctionalModelTest, RunExpertsMatchesPerRowExpertForward) {
  const auto& cfg = model_.config();
  const auto D = static_cast<std::size_t>(cfg.d_model);
  const int rows = 5;
  std::vector<float> h(static_cast<std::size_t>(rows) * D);
  for (std::size_t i = 0; i < h.size(); ++i) {
    h[i] = std::sin(0.37F * static_cast<float>(i));
  }
  // Experts out of order, one row twice, one expert on three rows.
  const std::vector<ExpertJob> jobs = {
      {6, 0, 3}, {1, 4, 0}, {6, 2, 1}, {6, 4, 5}, {0, 0, 2}, {1, 3, 4}};
  std::vector<float> out(jobs.size() * D, -1.0F);
  model_.run_experts(2, h, jobs, out);
  for (const ExpertJob& j : jobs) {
    std::vector<float> want(D);
    model_.expert_forward(
        2, j.expert, std::span<const float>(h).subspan(j.row * D, D), want);
    EXPECT_EQ(bits_of(want),
              bits_of(std::span<const float>(out).subspan(j.slot * D, D)))
        << "expert " << j.expert << " row " << j.row;
  }
  const std::vector<ExpertJob> bad_row = {{0, rows, 0}};
  EXPECT_THROW(model_.run_experts(2, h, bad_row, out), CheckError);
  const std::vector<ExpertJob> bad_expert = {{cfg.n_experts, 0, 0}};
  EXPECT_THROW(model_.run_experts(2, h, bad_expert, out), CheckError);
}

TEST_F(FunctionalModelTest, PrefillStateContinuesLikeOneCall) {
  const OfficialDecoder dec(model_);
  const std::vector<int> prompt = {4, 8, 15, 16, 23, 42};
  const GateBias bias = [](int layer, int pos, std::span<float> logits) {
    logits[static_cast<std::size_t>((3 * layer + pos) % 8)] += 1.0F;
  };
  const PrefillState state = dec.prefill(prompt, 9, bias);
  EXPECT_EQ(state.kv.size(), 6);
  EXPECT_EQ(state.kv.max_seq(), 6 + 9);
  const auto whole = dec.generate(prompt, 9, bias);
  EXPECT_EQ(dec.generate(state, 9, bias), whole);
  EXPECT_EQ(dec.generate(state, 9, bias), whole);  // state left untouched
  EXPECT_EQ(whole.front(), state.first_token);
  EXPECT_EQ(dec.generate(state, 4, bias),
            std::vector<int>(whole.begin(), whole.begin() + 4));
  EXPECT_THROW(dec.generate(state, 11, bias), CheckError);  // no room

  // The prefill's counts are the prompt's routing events, counted.
  std::vector<std::vector<double>> counted(
      static_cast<std::size_t>(model_.config().n_layers),
      std::vector<double>(static_cast<std::size_t>(model_.config().n_experts)));
  const RouteObserver obs = [&](int layer, int, bool is_prefill,
                                std::span<const float>,
                                const RouteDecision& d) {
    if (!is_prefill) return;
    for (int e : d.experts) {
      counted[static_cast<std::size_t>(layer)][static_cast<std::size_t>(e)] +=
          1.0;
    }
  };
  EXPECT_EQ(dec.prefill(prompt, 0, bias, obs).counts, counted);
  EXPECT_EQ(state.counts, counted);
}

TEST(FunctionalModel, RejectsTopKAboveInlineCapacity) {
  ModelConfig cfg = tiny_mixtral();
  cfg.n_experts = 2 * kMaxTopK;
  cfg.top_k = kMaxTopK + 1;
  EXPECT_THROW(FunctionalModel(cfg, 1), CheckError);
}

}  // namespace
}  // namespace daop::model

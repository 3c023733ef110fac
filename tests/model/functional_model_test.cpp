#include "model/functional_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
    plain_first_expert = d.experts[0];
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
    biased_first_expert = d.experts[0];
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
  EXPECT_EQ(std::vector<int>(top.begin(), top.end()), d.experts);
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
  const auto d = model_.official_block(0, x, kv, 0, nullptr);
  ASSERT_EQ(d.weights.size(), 2U);
  EXPECT_GT(d.weights[1], 0.0F);
  EXPECT_LT(d.weights[0], 1.0F);
}

TEST(FunctionalModel, RejectsTopKAboveInlineCapacity) {
  ModelConfig cfg = tiny_mixtral();
  cfg.n_experts = 2 * kMaxTopK;
  cfg.top_k = kMaxTopK + 1;
  EXPECT_THROW(FunctionalModel(cfg, 1), CheckError);
}

}  // namespace
}  // namespace daop::model

#include "data/gate_bias.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "data/workload.hpp"

namespace daop::data {
namespace {

constexpr int kLayers = 8;
constexpr int kExperts = 8;
constexpr int kPrompt = 8;
constexpr int kMaxPos = 24;

model::GateBias make(std::uint64_t seed = 5, int seq = 0) {
  return make_gate_bias(c4(), kLayers, kExperts, seed, seq, kPrompt, kMaxPos);
}

std::vector<float> bias_at(const model::GateBias& b, int layer, int pos) {
  std::vector<float> logits(kExperts, 0.0F);
  b(layer, pos, logits);
  return logits;
}

TEST(GateBias, PureFunctionOfLayerAndPos) {
  const auto b = make();
  // Query out of order; results must not depend on call order.
  const auto v1 = bias_at(b, 3, 10);
  bias_at(b, 0, 0);
  bias_at(b, 7, 23);
  const auto v2 = bias_at(b, 3, 10);
  EXPECT_EQ(v1, v2);
}

TEST(GateBias, ReverseCallOrderGivesIdenticalLogits) {
  // The span paths evaluate the bias layer-major and the gate-ahead
  // prediction out of order, so a closure must give the same logits in any
  // call order: here every (layer, pos) forwards, then in reverse.
  const auto forwards = make(11, 3);
  const auto backwards = make(11, 3);
  std::vector<std::vector<float>> fwd;
  for (int l = 0; l < kLayers; ++l) {
    for (int pos = 0; pos < kMaxPos; ++pos) {
      std::vector<float> logits(kExperts, 0.25F * static_cast<float>(l - pos));
      forwards(l, pos, logits);
      fwd.push_back(logits);
    }
  }
  for (int l = kLayers - 1; l >= 0; --l) {
    for (int pos = kMaxPos - 1; pos >= 0; --pos) {
      std::vector<float> logits(kExperts, 0.25F * static_cast<float>(l - pos));
      backwards(l, pos, logits);
      EXPECT_EQ(logits, fwd[static_cast<std::size_t>(l * kMaxPos + pos)])
          << "layer " << l << " pos " << pos;
      // The forward closure, called again after all of its other calls.
      std::vector<float> again(kExperts, 0.25F * static_cast<float>(l - pos));
      forwards(l, pos, again);
      EXPECT_EQ(again, logits);
    }
  }
}

TEST(GateBias, DeterministicAcrossConstructions) {
  const auto a = make(5, 2);
  const auto b = make(5, 2);
  EXPECT_EQ(bias_at(a, 4, 12), bias_at(b, 4, 12));
}

TEST(GateBias, SequencesDiffer) {
  const auto a = make(5, 0);
  const auto b = make(5, 1);
  EXPECT_NE(bias_at(a, 0, 0), bias_at(b, 0, 0));
}

TEST(GateBias, AddsRatherThanOverwrites) {
  const auto b = make();
  std::vector<float> logits(kExperts, 1.0F);
  b(0, 0, logits);
  const auto pure = bias_at(b, 0, 0);
  for (int e = 0; e < kExperts; ++e) {
    EXPECT_NEAR(logits[static_cast<std::size_t>(e)],
                1.0F + pure[static_cast<std::size_t>(e)], 1e-6F);
  }
}

TEST(GateBias, PrefillPositionsShareTheLayerField) {
  const auto b = make();
  EXPECT_EQ(bias_at(b, 2, 0), bias_at(b, 2, kPrompt - 1));
}

TEST(GateBias, DecodeDiffersFromPrefill) {
  const auto b = make();
  EXPECT_NE(bias_at(b, 2, 0), bias_at(b, 2, kPrompt));
}

TEST(GateBias, DecodeDriftEvolvesOverPositions) {
  WorkloadSpec drifty = gsm8k();
  const auto b = make_gate_bias(drifty, kLayers, kExperts, 5, 0, kPrompt,
                                kMaxPos);
  EXPECT_NE(bias_at(b, 2, kPrompt), bias_at(b, 2, kMaxPos - 1));
}

TEST(GateBias, BoundsChecked) {
  const auto b = make();
  std::vector<float> logits(kExperts, 0.0F);
  EXPECT_THROW(b(kLayers, 0, logits), CheckError);
  EXPECT_THROW(b(0, kMaxPos, logits), CheckError);
  std::vector<float> wrong(kExperts + 1, 0.0F);
  EXPECT_THROW(b(0, 0, wrong), CheckError);
}

TEST(MakePrompt, DeterministicAndInRange) {
  const auto a = make_prompt(256, 16, 9, 3);
  const auto b = make_prompt(256, 16, 9, 3);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 16U);
  for (int t : a) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 256);
  }
  EXPECT_NE(a, make_prompt(256, 16, 9, 4));
}

}  // namespace
}  // namespace daop::data

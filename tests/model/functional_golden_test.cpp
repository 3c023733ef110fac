// Bit-exact golden for the functional plane: for tiny_mixtral and tiny_phi
// on two seeds it pins the tokens the official decoder generates, the
// tokens DaopFunctionalExecutor generates free-running and teacher-forced
// at ECR 25%, and an FNV-1a hash over the bits of every gate logit and
// lm-head logit along the official decode. Any change to kernel summation
// order, weight initialisation or executor numerics fails this test.
//
// Regenerate (only after an INTENTIONAL numerics change) with:
//   DAOP_UPDATE_GOLDENS=1 ./functional_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cache/placement.hpp"
#include "core/daop_executor.hpp"
#include "data/gate_bias.hpp"
#include "eval/accuracy.hpp"
#include "model/config.hpp"
#include "model/functional_model.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::model {
namespace {

constexpr int kPromptLen = 12;
constexpr int kGenLen = 12;
constexpr double kEcr = 0.25;

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::span<const float> v) {
    for (float f : v) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &f, sizeof(bits));
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xFFU;
        h *= 1099511628211ULL;
      }
    }
  }
};

std::string join(const std::vector<int>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(v[i]);
  }
  return s;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string snapshot(const ModelConfig& cfg, std::uint64_t seed) {
  const FunctionalModel fm(cfg, seed);
  const auto prompt = data::make_prompt(cfg.vocab_size, kPromptLen, seed, 0);
  const auto bias =
      data::make_gate_bias(data::gsm8k(), cfg.n_layers, cfg.n_experts, seed,
                           0, kPromptLen, kPromptLen + kGenLen + 1);

  const OfficialDecoder official(fm);
  const std::vector<int> ref = official.generate(prompt, kGenLen, bias);

  const auto calib = eval::calibrate_functional_counts(
      fm, data::sharegpt_calibration(), 2, kPromptLen, kGenLen,
      seed ^ 0x5ca1ab1eULL);
  const cache::Placement initial = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, kEcr, calib);
  const core::DaopFunctionalExecutor daop(fm, {});
  const std::vector<int> free_run =
      daop.generate(prompt, kGenLen, initial, bias);
  const std::vector<int> forced =
      daop.generate(prompt, kGenLen, initial, bias, nullptr, ref);

  // Replays the official decode block by block to hash the raw logits.
  Fnv1a gate_hash;
  Fnv1a lm_hash;
  KvCache kv(cfg, kPromptLen + kGenLen);
  std::vector<float> x(static_cast<std::size_t>(cfg.d_model));
  std::vector<float> gate_logits;
  std::vector<float> logits(static_cast<std::size_t>(cfg.vocab_size));
  std::vector<int> tokens(prompt.begin(), prompt.end());
  tokens.insert(tokens.end(), ref.begin(), ref.end());
  for (int pos = 0; pos < kPromptLen + kGenLen; ++pos) {
    fm.embed(tokens[static_cast<std::size_t>(pos)], x);
    for (int l = 0; l < cfg.n_layers; ++l) {
      fm.official_block(l, x, kv, pos, bias, &gate_logits);
      gate_hash.add(gate_logits);
    }
    kv.advance();
    fm.lm_logits(x, logits);
    lm_hash.add(logits);
  }

  std::ostringstream os;
  os << "[" << cfg.name << " | seed " << seed << "]\n";
  os << "official=" << join(ref) << "\n";
  os << "daop_free=" << join(free_run) << "\n";
  os << "daop_forced=" << join(forced) << "\n";
  os << "gate_logits_fnv1a=" << hex(gate_hash.h) << "\n";
  os << "lm_logits_fnv1a=" << hex(lm_hash.h) << "\n";
  return os.str();
}

std::string all_snapshots() {
  std::string out;
  for (const ModelConfig& cfg : {tiny_mixtral(), tiny_phi()}) {
    for (const std::uint64_t seed : {0xDA0FULL, 9001ULL}) {
      out += snapshot(cfg, seed);
      out += "\n";
    }
  }
  return out;
}

const char* kGoldenPath = DAOP_GOLDEN_DIR "/functional_plane.golden";

TEST(FunctionalGolden, MatchesRecordedNumerics) {
  const std::string actual = all_snapshots();
  if (std::getenv("DAOP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream f(kGoldenPath);
    ASSERT_TRUE(f.good()) << "cannot write " << kGoldenPath;
    f << actual;
    GTEST_SKIP() << "goldens regenerated at " << kGoldenPath;
  }
  std::ifstream f(kGoldenPath);
  ASSERT_TRUE(f.good()) << "missing golden file " << kGoldenPath
                        << " (regenerate with DAOP_UPDATE_GOLDENS=1)";
  std::ostringstream expected;
  expected << f.rdbuf();
  EXPECT_EQ(expected.str(), actual);
}

}  // namespace
}  // namespace daop::model

// Lockstep decoding: sequences stepped together through one multi-segment
// span per layer must decode exactly as each does alone. The sequences
// here have different prompt lengths, so their rows sit at different
// positions in every step, and different router biases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "cache/placement.hpp"
#include "common/check.hpp"
#include "core/daop_executor.hpp"
#include "data/gate_bias.hpp"
#include "data/workload.hpp"
#include "eval/accuracy.hpp"
#include "model/config.hpp"
#include "model/functional_model.hpp"

namespace daop::core {
namespace {

constexpr int kGen = 11;

/// One routing event: phase, layer, position, experts and the bits of the
/// biased gate logits.
using Event = std::tuple<bool, int, int, std::vector<int>,
                         std::vector<std::uint32_t>>;

model::RouteObserver record_into(std::vector<Event>& events) {
  return [&events](int layer, int pos, bool is_prefill,
                   std::span<const float> logits,
                   const model::RouteDecision& d) {
    std::vector<std::uint32_t> bits(logits.size());
    std::memcpy(bits.data(), logits.data(), logits.size() * sizeof(float));
    events.emplace_back(is_prefill, layer, pos, d.experts, bits);
  };
}

std::vector<long long> fields(const FunctionalRunStats& s) {
  return {s.decode_expert_uses,   s.exact_execs,
          s.stale_input_execs,    s.degradations,
          s.mispredict_fallbacks, s.mispredict_recomputes,
          s.prefill_swaps,        s.decode_swaps,
          s.quantized_execs,      s.skipped_experts};
}

class LockstepDecodeTest : public ::testing::Test {
 protected:
  LockstepDecodeTest() : model_(model::tiny_mixtral(), 7) {
    const auto& cfg = model_.config();
    const data::WorkloadSpec specs[] = {data::gsm8k(), data::c4(),
                                        data::bbh(), data::gsm8k(),
                                        data::truthfulqa()};
    const int lengths[] = {12, 5, 1, 9, 16};
    for (int s = 0; s < 5; ++s) {
      const int len = lengths[s];
      prompts_.push_back(data::make_prompt(cfg.vocab_size, len, 3, s));
      biases_.push_back(data::make_gate_bias(specs[s], cfg.n_layers,
                                             cfg.n_experts, 21, s, len,
                                             len + kGen + 1));
    }
    // One sequence decodes without a conditioner.
    biases_[3] = nullptr;
  }

  cache::Placement placement_with_ecr(double ecr) const {
    const auto& cfg = model_.config();
    const auto calib = eval::calibrate_functional_counts(
        model_, data::sharegpt_calibration(), 4, 12, 12, 99);
    return cache::init_placement_calibrated(cfg.n_layers, cfg.n_experts, ecr,
                                            calib);
  }

  model::FunctionalModel model_;
  std::vector<std::vector<int>> prompts_;
  std::vector<model::GateBias> biases_;
};

TEST_F(LockstepDecodeTest, OfficialBatchEqualsPerSequenceGenerate) {
  const model::OfficialDecoder official(model_);
  const std::size_t n = prompts_.size();
  std::vector<std::vector<Event>> alone(n);
  std::vector<std::vector<int>> alone_tokens;
  for (std::size_t s = 0; s < n; ++s) {
    alone_tokens.push_back(official.generate(prompts_[s], kGen, biases_[s],
                                             record_into(alone[s])));
  }

  std::vector<std::vector<Event>> batched(n);
  std::vector<model::RouteObserver> observers;
  for (auto& events : batched) observers.push_back(record_into(events));
  const std::vector<model::PrefillState> prefills =
      official.prefill_batch(prompts_, kGen, biases_, observers);
  EXPECT_EQ(official.generate_batch(prefills, kGen, biases_, observers),
            alone_tokens);
  for (std::size_t s = 0; s < n; ++s) {
    // Prefill events arrive layer-major in both runs, decode events step
    // by step; compare them as sets.
    std::sort(alone[s].begin(), alone[s].end());
    std::sort(batched[s].begin(), batched[s].end());
    EXPECT_EQ(batched[s], alone[s]) << "sequence " << s;
    const int prompt_len = static_cast<int>(prompts_[s].size());
    EXPECT_EQ(static_cast<int>(batched[s].size()),
              model_.config().n_layers * (prompt_len + kGen));

    const model::PrefillState own =
        official.prefill(prompts_[s], kGen, biases_[s]);
    EXPECT_EQ(prefills[s].first_token, own.first_token);
    EXPECT_EQ(prefills[s].counts, own.counts);
    EXPECT_EQ(prefills[s].kv.size(), prompt_len);
  }

  // Without observers the last step is skipped; tokens do not change.
  EXPECT_EQ(official.generate_batch(prefills, kGen, biases_), alone_tokens);
  EXPECT_TRUE(official.generate_batch(prefills, 0, biases_)[0].empty());
  EXPECT_THROW(
      official.generate_batch(
          prefills, kGen, std::span<const model::GateBias>(biases_).first(2)),
      CheckError);
}

TEST_F(LockstepDecodeTest, DaopBatchEqualsPerEpisodeGeneratePair) {
  const model::OfficialDecoder official(model_);
  const std::vector<model::PrefillState> prefills =
      official.prefill_batch(prompts_, kGen, biases_);
  const std::vector<std::vector<int>> refs =
      official.generate_batch(prefills, kGen, biases_);
  const cache::Placement placements[] = {placement_with_ecr(0.25),
                                         placement_with_ecr(0.5),
                                         placement_with_ecr(1.0)};

  DaopConfig realloc;
  realloc.decode_realloc_interval = 4;
  DaopConfig quant;
  quant.cpu_quant_bits = 4;
  DaopConfig skip;
  skip.skip_top1_margin = 0.6;
  DaopConfig fallback;
  fallback.mispredict_policy = MispredictPolicy::GracefulFallback;
  for (const DaopConfig& config :
       {DaopConfig{}, realloc, quant, skip, fallback}) {
    const DaopFunctionalExecutor daop(model_, config);
    // Every sequence at every placement: pairs of one prefill fork at
    // different steps.
    std::vector<PairRequest> requests;
    for (std::size_t s = 0; s < prompts_.size(); ++s) {
      for (const cache::Placement& p : placements) {
        requests.push_back({&prefills[s], &p, &biases_[s], refs[s]});
      }
    }
    const std::vector<DecodePair> batch =
        daop.generate_pairs(requests, kGen);
    ASSERT_EQ(batch.size(), requests.size());
    int forks = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const PairRequest& r = requests[i];
      FunctionalRunStats free_stats;
      FunctionalRunStats forced_stats;
      const DecodePair alone =
          daop.generate_pair(*r.prefill, kGen, *r.initial, *r.bias, r.teacher,
                             &free_stats, &forced_stats);
      EXPECT_EQ(batch[i].free_run, alone.free_run) << "request " << i;
      EXPECT_EQ(batch[i].forced, alone.forced) << "request " << i;
      EXPECT_EQ(fields(batch[i].free_stats), fields(free_stats))
          << "request " << i;
      EXPECT_EQ(fields(batch[i].forced_stats), fields(forced_stats))
          << "request " << i;
      // Steps 0 .. kGen - 2 consume free_run[g]; the pair forked if one
      // of those differs from the teacher.
      if (!std::equal(alone.free_run.begin(), alone.free_run.end() - 1,
                      r.teacher.begin())) {
        ++forks;
      }
    }
    // The batch must exercise the fork as well as the shared path.
    EXPECT_GT(forks, 0);
    EXPECT_LT(forks, static_cast<int>(requests.size()));
  }
}

TEST_F(LockstepDecodeTest, DaopBatchEdgeLengths) {
  const model::OfficialDecoder official(model_);
  const std::vector<model::PrefillState> prefills =
      official.prefill_batch(prompts_, kGen, biases_);
  const std::vector<std::vector<int>> refs =
      official.generate_batch(prefills, kGen, biases_);
  const cache::Placement placement = placement_with_ecr(0.25);
  const DaopFunctionalExecutor daop(model_);
  std::vector<PairRequest> requests;
  for (std::size_t s = 0; s < prompts_.size(); ++s) {
    requests.push_back({&prefills[s], &placement, &biases_[s], refs[s]});
  }
  for (int n : {0, 1, 2}) {
    const std::vector<DecodePair> batch = daop.generate_pairs(requests, n);
    for (std::size_t s = 0; s < requests.size(); ++s) {
      EXPECT_EQ(batch[s].free_run,
                daop.generate(prefills[s], n, placement, biases_[s]));
      EXPECT_EQ(batch[s].forced, daop.generate(prefills[s], n, placement,
                                               biases_[s], nullptr, refs[s]));
    }
  }
  EXPECT_TRUE(daop.generate_pairs({}, kGen).empty());
  requests[1].teacher = requests[1].teacher.first(kGen - 1);
  EXPECT_THROW(daop.generate_pairs(requests, kGen), CheckError);
}

}  // namespace
}  // namespace daop::core

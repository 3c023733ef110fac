// Property sweep: invariants every engine must satisfy on randomized
// workloads, parameterized over all eight engines.
#include <gtest/gtest.h>

#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "data/trace_generator.hpp"
#include "eval/speed.hpp"

namespace daop::engines {
namespace {

class EngineProperty : public ::testing::TestWithParam<eval::EngineKind> {
 protected:
  EngineProperty()
      : cfg_(daop::testing::small_mixtral()),
        cm_(sim::a6000_i9_platform()),
        costs_(cfg_, cm_) {}

  data::SequenceTrace random_trace(int seq, int prompt = 12, int gen = 10) {
    const data::TraceGenerator gen_obj(data::c4(), cfg_.n_layers,
                                       cfg_.n_experts, cfg_.top_k, 321);
    return gen_obj.generate(seq, prompt, gen);
  }

  cache::Placement calibrated_placement(double ecr) {
    const data::TraceGenerator calib(data::sharegpt_calibration(),
                                     cfg_.n_layers, cfg_.n_experts, cfg_.top_k,
                                     99);
    return cache::init_placement_calibrated(
        cfg_.n_layers, cfg_.n_experts, ecr,
        cache::calibrate_activation_counts(calib, 6));
  }

  std::unique_ptr<Engine> engine() {
    return eval::make_engine(GetParam(), costs_);
  }

  model::ModelConfig cfg_;
  sim::CostModel cm_;
  model::OpCosts costs_;
};

TEST_P(EngineProperty, DeterministicAcrossRunsAndInstances) {
  const auto tr = random_trace(0);
  const auto placement = calibrated_placement(0.5);
  const auto r1 = engine()->run(tr, placement);
  const auto r2 = engine()->run(tr, placement);
  EXPECT_DOUBLE_EQ(r1.total_s, r2.total_s);
  EXPECT_DOUBLE_EQ(r1.energy.total_j, r2.energy.total_j);
  EXPECT_EQ(r1.counters.expert_migrations, r2.counters.expert_migrations);
  EXPECT_EQ(r1.counters.cpu_expert_execs, r2.counters.cpu_expert_execs);
}

TEST_P(EngineProperty, TimeAccountingConsistent) {
  for (int seq = 0; seq < 3; ++seq) {
    const auto tr = random_trace(seq);
    const auto r = engine()->run(tr, calibrated_placement(0.469));
    EXPECT_GT(r.prefill_s, 0.0);
    EXPECT_GT(r.decode_s, 0.0);
    EXPECT_NEAR(r.total_s, r.prefill_s + r.decode_s, 1e-12);
    EXPECT_GT(r.tokens_per_s, 0.0);
    EXPECT_GT(r.decode_tokens_per_s, r.tokens_per_s * 0.999);
  }
}

TEST_P(EngineProperty, EveryDecodeSelectionAccounted) {
  const auto tr = random_trace(1);
  const auto r = engine()->run(tr, calibrated_placement(0.469));
  // Every selected expert use is either a hit or a miss. Prefill contributes
  // per-(layer, active expert) lookups, decode per-(token, layer, selection).
  const auto prefill_counts = tr.activation_counts(data::Phase::Prefill);
  long long prefill_uses = 0;
  for (const auto& layer : prefill_counts) {
    for (double c : layer) {
      if (c > 0.0) ++prefill_uses;
    }
  }
  const long long decode_uses =
      static_cast<long long>(tr.gen_len) * cfg_.n_layers * cfg_.top_k;
  EXPECT_EQ(r.counters.cache_hits + r.counters.cache_misses,
            prefill_uses + decode_uses);
}

TEST_P(EngineProperty, EnergyWithinPhysicalBounds) {
  const auto tr = random_trace(2);
  const auto r = engine()->run(tr, calibrated_placement(0.5));
  const auto& p = cm_.platform();
  const double min_power =
      p.gpu.idle_power_w + p.cpu.idle_power_w + p.base_power_w;
  const double max_power = p.gpu.active_power_w + p.cpu.active_power_w +
                           p.base_power_w + 15.0 /* PCIe */;
  EXPECT_GE(r.energy.avg_power_w, min_power * 0.999);
  EXPECT_LE(r.energy.avg_power_w, max_power * 1.001);
  EXPECT_GT(r.energy.total_j, 0.0);
}

TEST_P(EngineProperty, FullCacheIsFastest) {
  const auto tr = random_trace(3);
  const auto full = engine()->run(tr, calibrated_placement(1.0));
  const auto half = engine()->run(tr, calibrated_placement(0.5));
  const auto quarter = engine()->run(tr, calibrated_placement(0.25));
  EXPECT_LE(full.total_s, half.total_s * 1.0001);
  EXPECT_LE(full.total_s, quarter.total_s * 1.0001);
  // At ECR 1.0 nothing can miss — except for DeepSpeed-MII, which has no
  // expert cache management at all and streams regardless.
  if (GetParam() != eval::EngineKind::DeepSpeedMII) {
    EXPECT_EQ(full.counters.cache_misses, 0);
    EXPECT_EQ(full.counters.expert_migrations, 0);
    EXPECT_EQ(full.counters.cpu_expert_execs, 0);
  }
}

TEST_P(EngineProperty, InputPlacementNeverMutated) {
  const auto tr = random_trace(4);
  const auto placement = calibrated_placement(0.469);
  const auto gpu_before = placement.total_gpu_count();
  std::vector<bool> residency;
  for (int l = 0; l < cfg_.n_layers; ++l) {
    for (int e = 0; e < cfg_.n_experts; ++e) {
      residency.push_back(placement.on_gpu(l, e));
    }
  }
  engine()->run(tr, placement);
  EXPECT_EQ(placement.total_gpu_count(), gpu_before);
  std::size_t i = 0;
  for (int l = 0; l < cfg_.n_layers; ++l) {
    for (int e = 0; e < cfg_.n_experts; ++e) {
      EXPECT_EQ(placement.on_gpu(l, e), static_cast<bool>(residency[i++]));
    }
  }
}

TEST_P(EngineProperty, LongerGenerationTakesLonger) {
  const auto placement = calibrated_placement(0.469);
  const auto small = engine()->run(random_trace(5, 12, 6), placement);
  const auto large = engine()->run(random_trace(5, 12, 24), placement);
  EXPECT_GT(large.total_s, small.total_s);
}

TEST_P(EngineProperty, MispredictionsBoundedByPredictions) {
  // Predictions deliberately point at the wrong expert: the gate selects
  // the off-GPU expert 3 while predictions claim the GPU-resident expert 1.
  // An engine may count at most one misprediction per issued prediction.
  // small_mixtral has fewer layers than the default min_predict_layer, so
  // lower it so DAOP's prediction path actually runs on this model. Prefill
  // sticks to the already-cached expert 0 so prefill-time reallocation does
  // not pull expert 3 onto the GPU before decode gets to miss on it.
  auto tr = daop::testing::fixed_trace(cfg_, 8, 8, {3}, {1});
  for (int l = 0; l < cfg_.n_layers; ++l) {
    for (int t = 0; t < tr.prompt_len; ++t) {
      daop::testing::write_scores(
          tr.mutable_scores(data::Phase::Prefill, l, t), {0});
    }
  }
  tr.route();
  core::DaopConfig dcfg;
  dcfg.min_predict_layer = 1;
  const auto r = eval::make_engine(GetParam(), costs_, dcfg)
                     ->run(tr, daop::testing::prefix_placement(cfg_, 2));
  EXPECT_LE(r.counters.mispredictions, r.counters.predictions);
  if (GetParam() == eval::EngineKind::Daop) {
    EXPECT_GT(r.counters.mispredictions, 0);
  }
}

TEST_P(EngineProperty, AttachedTracerIsTimingNeutral) {
  // Observability must be passive: a run with a span tracer attached lands
  // on the bit-identical schedule of an untraced run.
  const auto tr = random_trace(6);
  const auto placement = calibrated_placement(0.469);
  const auto plain = engine()->run(tr, placement);
  auto traced_engine = engine();
  obs::SpanTracer tracer;
  traced_engine->set_tracer(&tracer);
  const auto traced = traced_engine->run(tr, placement);
  EXPECT_EQ(plain.total_s, traced.total_s);
  EXPECT_EQ(plain.energy.total_j, traced.energy.total_j);
  EXPECT_EQ(plain.counters.cache_hits, traced.counters.cache_hits);
  EXPECT_FALSE(tracer.spans().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineProperty,
    ::testing::Values(eval::EngineKind::MoEOnDemand,
                      eval::EngineKind::DeepSpeedMII,
                      eval::EngineKind::MixtralOffloading,
                      eval::EngineKind::PreGatedMoE,
                      eval::EngineKind::EdgeMoE,
                      eval::EngineKind::MoEInfinity,
                      eval::EngineKind::Fiddler, eval::EngineKind::Daop),
    [](const ::testing::TestParamInfo<eval::EngineKind>& info) {
      std::string n = eval::engine_kind_name(info.param);
      for (auto& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace daop::engines

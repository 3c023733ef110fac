#include "model/op_costs.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "model/config.hpp"
#include "sim/device.hpp"
#include "tensor/ops.hpp"

namespace daop::model {
namespace {

class TableICalibration : public ::testing::Test {
 protected:
  TableICalibration()
      : cfg_(mixtral_8x7b()),
        cm_(sim::a100_xeon_platform()),
        costs_(cfg_, cm_) {}

  ModelConfig cfg_;
  sim::CostModel cm_;
  OpCosts costs_;
};

// The simulator's central calibration contract: Mixtral-8x7B per-op times on
// the A100+Xeon platform must match the paper's own Table I measurements
// within 15%. Every speed/energy experiment rests on these four numbers.
TEST_F(TableICalibration, BlockOnCpuNear8ms) {
  EXPECT_NEAR(costs_.full_block_cpu(256) * 1e3, 8.02, 8.02 * 0.15);
}

TEST_F(TableICalibration, BlockOnGpuNear1_24ms) {
  EXPECT_NEAR(costs_.full_block_gpu(256) * 1e3, 1.24, 1.24 * 0.15);
}

TEST_F(TableICalibration, ExpertMigrationNear40ms) {
  EXPECT_NEAR(costs_.expert_migration() * 1e3, 39.87, 39.87 * 0.15);
}

TEST_F(TableICalibration, ActivationTransitionNear20us) {
  EXPECT_NEAR(costs_.activations_h2d(1) * 1e3, 0.02, 0.02 * 0.5);
  EXPECT_NEAR(costs_.activations_d2h(1) * 1e3, 0.02, 0.02 * 0.5);
}

TEST_F(TableICalibration, MigrationDwarfsGpuBlock) {
  // Paper §I: migrating one expert ~32x slower than running a whole block
  // on the GPU — the observation motivating CPU-side execution.
  const double ratio = costs_.expert_migration() / costs_.full_block_gpu(256);
  EXPECT_GT(ratio, 25.0);
  EXPECT_LT(ratio, 45.0);
}

TEST_F(TableICalibration, ActivationTransferDwarfedByWeights) {
  // Paper §I: expert I/O activations are ~1/10000 the expert weight size.
  EXPECT_LT(cfg_.hidden_state_bytes() / cfg_.expert_bytes(), 1e-3);
}

TEST(OpCosts, PrefillScalesWithTokens) {
  const ModelConfig cfg = mixtral_8x7b();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const OpCosts costs(cfg, cm);
  EXPECT_GT(costs.expert_gpu_prefill(256), costs.expert_gpu_prefill(16));
  EXPECT_GT(costs.expert_cpu_prefill(256), costs.expert_cpu_prefill(16));
  EXPECT_GT(costs.nonmoe_gpu_prefill(256), costs.nonmoe_gpu_prefill(16));
}

TEST(OpCosts, CpuPrefillComputeBound) {
  // Multi-token expert execution on the CPU scales ~linearly with tokens
  // (compute-bound), which is why Algorithm 1 wants hot experts on the GPU.
  const ModelConfig cfg = mixtral_8x7b();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const OpCosts costs(cfg, cm);
  const double t64 = costs.expert_cpu_prefill(64);
  const double t128 = costs.expert_cpu_prefill(128);
  EXPECT_NEAR(t128 / t64, 2.0, 0.3);
  // While on the GPU the same growth is much cheaper in relative terms.
  EXPECT_LT(costs.expert_gpu_prefill(128) / costs.expert_gpu_prefill(64), 1.9);
}

TEST(OpCosts, DecodeContextAffectsNonMoe) {
  const ModelConfig cfg = mixtral_8x7b();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const OpCosts costs(cfg, cm);
  EXPECT_GT(costs.nonmoe_gpu(4096), costs.nonmoe_gpu(16));
}

TEST(OpCosts, GpuExpertFasterThanCpuExpert) {
  for (const auto& p : {sim::a6000_i9_platform(), sim::a100_xeon_platform()}) {
    const sim::CostModel cm(p);
    const OpCosts costs(mixtral_8x7b(), cm);
    EXPECT_LT(costs.expert_gpu(), costs.expert_cpu());
    // §VI-A assumption 3: migration costs more than CPU execution.
    EXPECT_GT(costs.expert_migration(), costs.expert_cpu());
  }
}

TEST(MaxEcr, MixtralOnA6000MatchesPaperSetup) {
  // Paper Fig. 9: full GPU memory utilization == ECR 46.9% for Mixtral on
  // the 48 GB A6000.
  const double ecr =
      max_expert_cache_ratio(mixtral_8x7b(), sim::a6000_i9_platform());
  EXPECT_NEAR(ecr, 0.469, 0.06);
}

TEST(MaxEcr, MonotoneInGpuMemory) {
  const ModelConfig cfg = mixtral_8x7b();
  sim::PlatformSpec small = sim::a6000_i9_platform();
  small.gpu.mem_capacity_bytes /= 2.0;
  EXPECT_LT(max_expert_cache_ratio(cfg, small),
            max_expert_cache_ratio(cfg, sim::a6000_i9_platform()));
}

TEST(MaxEcr, CappedAtOne) {
  sim::PlatformSpec huge = sim::a6000_i9_platform();
  huge.gpu.mem_capacity_bytes = 1e15;
  EXPECT_DOUBLE_EQ(max_expert_cache_ratio(mixtral_8x7b(), huge), 1.0);
}

TEST(MaxEcr, ZeroWhenNothingFits) {
  sim::PlatformSpec tiny = sim::a6000_i9_platform();
  tiny.gpu.mem_capacity_bytes = 1e9;  // smaller than non-MoE weights
  EXPECT_DOUBLE_EQ(max_expert_cache_ratio(mixtral_8x7b(), tiny), 0.0);
}

TEST(OpCosts, RejectsTopKAboveInlineCapacity) {
  const sim::CostModel cm(sim::a100_xeon_platform());
  ModelConfig cfg = mixtral_8x7b();
  cfg.n_experts = 2 * kMaxTopK;
  cfg.top_k = kMaxTopK;
  EXPECT_NO_THROW(OpCosts(cfg, cm));
  cfg.top_k = kMaxTopK + 1;
  EXPECT_THROW(OpCosts(cfg, cm), CheckError);
}

}  // namespace
}  // namespace daop::model

// Google-benchmark microbenchmarks of the library's own hot paths: tensor
// kernels used by the functional plane and the timeline scheduler used by
// the performance plane. These measure THIS library (not the paper's
// hardware) and guard against performance regressions.
#include <benchmark/benchmark.h>

#include "cache/calibration.hpp"
#include "cache/placement.hpp"
#include "common/rng.hpp"
#include "data/trace_generator.hpp"
#include "eval/accuracy.hpp"
#include "model/functional_model.hpp"
#include "sim/timeline.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace daop;

// The packed GEMV at the functional model's shapes (rows x cols): router
// gate, wk/wv, wq/wo, expert w1/w3, expert w2 and the LM head.
void BM_Matvec(benchmark::State& state) {
  const auto rows = static_cast<std::int64_t>(state.range(0));
  const auto cols = static_cast<std::int64_t>(state.range(1));
  Rng rng(1);
  const PackedMatrix w = PackedMatrix::randn(rows, cols, rng, 0.02F);
  std::vector<float> x(static_cast<std::size_t>(cols), 1.0F);
  std::vector<float> y(static_cast<std::size_t>(rows));
  for (auto _ : state) {
    matvec(w, x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_Matvec)
    ->Args({8, 64})
    ->Args({32, 64})
    ->Args({64, 64})
    ->Args({128, 64})
    ->Args({64, 128})
    ->Args({256, 64});

void BM_Softmax(benchmark::State& state) {
  std::vector<float> x(static_cast<std::size_t>(state.range(0)));
  Rng rng(2);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    std::vector<float> y = x;
    softmax_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(8)->Arg(4096);

void BM_ExpertForward(benchmark::State& state) {
  const model::ModelConfig cfg = model::tiny_mixtral();
  const model::FunctionalModel fm(cfg, 7);
  std::vector<float> h(static_cast<std::size_t>(cfg.d_model), 0.1F);
  std::vector<float> out(static_cast<std::size_t>(cfg.d_model));
  for (auto _ : state) {
    fm.expert_forward(0, 0, h, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ExpertForward);

void BM_TimelineSchedule(benchmark::State& state) {
  for (auto _ : state) {
    sim::Timeline tl;
    double ready = 0.0;
    for (int i = 0; i < 1000; ++i) {
      ready = tl.schedule(sim::Res::GpuStream, ready, 1e-3);
      tl.schedule(sim::Res::CpuPool, ready, 2e-3);
    }
    benchmark::DoNotOptimize(tl.span());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_TimelineSchedule);

// One Mixtral trace at (prompt, gen) tokens, routed: the flat buffers cost
// the same allocations at any length, so time scales with the RNG draws
// and the per-cell top-k.
void BM_TraceGeneration(benchmark::State& state) {
  const model::ModelConfig cfg = model::mixtral_8x7b();
  const data::TraceGenerator gen(data::c4(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, 5);
  const auto prompt = static_cast<int>(state.range(0));
  const auto gen_len = static_cast<int>(state.range(1));
  int s = 0;
  for (auto _ : state) {
    const auto tr = gen.generate(s++, prompt, gen_len);
    benchmark::DoNotOptimize(tr.at(data::Phase::Decode, 0, 0).scores.data());
  }
  state.SetItemsProcessed(state.iterations() * (prompt + gen_len));
}
BENCHMARK(BM_TraceGeneration)->Args({64, 64})->Args({256, 512});

// The routing index of one Mixtral trace at [256, 512]: top-k of every
// prefill, decode and predicted cell (items = cells ranked).
void BM_RouteTrace(benchmark::State& state) {
  const model::ModelConfig cfg = model::mixtral_8x7b();
  const data::TraceGenerator gen(data::c4(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, 5);
  data::SequenceTrace tr = gen.generate(0, 256, 512);
  for (auto _ : state) {
    tr.route();
    benchmark::DoNotOptimize(tr.selected(data::Phase::Decode, 0, 0).front());
  }
  const std::int64_t cells =
      cfg.n_layers * (256 + 512) + (cfg.n_layers - 1) * 512;
  state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(BM_RouteTrace);

// §IV-A calibration as each sweep model needs it: 32 Mixtral ShareGPT
// sequences, decode routing only (items = decode tokens counted).
void BM_Calibration(benchmark::State& state) {
  const model::ModelConfig cfg = model::mixtral_8x7b();
  const data::TraceGenerator gen(data::sharegpt_calibration(), cfg.n_layers,
                                 cfg.n_experts, cfg.top_k, 7 ^ 0xCA11B);
  for (auto _ : state) {
    const auto counts = cache::calibrate_activation_counts(gen, 32);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * 32 * gen.spec().gen_len);
}
BENCHMARK(BM_Calibration)->Unit(benchmark::kMillisecond);

// Router top-k over one token's gate logits (k = 2 at 8 and 16 experts,
// the Mixtral and Phi-3.5-MoE shapes).
void BM_TopK(benchmark::State& state) {
  std::vector<float> x(static_cast<std::size_t>(state.range(0)));
  Rng rng(4);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    const TopK top = topk_indices(x, 2);
    benchmark::DoNotOptimize(top.front());
  }
}
BENCHMARK(BM_TopK)->Arg(8)->Arg(16);

void BM_Rouge2(benchmark::State& state) {
  Rng rng(3);
  std::vector<int> a(64);
  std::vector<int> b(64);
  for (auto& v : a) v = rng.uniform_int(0, 50);
  for (auto& v : b) v = rng.uniform_int(0, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daop::eval::rouge_n(a, b, 2));
  }
}

BENCHMARK(BM_Rouge2);

}  // namespace

BENCHMARK_MAIN();

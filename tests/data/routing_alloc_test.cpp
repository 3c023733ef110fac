// Heap allocations on the routing path, counted by replacing the global
// operator new in this executable.
//
//  - TraceGenerator::generate allocates a fixed number of blocks whatever
//    the sequence length: the trace is three flat [layer][token][expert]
//    buffers plus the prediction flags and the routing index, and the
//    generator's scratch is one buffer of flat per-layer rows.
//  - Calibration builds no trace: it allocates its count matrix and one
//    scratch buffer however many sequences it walks.
//  - Once warm, a decode step of every engine allocates nothing (tracing
//    off, no interval recording): top-k ids are inline, the fetch engines'
//    protect sets are spans over them, and DAOP reuses one pre-calculation
//    plan per session.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cache/calibration.hpp"
#include "cache/placement.hpp"
#include "data/trace_generator.hpp"
#include "engines/session.hpp"
#include "eval/speed.hpp"
#include "model/config.hpp"
#include "model/op_costs.hpp"
#include "sim/device.hpp"

namespace {
std::atomic<long long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace daop {
namespace {

/// Allocations made while running `fn`.
template <typename Fn>
long long allocations(Fn&& fn) {
  const long long before = g_allocs.load();
  fn();
  return g_allocs.load() - before;
}

TEST(RoutingAlloc, CounterSeesAllocations) {
  const long long n = allocations([] {
    auto* v = new std::vector<int>(4);
    delete v;
  });
  EXPECT_EQ(n, 2);
}

TEST(RoutingAlloc, TraceGenerationAllocationsIndependentOfLength) {
  const model::ModelConfig cfg = model::mixtral_8x7b();
  const data::TraceGenerator gen(data::gsm8k(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, 3);
  const long long short_trace =
      allocations([&] { (void)gen.generate(0, 16, 16); });
  const long long long_trace =
      allocations([&] { (void)gen.generate(1, 64, 128); });
  EXPECT_EQ(short_trace, long_trace);
  // Four trace buffers, the routing index and the generator's scratch.
  EXPECT_EQ(short_trace, 6);
}

TEST(RoutingAlloc, CalibrationAllocationsIndependentOfSequenceCount) {
  const model::ModelConfig cfg = model::mixtral_8x7b();
  const data::TraceGenerator gen(data::sharegpt_calibration(), cfg.n_layers,
                                 cfg.n_experts, cfg.top_k, 5);
  const long long one =
      allocations([&] { (void)cache::calibrate_activation_counts(gen, 1); });
  const long long eight =
      allocations([&] { (void)cache::calibrate_activation_counts(gen, 8); });
  EXPECT_EQ(one, eight);
  // The [layer][expert] count matrix (the outer block, the row it is
  // filled from and one row per layer) plus the generator's scratch.
  EXPECT_EQ(one, cfg.n_layers + 3);
}

class DecodeStepAlloc : public ::testing::TestWithParam<eval::EngineKind> {};

TEST_P(DecodeStepAlloc, WarmDecodeStepAllocatesNothing) {
  const model::ModelConfig cfg = model::mixtral_8x7b();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  // GSM8K drifts, so decode exercises misses, prefetches, mispredictions
  // and DAOP's substitutes and fallbacks.
  const data::TraceGenerator gen(data::gsm8k(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, 11);
  const data::SequenceTrace trace = gen.generate(0, 32, 24);
  const data::TraceGenerator calib(data::sharegpt_calibration(), cfg.n_layers,
                                   cfg.n_experts, cfg.top_k, 12);
  const cache::Placement placement = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, 0.469,
      cache::calibrate_activation_counts(calib, 4));

  const auto engine = eval::make_engine(GetParam(), costs);
  const auto session = engine->open_session(trace, placement, {});
  session->prefill();
  ASSERT_TRUE(session->decode_step());  // warm-up token

  int steps = 0;
  const long long n = allocations([&] {
    while (session->decode_step()) ++steps;
  });
  EXPECT_EQ(steps, trace.gen_len - 1);
  EXPECT_EQ(n, 0) << engine->name() << " allocated in " << steps
                  << " decode steps";
  const engines::RunResult r = session->close();
  EXPECT_EQ(r.generated_tokens, trace.gen_len);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, DecodeStepAlloc,
    ::testing::ValuesIn(eval::extended_baseline_engines()),
    [](const ::testing::TestParamInfo<eval::EngineKind>& info) {
      std::string name = eval::engine_kind_name(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace daop

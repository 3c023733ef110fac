#include "cache/calibration.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "cache/placement.hpp"
#include "common/check.hpp"
#include "data/workload.hpp"

namespace daop::cache {
namespace {

data::TraceGenerator make_gen() {
  return data::TraceGenerator(data::sharegpt_calibration(), 8, 8, 2, 77);
}

TEST(Calibration, ShapeAndMass) {
  const auto gen = make_gen();
  const auto counts = calibrate_activation_counts(gen, 4);
  ASSERT_EQ(counts.size(), 8U);
  for (const auto& layer : counts) {
    ASSERT_EQ(layer.size(), 8U);
    double sum = 0.0;
    for (double v : layer) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    // 4 sequences x default gen_len tokens x top-2 routes per layer.
    EXPECT_DOUBLE_EQ(sum, 4.0 * 2.0 * data::sharegpt_calibration().gen_len);
  }
}

TEST(Calibration, Deterministic) {
  const auto a = calibrate_activation_counts(make_gen(), 3);
  const auto b = calibrate_activation_counts(make_gen(), 3);
  EXPECT_EQ(a, b);
}

TEST(Calibration, MoreSequencesMoreMass) {
  const auto gen = make_gen();
  const auto small = calibrate_activation_counts(gen, 2);
  const auto large = calibrate_activation_counts(gen, 4);
  double ssum = 0.0;
  double lsum = 0.0;
  for (std::size_t l = 0; l < small.size(); ++l) {
    for (std::size_t e = 0; e < small[l].size(); ++e) {
      ssum += small[l][e];
      lsum += large[l][e];
    }
  }
  EXPECT_DOUBLE_EQ(lsum, 2.0 * ssum);
}

TEST(Calibration, FeedsPlacementInit) {
  const auto counts = calibrate_activation_counts(make_gen(), 4);
  const Placement p = init_placement_calibrated(8, 8, 0.5, counts);
  EXPECT_EQ(p.total_gpu_count(), 32);
}

/// What calibration stood for before it stopped building traces: decode
/// top-k counts of every materialised calibration trace.
std::vector<std::vector<double>> counts_from_traces(
    const data::TraceGenerator& gen, int n_sequences) {
  std::vector<std::vector<double>> counts(
      static_cast<std::size_t>(gen.n_layers()),
      std::vector<double>(static_cast<std::size_t>(gen.n_experts()), 0.0));
  for (int s = 0; s < n_sequences; ++s) {
    const data::SequenceTrace tr = gen.generate(s);
    for (int l = 0; l < tr.n_layers(); ++l) {
      for (int t = 0; t < tr.gen_len; ++t) {
        for (int e : tr.selected(data::Phase::Decode, l, t)) {
          counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)] +=
              1.0;
        }
      }
    }
  }
  return counts;
}

struct CalibrationCase {
  const char* name;
  int n_layers;
  int n_experts;
  int top_k;
  int prompt_len;
  int gen_len;
};

// Without this gtest prints a CalibrationCase as raw bytes, which include
// the address of its name string; that text ends up in the test names
// gtest_discover_tests registers, so they would change from build to build.
void PrintTo(const CalibrationCase& c, std::ostream* os) { *os << c.name; }

void expect_calibration_equals_counting(const CalibrationCase& c) {
  data::WorkloadSpec spec = data::sharegpt_calibration();
  spec.prompt_len = c.prompt_len;
  spec.gen_len = c.gen_len;
  const data::TraceGenerator gen(spec, c.n_layers, c.n_experts, c.top_k,
                                 0xCA11B ^ 7);
  EXPECT_EQ(calibrate_activation_counts(gen, 3), counts_from_traces(gen, 3));
}

class CalibrationEquivalence
    : public ::testing::TestWithParam<CalibrationCase> {};

TEST_P(CalibrationEquivalence, EqualsCountingGeneratedTraces) {
  expect_calibration_equals_counting(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CalibrationEquivalence,
    ::testing::Values(
        CalibrationCase{"Mixtral", 32, 8, 2, 64, 48},
        CalibrationCase{"Phi35", 32, 16, 2, 64, 48},
        CalibrationCase{"NoDecode", 4, 8, 2, 5, 0},
        CalibrationCase{"OneTokenPrompt", 4, 8, 2, 1, 7}),
    [](const ::testing::TestParamInfo<CalibrationCase>& info) {
      return std::string(info.param.name);
    });

// Odd E and k = 3: prefill and prediction discards end mid-pair. A plain
// test rather than a table row: gtest lists a table row with a byte dump of
// its CalibrationCase, whose name pointer moves with address-space
// randomisation, so the row's listed name differed from run to run.
TEST(Calibration, EqualsCountingGeneratedTracesE7K3) {
  expect_calibration_equals_counting(CalibrationCase{"E7K3", 5, 7, 3, 3, 9});
}

TEST(Calibration, RejectsZeroSequences) {
  EXPECT_THROW(calibrate_activation_counts(make_gen(), 0), daop::CheckError);
}

}  // namespace
}  // namespace daop::cache

#include "data/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "data/trace_generator.hpp"

namespace daop::data {
namespace {

/// Element-wise copy, so gtest compares (and prints) scores like vectors.
std::vector<float> vec(std::span<const float> s) {
  return {s.begin(), s.end()};
}

SequenceTrace sample_trace() {
  const TraceGenerator gen(c4(), 4, 8, 2, 123);
  return gen.generate(1, 5, 7);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const SequenceTrace original = sample_trace();
  std::stringstream ss;
  save_trace(original, ss);
  const SequenceTrace loaded = load_trace(ss);

  EXPECT_EQ(loaded.n_layers(), original.n_layers());
  EXPECT_EQ(loaded.n_experts, original.n_experts);
  EXPECT_EQ(loaded.top_k, original.top_k);
  EXPECT_EQ(loaded.prompt_len, original.prompt_len);
  EXPECT_EQ(loaded.gen_len, original.gen_len);
  for (int l = 0; l < original.n_layers(); ++l) {
    for (int t = 0; t < original.prompt_len; ++t) {
      EXPECT_EQ(vec(loaded.at(Phase::Prefill, l, t).scores),
                vec(original.at(Phase::Prefill, l, t).scores));
    }
    for (int t = 0; t < original.gen_len; ++t) {
      EXPECT_EQ(vec(loaded.at(Phase::Decode, l, t).scores),
                vec(original.at(Phase::Decode, l, t).scores));
      EXPECT_EQ(vec(loaded.at(Phase::Decode, l, t).pred_scores),
                vec(original.at(Phase::Decode, l, t).pred_scores));
    }
  }
}

TEST(TraceIo, RoundTripPreservesEngineDecisions) {
  const SequenceTrace original = sample_trace();
  std::stringstream ss;
  save_trace(original, ss);
  const SequenceTrace loaded = load_trace(ss);
  // The quantities engines consume must survive the float round-trip.
  EXPECT_EQ(loaded.selected(Phase::Decode, 2, 3),
            original.selected(Phase::Decode, 2, 3));
  EXPECT_EQ(loaded.predicted(3, 1), original.predicted(3, 1));
  EXPECT_EQ(loaded.activation_counts(Phase::Prefill),
            original.activation_counts(Phase::Prefill));
}

TEST(TraceIo, ZeroGenLenRoundTrips) {
  const TraceGenerator gen(c4(), 3, 4, 2, 5);
  const SequenceTrace original = gen.generate(0, 4, 0);
  std::stringstream ss;
  save_trace(original, ss);
  const SequenceTrace loaded = load_trace(ss);
  EXPECT_EQ(loaded.gen_len, 0);
  EXPECT_EQ(loaded.prompt_len, 4);
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  const SequenceTrace original = sample_trace();
  std::stringstream ss;
  save_trace(original, ss);
  std::string text = ss.str();
  const auto pos = text.find('\n');
  text.insert(pos + 1, "# a comment\n\n");
  std::stringstream in(text);
  EXPECT_EQ(load_trace(in).prompt_len, original.prompt_len);
}

TEST(TraceIo, RejectsMissingMagic) {
  std::stringstream in("header 2 4 2 1 1\n");
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsMissingCells) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 1 2 1 2 0\n"
      "P 0 0 1.0 2.0\n");  // P 0 1 missing
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsDuplicateCells) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 1 2 1 1 0\n"
      "P 0 0 1.0 2.0\n"
      "P 0 0 1.0 2.0\n");
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsOutOfRangeIndices) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 1 2 1 1 0\n"
      "P 5 0 1.0 2.0\n");
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsTruncatedScores) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 1 4 2 1 0\n"
      "P 0 0 1.0 2.0\n");  // needs 4 scores
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 0 4 2 1 0\n");
  EXPECT_THROW(load_trace(in), CheckError);
  std::stringstream in2(
      "daop-trace v1\n"
      "header 1 4 5 1 0\n");  // top_k > experts
  EXPECT_THROW(load_trace(in2), CheckError);
}

TEST(TraceIo, RejectsTopKAboveInlineCapacity) {
  const auto header = [](int top_k) {
    std::ostringstream os;
    os << "daop-trace v1\nheader 1 " << 2 * kMaxTopK << ' ' << top_k
       << " 1 0\nP 0 0";
    for (int e = 0; e < 2 * kMaxTopK; ++e) os << ' ' << e;
    os << '\n';
    return os.str();
  };
  std::stringstream ok(header(kMaxTopK));
  EXPECT_EQ(load_trace(ok).top_k, kMaxTopK);
  std::stringstream over(header(kMaxTopK + 1));
  EXPECT_THROW(load_trace(over), CheckError);
}

TEST(TraceIo, RejectsMoreExpertsThanTheRoutingIndexHolds) {
  const auto header = [](int n_experts) {
    std::ostringstream os;
    os << "daop-trace v1\nheader 1 " << n_experts << " 2 1 0\nP 0 0";
    for (int e = 0; e < n_experts; ++e) os << ' ' << e;
    os << '\n';
    return os.str();
  };
  std::stringstream ok(header(kMaxRoutedExperts));
  const SequenceTrace loaded = load_trace(ok);
  EXPECT_EQ(loaded.n_experts, kMaxRoutedExperts);
  EXPECT_EQ(loaded.selected(Phase::Prefill, 0, 0)[0], kMaxRoutedExperts - 1);
  std::stringstream over(header(kMaxRoutedExperts + 1));
  EXPECT_THROW(load_trace(over), CheckError);
}

TEST(TraceIo, RejectsHeaderTooLargeToAllocate) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 2000000000 8 2 2000000000 1\n");
  EXPECT_THROW(load_trace(in), CheckError);
}

// Round-trip property sweep across trace shapes (including degenerate ones).
class TraceIoRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(TraceIoRoundTrip, Exact) {
  const auto [layers, experts, topk, prompt, gen] = GetParam();
  WorkloadSpec spec = gsm8k();  // exercises drift + predictions
  const TraceGenerator g(spec, layers, experts, topk, 777);
  const SequenceTrace original = g.generate(2, prompt, gen);
  std::stringstream ss;
  save_trace(original, ss);
  const SequenceTrace loaded = load_trace(ss);
  for (int l = 0; l < layers; ++l) {
    for (int t = 0; t < prompt; ++t) {
      ASSERT_EQ(vec(loaded.at(Phase::Prefill, l, t).scores),
                vec(original.at(Phase::Prefill, l, t).scores));
    }
    for (int t = 0; t < gen; ++t) {
      ASSERT_EQ(vec(loaded.at(Phase::Decode, l, t).scores),
                vec(original.at(Phase::Decode, l, t).scores));
      ASSERT_EQ(vec(loaded.at(Phase::Decode, l, t).pred_scores),
                vec(original.at(Phase::Decode, l, t).pred_scores));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TraceIoRoundTrip,
    ::testing::Values(std::make_tuple(1, 2, 1, 1, 0),
                      std::make_tuple(2, 4, 2, 3, 1),
                      std::make_tuple(8, 8, 2, 16, 16),
                      std::make_tuple(4, 16, 2, 7, 9),
                      std::make_tuple(3, 3, 3, 2, 5)));

TEST(TraceIo, FileRoundTrip) {
  const SequenceTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "daop_trace_io_test.trace";
  save_trace_file(original, path);
  const SequenceTrace loaded = load_trace_file(path);
  EXPECT_EQ(loaded.gen_len, original.gen_len);
  std::remove(path.c_str());
  EXPECT_THROW(load_trace_file("/nonexistent-dir-xyz/x.trace"), CheckError);
}

}  // namespace
}  // namespace daop::data

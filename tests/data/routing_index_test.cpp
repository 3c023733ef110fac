// The routing index: SequenceTrace::route() computes every cell's top-k ids
// once, and the readers (selected, predicted, the count matrices) return
// exactly what topk_indices() gives on the cell's scores — for generated,
// loaded and hand-built traces. Editing a cell drops the index until the
// next route().
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "data/trace_generator.hpp"
#include "data/trace_io.hpp"
#include "../testing/helpers.hpp"

namespace daop::data {
namespace {

/// Every reader against topk_indices() over the raw scores, cell by cell.
void expect_index_matches_topk(const SequenceTrace& tr) {
  const Phase phases[] = {Phase::Prefill, Phase::Decode};
  for (const Phase phase : phases) {
    const int n_tokens = phase == Phase::Prefill ? tr.prompt_len : tr.gen_len;
    std::vector<std::vector<double>> counts(
        static_cast<std::size_t>(tr.n_layers()),
        std::vector<double>(static_cast<std::size_t>(tr.n_experts), 0.0));
    for (int l = 0; l < tr.n_layers(); ++l) {
      for (int t = 0; t < n_tokens; ++t) {
        const TokenRouting cell = tr.at(phase, l, t);
        const TopK want = topk_indices(cell.scores, tr.top_k);
        ASSERT_EQ(tr.selected(phase, l, t), want)
            << (phase == Phase::Prefill ? "P " : "D ") << l << ' ' << t;
        for (int e : want) {
          counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)] +=
              1.0;
        }
        if (phase == Phase::Decode) {
          const TopK want_pred = cell.pred_scores.empty()
                                     ? TopK{}
                                     : topk_indices(cell.pred_scores, tr.top_k);
          ASSERT_EQ(tr.predicted(l, t), want_pred) << "pred " << l << ' ' << t;
        }
      }
    }
    EXPECT_EQ(tr.activation_counts(phase), counts);
  }
  if (tr.gen_len >= 2) {
    std::vector<std::vector<double>> window(
        static_cast<std::size_t>(tr.n_layers()),
        std::vector<double>(static_cast<std::size_t>(tr.n_experts), 0.0));
    for (int l = 0; l < tr.n_layers(); ++l) {
      for (int e : topk_indices(tr.at(Phase::Decode, l, 1).scores, tr.top_k)) {
        window[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)] +=
            1.0;
      }
    }
    EXPECT_EQ(tr.decode_window_counts(1, 2), window);
  }
}

struct Shape {
  int layers, experts, top_k, prompt, gen;
};

// Mixtral- and Phi-like rows, odd E with k = 3, k = 1 without decode, the
// 256-expert limit, and k = E.
const Shape kShapes[] = {{4, 8, 2, 9, 11},   {3, 16, 2, 4, 6},
                         {5, 7, 3, 3, 9},    {2, 4, 1, 1, 0},
                         {2, 256, 8, 2, 3},  {6, 8, 8, 2, 2}};

TEST(RoutingIndex, GeneratedTracesMatchTopK) {
  for (const Shape& s : kShapes) {
    const TraceGenerator gen(gsm8k(), s.layers, s.experts, s.top_k, 41);
    expect_index_matches_topk(gen.generate(3, s.prompt, s.gen));
  }
}

TEST(RoutingIndex, LoadedTracesMatchTopK) {
  for (const Shape& s : kShapes) {
    const TraceGenerator gen(c4(), s.layers, s.experts, s.top_k, 42);
    std::stringstream ss;
    save_trace(gen.generate(1, s.prompt, s.gen), ss);
    expect_index_matches_topk(load_trace(ss));
  }
}

TEST(RoutingIndex, HandBuiltTracesMatchTopK) {
  const model::ModelConfig cfg = daop::testing::small_mixtral();
  expect_index_matches_topk(daop::testing::fixed_trace(cfg, 3, 4, {5, 2}));
  expect_index_matches_topk(
      daop::testing::alternating_trace(cfg, 2, 5, {0, 1}, {6, 7}));

  // Ties break toward the lower index; some decode cells lack predictions.
  SequenceTrace tr;
  tr.reshape(2, 6, 3, 1, 3);
  for (int l = 0; l < 2; ++l) {
    const auto p = tr.mutable_scores(Phase::Prefill, l, 0);
    for (int e = 0; e < 6; ++e) p[static_cast<std::size_t>(e)] = 1.0F;
    for (int t = 0; t < 3; ++t) {
      const auto d = tr.mutable_scores(Phase::Decode, l, t);
      for (int e = 0; e < 6; ++e) {
        d[static_cast<std::size_t>(e)] = static_cast<float>((e * 7 + t) % 4);
      }
      if (t != 1) {
        const auto q = tr.mutable_pred_scores(l, t);
        for (int e = 0; e < 6; ++e) {
          q[static_cast<std::size_t>(e)] = static_cast<float>(-e);
        }
      }
    }
  }
  tr.route();
  expect_index_matches_topk(tr);
  EXPECT_TRUE(tr.predicted(0, 1).empty());
}

TEST(RoutingIndex, EditingACellDropsTheIndexUntilRouted) {
  SequenceTrace tr = TraceGenerator(gsm8k(), 3, 8, 2, 43).generate(0, 4, 5);
  ASSERT_NO_THROW(tr.selected(Phase::Decode, 1, 1));

  // A decode score edit changes that cell's routing.
  const auto d = tr.mutable_scores(Phase::Decode, 1, 1);
  EXPECT_THROW(tr.selected(Phase::Decode, 1, 1), CheckError);
  EXPECT_THROW(tr.selected(Phase::Prefill, 0, 0), CheckError);
  EXPECT_THROW(tr.predicted(2, 0), CheckError);
  EXPECT_THROW(tr.activation_counts(Phase::Prefill), CheckError);
  EXPECT_THROW(tr.decode_window_counts(0, 2), CheckError);
  std::fill(d.begin(), d.end(), 0.0F);
  d[6] = 3.0F;
  d[4] = 2.0F;
  tr.route();
  TopK want;
  want.push_back(6);
  want.push_back(4);
  EXPECT_EQ(tr.selected(Phase::Decode, 1, 1), want);
  expect_index_matches_topk(tr);

  (void)tr.mutable_scores(Phase::Prefill, 0, 0);
  EXPECT_THROW(tr.selected(Phase::Decode, 0, 0), CheckError);
  tr.route();
  (void)tr.mutable_pred_scores(2, 4);
  EXPECT_THROW(tr.predicted(2, 4), CheckError);
  tr.route();
  expect_index_matches_topk(tr);

  tr.reshape(3, 8, 2, 4, 5);
  EXPECT_THROW(tr.selected(Phase::Decode, 0, 0), CheckError);
}

TEST(RoutingIndex, UnroutedTraceRaises) {
  SequenceTrace tr;
  tr.reshape(2, 4, 2, 1, 1);
  EXPECT_THROW(tr.selected(Phase::Prefill, 0, 0), CheckError);
  EXPECT_THROW(tr.predicted(1, 0), CheckError);
}

TEST(RoutingIndex, RejectsMoreExpertsThanByteIds) {
  SequenceTrace tr;
  tr.reshape(1, kMaxRoutedExperts + 1, 2, 1, 0);
  EXPECT_THROW(tr.route(), CheckError);
  EXPECT_THROW(TraceGenerator(c4(), 1, kMaxRoutedExperts + 1, 2, 1),
               CheckError);
}

}  // namespace
}  // namespace daop::data

#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace daop {
namespace {

TEST(Ops, MatvecSmallKnownValues) {
  Tensor w(2, 3);
  // [[1 2 3], [4 5 6]]
  for (int i = 0; i < 6; ++i) w.data()[i] = static_cast<float>(i + 1);
  const std::vector<float> x = {1.0F, 0.0F, -1.0F};
  std::vector<float> y(2);
  matvec(PackedMatrix::pack(w), x, y);
  EXPECT_FLOAT_EQ(y[0], -2.0F);
  EXPECT_FLOAT_EQ(y[1], -2.0F);
}

TEST(Ops, MatvecTransposedMatchesExplicit) {
  Rng rng(1);
  const Tensor w = Tensor::randn(5, 7, rng, 1.0F);
  std::vector<float> x(5);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> y(7);
  matvec_transposed(w, x, y);
  for (int c = 0; c < 7; ++c) {
    float expect = 0.0F;
    for (int r = 0; r < 5; ++r) expect += w.at(r, c) * x[static_cast<std::size_t>(r)];
    EXPECT_NEAR(y[static_cast<std::size_t>(c)], expect, 1e-5F);
  }
}

TEST(Ops, MatmulMatchesNaive) {
  Rng rng(2);
  const Tensor a = Tensor::randn(7, 5, rng, 1.0F);
  const Tensor b = Tensor::randn(5, 9, rng, 1.0F);
  Tensor c(7, 9);
  matmul(a, b, c);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 9; ++j) {
      float expect = 0.0F;
      for (int k = 0; k < 5; ++k) expect += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), expect, 1e-4F);
    }
  }
}

TEST(Ops, MatmulShapeChecked) {
  Tensor a(2, 3);
  Tensor b(4, 2);  // mismatched inner dim
  Tensor c(2, 2);
  EXPECT_THROW(matmul(a, b, c), CheckError);
}

TEST(Ops, ElementwiseHelpers) {
  std::vector<float> a = {1.0F, 2.0F};
  const std::vector<float> b = {3.0F, -1.0F};
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a[0], 4.0F);
  EXPECT_FLOAT_EQ(a[1], 1.0F);
  scale_inplace(a, 2.0F);
  EXPECT_FLOAT_EQ(a[0], 8.0F);
  axpy_inplace(a, 0.5F, b);
  EXPECT_FLOAT_EQ(a[0], 9.5F);
  EXPECT_FLOAT_EQ(a[1], 1.5F);
}

TEST(Ops, DotAndNorm) {
  const std::vector<float> a = {3.0F, 4.0F};
  EXPECT_FLOAT_EQ(dot(a, a), 25.0F);
  EXPECT_FLOAT_EQ(l2_norm(a), 5.0F);
}

TEST(Ops, CosineSimilarityProperties) {
  const std::vector<float> a = {1.0F, 0.0F};
  const std::vector<float> b = {0.0F, 1.0F};
  const std::vector<float> c = {2.0F, 0.0F};
  const std::vector<float> zero = {0.0F, 0.0F};
  EXPECT_NEAR(cosine_similarity(std::span<const float>(a), b), 0.0, 1e-9);
  EXPECT_NEAR(cosine_similarity(std::span<const float>(a), c), 1.0, 1e-9);
  EXPECT_EQ(cosine_similarity(std::span<const float>(a), zero), 0.0);
}

TEST(Ops, SoftmaxNormalizesAndOrders) {
  std::vector<float> x = {1.0F, 3.0F, 2.0F};
  softmax_inplace(x);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0F, 1e-6F);
  EXPECT_GT(x[1], x[2]);
  EXPECT_GT(x[2], x[0]);
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable) {
  std::vector<float> a = {1000.0F, 1001.0F};
  softmax_inplace(a);
  std::vector<float> b = {0.0F, 1.0F};
  softmax_inplace(b);
  EXPECT_NEAR(a[0], b[0], 1e-6F);
  EXPECT_NEAR(a[1], b[1], 1e-6F);
}

TEST(Ops, SoftmaxSubsetMatchesManual) {
  const std::vector<float> logits = {1.0F, 5.0F, 2.0F, 4.0F};
  const std::vector<int> idx = {1, 3};
  std::vector<float> out(2);
  softmax_subset(logits, idx, out);
  const float z = std::exp(5.0F) + std::exp(4.0F);
  EXPECT_NEAR(out[0], std::exp(5.0F) / z, 1e-6F);
  EXPECT_NEAR(out[1], std::exp(4.0F) / z, 1e-6F);
}

TEST(Ops, RmsnormUnitGainGivesUnitRms) {
  Rng rng(3);
  std::vector<float> x(64);
  for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 3.0));
  std::vector<float> gain(64, 1.0F);
  std::vector<float> out(64);
  rmsnorm(x, gain, 1e-6F, out);
  double ss = 0.0;
  for (float v : out) ss += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(ss / 64.0), 1.0, 1e-3);
}

TEST(Ops, RmsnormAppliesGain) {
  const std::vector<float> x = {2.0F, 2.0F};
  const std::vector<float> gain = {1.0F, 3.0F};
  std::vector<float> out(2);
  rmsnorm(x, gain, 0.0F, out);
  EXPECT_NEAR(out[1], 3.0F * out[0], 1e-5F);
}

TEST(Ops, SiluKnownValues) {
  EXPECT_NEAR(silu(0.0F), 0.0F, 1e-7F);
  EXPECT_NEAR(silu(10.0F), 10.0F, 1e-3F);   // approximately identity
  EXPECT_NEAR(silu(-10.0F), 0.0F, 1e-3F);   // approximately zero
}

void rope(std::vector<float>& x, int n_heads, int head_dim, int pos) {
  std::vector<float> cs(static_cast<std::size_t>(head_dim));
  rope_rotation(head_dim, pos, 1e4F, cs);
  rope_apply(x, n_heads, head_dim, cs);
}

TEST(Ops, RopePreservesNormAndIsPositionDependent) {
  Rng rng(4);
  std::vector<float> x(32);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const std::vector<float> orig = x;

  std::vector<float> x0 = orig;
  rope(x0, 2, 16, 0);
  EXPECT_EQ(x0, orig);  // position 0 is identity

  std::vector<float> x5 = orig;
  rope(x5, 2, 16, 5);
  EXPECT_NE(x5, orig);
  EXPECT_NEAR(l2_norm(x5), l2_norm(std::span<const float>(orig)), 1e-4F);
}

TEST(Ops, RopeRelativePhaseProperty) {
  // <rope(q, m), rope(k, n)> depends only on m - n for single-pair vectors.
  std::vector<float> q = {1.0F, 0.5F};
  std::vector<float> k = {0.3F, -0.7F};
  auto dotted = [&](int m, int n) {
    std::vector<float> qm = q;
    std::vector<float> kn = k;
    rope(qm, 1, 2, m);
    rope(kn, 1, 2, n);
    return dot(qm, kn);
  };
  EXPECT_NEAR(dotted(3, 1), dotted(7, 5), 1e-5F);
  EXPECT_NEAR(dotted(10, 0), dotted(12, 2), 1e-5F);
}

TEST(Ops, TopkOrderedDescendingDeterministicTies) {
  const std::vector<float> x = {1.0F, 5.0F, 5.0F, 0.0F, 4.0F};
  const auto top3 = topk_indices(x, 3);
  ASSERT_EQ(top3.size(), 3U);
  EXPECT_EQ(top3[0], 1);  // tie broken by lower index
  EXPECT_EQ(top3[1], 2);
  EXPECT_EQ(top3[2], 4);
}

TEST(Ops, TopkFullAndEmpty) {
  const std::vector<float> x = {2.0F, 1.0F};
  EXPECT_TRUE(topk_indices(x, 0).empty());
  const auto all = topk_indices(x, 2);
  EXPECT_EQ(std::vector<int>(all.begin(), all.end()),
            (std::vector<int>{0, 1}));
  EXPECT_THROW(topk_indices(x, 3), CheckError);
}

TEST(Ops, TopkRejectsKAboveInlineCapacity) {
  std::vector<float> x(2 * kMaxTopK);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const TopK full = topk_indices(x, kMaxTopK);
  ASSERT_EQ(full.size(), static_cast<std::size_t>(kMaxTopK));
  EXPECT_EQ(full.front(), 2 * kMaxTopK - 1);
  EXPECT_THROW(topk_indices(x, kMaxTopK + 1), CheckError);
}

/// The general repeated max-scan over (score desc, index asc), as
/// topk_indices ran it for every k before top-2 got its one-pass scan.
std::vector<int> general_topk_scan(std::span<const float> x, int k) {
  std::vector<int> out;
  float prev_x = 0.0F;
  int prev_i = -1;
  for (int round = 0; round < k; ++round) {
    int best = -1;
    float best_x = 0.0F;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float xi = x[i];
      const int ii = static_cast<int>(i);
      if (prev_i >= 0 && !(xi < prev_x || (xi == prev_x && ii > prev_i))) {
        continue;
      }
      if (best < 0 || xi > best_x) {
        best = ii;
        best_x = xi;
      }
    }
    out.push_back(best);
    prev_x = best_x;
    prev_i = best;
  }
  return out;
}

TEST(Ops, TopTwoEqualsGeneralScan) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(17);
  int rows = 0;
  for (const int e : {2, 3, 7, 8, 16, 256}) {
    const auto n = static_cast<std::size_t>(e);
    std::vector<std::vector<float>> cases;
    for (int r = 0; r < 50; ++r) {
      std::vector<float> random(n);
      std::vector<float> ties(n);
      std::vector<float> zeros(n);
      std::vector<float> infs(n);
      for (std::size_t i = 0; i < n; ++i) {
        random[i] = static_cast<float>(rng.normal());
        // Three distinct values: ties at the top, the second or both.
        ties[i] = static_cast<float>(rng.uniform_int(0, 2));
        zeros[i] = rng.uniform_int(0, 1) == 0 ? 0.0F : -0.0F;
        const int pick = rng.uniform_int(0, 3);
        infs[i] = pick == 0   ? inf
                  : pick == 1 ? -inf
                              : static_cast<float>(rng.normal());
      }
      cases.push_back(random);
      cases.push_back(ties);
      cases.push_back(zeros);
      cases.push_back(infs);
      cases.push_back(std::vector<float>(n, -inf));
      for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
        for (std::vector<float> row : {random, ties, infs}) {
          row[at] = nan;
          cases.push_back(row);
        }
      }
    }
    for (const std::vector<float>& x : cases) {
      const TopK top = topk_indices(x, 2);
      const std::vector<int> got(top.begin(), top.end());
      EXPECT_EQ(got, general_topk_scan(x, 2)) << "E=" << e;
      if (e >= 3) {
        // The library's general scan: its first two picks do not depend
        // on k.
        const TopK three = topk_indices(x, 3);
        EXPECT_EQ(got, std::vector<int>(three.begin(), three.begin() + 2))
            << "E=" << e;
      }
      ++rows;
    }
  }
  EXPECT_EQ(rows, 6 * 50 * (5 + 3 * 3));
}

TEST(Ops, InlineIdsRejectOverflow) {
  InlineIds<2> ids;
  ids.push_back(4);
  ids.push_back(1);
  EXPECT_TRUE(ids.contains(1));
  EXPECT_FALSE(ids.contains(2));
  EXPECT_THROW(ids.push_back(3), CheckError);
  ids.truncate(1);
  EXPECT_EQ(ids.size(), 1U);
  EXPECT_EQ(ids.back(), 4);
  EXPECT_THROW(ids.truncate(2), CheckError);
}

TEST(Ops, Argmax) {
  const std::vector<float> x = {0.5F, -1.0F, 3.0F, 3.0F};
  EXPECT_EQ(argmax(x), 2);  // first of equal maxima
}

// Property sweep: matmul equals matvec row-by-row across shapes.
class MatmulShapeTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapeTest, AgreesWithMatvecPerRow) {
  const auto [m, k, n] = GetParam();
  Rng rng(17);
  const Tensor a = Tensor::randn(m, k, rng, 1.0F);
  const Tensor bt = Tensor::randn(n, k, rng, 1.0F);  // rows = output dims
  Tensor b(k, n);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) b.at(i, j) = bt.at(j, i);
  }
  Tensor c(m, n);
  matmul(a, b, c);
  const PackedMatrix bt_packed = PackedMatrix::pack(bt);
  std::vector<float> y(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    matvec(bt_packed, a.row(i), y);
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(c.at(i, j), y[static_cast<std::size_t>(j)], 1e-4F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulShapeTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(1, 8, 3),
                                           std::make_tuple(4, 4, 4),
                                           std::make_tuple(16, 3, 1),
                                           std::make_tuple(9, 17, 5)));

}  // namespace
}  // namespace daop

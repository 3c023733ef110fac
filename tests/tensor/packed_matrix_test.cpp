// PackedMatrix layout and the packed GEMV/multi-row kernel. The kernel's
// contract is bit-identity with the scalar row loop kept below as the
// oracle, whatever the number of input rows, so every comparison here is a
// memcmp, not a tolerance.
#include "tensor/packed_matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace daop {
namespace {

/// y[r] = sum over c ascending of w[r][c] * x[c], from 0.0f, one float
/// rounding per multiply and per add.
std::vector<float> oracle_matvec(const Tensor& w, const std::vector<float>& x) {
  std::vector<float> y(static_cast<std::size_t>(w.rows()));
  for (std::int64_t r = 0; r < w.rows(); ++r) {
    float acc = 0.0F;
    for (std::int64_t c = 0; c < w.cols(); ++c) {
      acc += w.at(r, c) * x[static_cast<std::size_t>(c)];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

float from_bits(std::uint32_t bits) {
  float f = 0.0F;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::uint32_t to_bits(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// The NaN this machine's float unit produces for inf * 0. Using it as the
/// NaN input gives every NaN in a computation one bit pattern, so memcmp
/// stays meaningful whichever operand order an add or multiply uses.
float machine_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  volatile float zero = 0.0F;
  return inf * zero;
}

enum class Fill { Finite, ZerosAndSubnormals, Specials };

/// Gaussian values with every `stride`-th one replaced by a special value.
std::vector<float> sample(std::size_t n, Rng& rng, Fill fill,
                          std::size_t stride) {
  const float specials_zero[] = {0.0F, -0.0F,
                                 std::numeric_limits<float>::denorm_min(),
                                 -1e-40F, 3e-39F};
  const float specials_all[] = {0.0F,
                                -0.0F,
                                std::numeric_limits<float>::denorm_min(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(),
                                machine_nan()};
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.normal());
    if (fill == Fill::Finite || i % stride != stride - 1) continue;
    const std::size_t k = (i / stride) % (fill == Fill::Specials ? 6 : 5);
    v[i] = fill == Fill::Specials ? specials_all[k] : specials_zero[k];
  }
  return v;
}

TEST(PackedMatvec, MatchesScalarOracleBitForBit) {
  Rng rng(2024);
  int cases = 0;
  for (const int rows : {1, 7, 8, 15, 16, 17, 33, 256}) {
    for (const int cols : {1, 3, 64, 129}) {
      for (const Fill fill :
           {Fill::Finite, Fill::ZerosAndSubnormals, Fill::Specials}) {
        const auto n = static_cast<std::size_t>(rows) * cols;
        // Specials are sparse in the weights so most rows stay finite;
        // in x they hit every row.
        const std::vector<float> wv = sample(n, rng, fill, 37);
        const std::vector<float> x =
            sample(static_cast<std::size_t>(cols), rng, fill, 5);
        Tensor w(rows, cols);
        std::memcpy(w.data(), wv.data(), n * sizeof(float));

        const PackedMatrix packed = PackedMatrix::pack(w);
        std::vector<float> y(static_cast<std::size_t>(rows), -1.0F);
        matvec(packed, x, y);
        EXPECT_TRUE(same_bits(y, oracle_matvec(w, x)))
            << rows << "x" << cols << " fill " << static_cast<int>(fill);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 8 * 4 * 3);
}

TEST(PackedMatmul, MultiRowMatchesMatvecBitForBit) {
  Rng rng(2025);
  int cases = 0;
  for (const int rows : {1, 8, 15, 16, 17, 33, 256}) {
    for (const int cols : {1, 3, 64, 128}) {
      for (const int n : {1, 2, 3, 5, 24}) {
        for (const Fill fill : {Fill::ZerosAndSubnormals, Fill::Specials}) {
          const auto size = static_cast<std::size_t>(rows) * cols;
          const std::vector<float> wv = sample(size, rng, fill, 37);
          // NaN, +-inf, -0.0 and subnormals land in every input row.
          const std::vector<float> x =
              sample(static_cast<std::size_t>(n) * cols, rng, fill, 5);
          Tensor w(rows, cols);
          std::memcpy(w.data(), wv.data(), size * sizeof(float));
          const PackedMatrix packed = PackedMatrix::pack(w);

          std::vector<float> y(static_cast<std::size_t>(n) * rows, -1.0F);
          matmul(packed, x, n, y);
          for (int t = 0; t < n; ++t) {
            const auto cs = static_cast<std::size_t>(cols);
            const auto rs = static_cast<std::size_t>(rows);
            const std::vector<float> xt(x.begin() + t * cs,
                                        x.begin() + (t + 1) * cs);
            std::vector<float> one(rs, -2.0F);
            matvec(packed, xt, one);
            const std::vector<float> yt(y.begin() + t * rs,
                                        y.begin() + (t + 1) * rs);
            EXPECT_TRUE(same_bits(yt, one))
                << rows << "x" << cols << " n " << n << " row " << t;
            EXPECT_TRUE(same_bits(yt, oracle_matvec(w, xt)))
                << rows << "x" << cols << " n " << n << " row " << t;
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 7 * 4 * 5 * 2);
}

using MatmulFn = void (*)(const PackedMatrix&, std::span<const float>, int,
                          std::span<float>);

/// Runs one instantiation of the panel kernel over the shapes above x
/// n in {1..9, 24} (every row-block size and tail of both lane widths)
/// with NaN, +-inf, -0.0 and subnormal inputs, and memcmps each output row
/// against the scalar oracle; returns the number of cases.
int expect_kernel_matches_oracle(MatmulFn kernel, std::uint64_t seed) {
  Rng rng(seed);
  int cases = 0;
  for (const int rows : {1, 8, 15, 16, 17, 33, 256}) {
    for (const int cols : {1, 3, 64, 128}) {
      for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 24}) {
        for (const Fill fill : {Fill::ZerosAndSubnormals, Fill::Specials}) {
          const auto size = static_cast<std::size_t>(rows) * cols;
          const std::vector<float> wv = sample(size, rng, fill, 37);
          const std::vector<float> x =
              sample(static_cast<std::size_t>(n) * cols, rng, fill, 5);
          Tensor w(rows, cols);
          std::memcpy(w.data(), wv.data(), size * sizeof(float));
          std::vector<float> y(static_cast<std::size_t>(n) * rows, -1.0F);
          kernel(PackedMatrix::pack(w), x, n, y);
          const auto cs = static_cast<std::size_t>(cols);
          const auto rs = static_cast<std::size_t>(rows);
          for (int t = 0; t < n; ++t) {
            const std::vector<float> xt(x.begin() + t * cs,
                                        x.begin() + (t + 1) * cs);
            const std::vector<float> yt(y.begin() + t * rs,
                                        y.begin() + (t + 1) * rs);
            EXPECT_TRUE(same_bits(yt, oracle_matvec(w, xt)))
                << rows << "x" << cols << " n " << n << " row " << t;
          }
          ++cases;
        }
      }
    }
  }
  return cases;
}

TEST(PackedMatmul, Lanes4MatchesScalarOracleBitForBit) {
  EXPECT_EQ(expect_kernel_matches_oracle(matmul_lanes4, 2026), 7 * 4 * 10 * 2);
}

TEST(PackedMatmul, Lanes8MatchesScalarOracleBitForBit) {
  if (!lanes8_supported()) GTEST_SKIP() << "this host has no AVX2";
  EXPECT_EQ(expect_kernel_matches_oracle(matmul_lanes8, 2026), 7 * 4 * 10 * 2);
}

TEST(PackedMatmul, Lanes8RejectsBadShapes) {
  if (!lanes8_supported()) GTEST_SKIP() << "this host has no AVX2";
  const PackedMatrix p(4, 3);
  std::vector<float> x(6);
  std::vector<float> y(8);
  EXPECT_NO_THROW(matmul_lanes8(p, x, 2, y));
  EXPECT_THROW(matmul_lanes8(p, x, 3, y), CheckError);
  EXPECT_THROW(matmul_lanes4(p, x, 2, std::span<float>(y).first(4)),
               CheckError);
}

TEST(PackedMatvec, KnownAnswerRulesOutFusedMultiplyAdd) {
  // Row: [-(1 + 2^-11), 1 + 2^-12, 2^-20] against x = [1, 1 + 2^-12, 1].
  // Separately rounded: (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24 rounds to
  // 1 + 2^-11 (tie to even), cancelling column 0 exactly, so y = 2^-20.
  // A fused multiply-add keeps the 2^-24 and gives 2^-20 + 2^-24.
  const float a = from_bits(0x3F800800U);  // 1 + 2^-12
  const float b = from_bits(0xBF801000U);  // -(1 + 2^-11)
  const float c = from_bits(0x35800000U);  // 2^-20
  const int rows = 17;  // one full panel and one padded panel
  Tensor w(rows, 3);
  for (int r = 0; r < rows; ++r) {
    w.at(r, 0) = b;
    w.at(r, 1) = a;
    w.at(r, 2) = c;
  }
  const std::vector<float> x = {1.0F, a, 1.0F};
  std::vector<float> y(rows);
  matvec(PackedMatrix::pack(w), x, y);
  for (int r = 0; r < rows; ++r) {
    EXPECT_EQ(to_bits(y[static_cast<std::size_t>(r)]), 0x35800000U)
        << "row " << r;
  }
}

TEST(PackedMatrix, PackUnpackRoundTrip) {
  Rng rng(5);
  for (const int rows : {1, 15, 16, 17, 40}) {
    for (const int cols : {1, 9, 64}) {
      const Tensor w = Tensor::randn(rows, cols, rng, 1.0F);
      const PackedMatrix p = PackedMatrix::pack(w);
      EXPECT_EQ(p.rows(), rows);
      EXPECT_EQ(p.cols(), cols);
      EXPECT_EQ(p.panels(), (rows + 15) / 16);
      const Tensor back = p.unpack();
      ASSERT_EQ(back.shape(), w.shape());
      const auto bytes = static_cast<std::size_t>(w.numel()) * sizeof(float);
      EXPECT_EQ(std::memcmp(back.data(), w.data(), bytes), 0);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          EXPECT_EQ(to_bits(p.at(r, c)), to_bits(w.at(r, c)));
        }
      }
    }
  }
}

TEST(PackedMatrix, LastPanelIsZeroPadded) {
  Rng rng(6);
  const PackedMatrix p = PackedMatrix::pack(Tensor::randn(17, 5, rng, 1.0F));
  ASSERT_EQ(p.panels(), 2);
  const float* last = p.panel(1);
  for (int c = 0; c < 5; ++c) {
    EXPECT_EQ(last[c * 16], p.at(16, c));
    for (int lane = 1; lane < 16; ++lane) {
      EXPECT_EQ(to_bits(last[c * 16 + lane]), 0U);
    }
  }
}

TEST(PackedMatrix, RandnDrawsInRowMajorOrder) {
  Rng a(9);
  Rng b(9);
  const PackedMatrix p = PackedMatrix::randn(20, 7, a, 0.5F);
  const Tensor t = Tensor::randn(20, 7, b, 0.5F);
  const Tensor back = p.unpack();
  EXPECT_EQ(std::memcmp(back.data(), t.data(),
                        static_cast<std::size_t>(t.numel()) * sizeof(float)),
            0);
  EXPECT_EQ(a.next_u64(), b.next_u64());  // same number of draws
}

TEST(PackedMatrix, ShapeChecks) {
  const PackedMatrix p(4, 3);
  std::vector<float> x(3);
  std::vector<float> y(4);
  std::vector<float> bad(5);
  EXPECT_NO_THROW(matvec(p, x, y));
  EXPECT_THROW(matvec(p, bad, y), CheckError);
  EXPECT_THROW(matvec(p, x, bad), CheckError);
  std::vector<float> x2(6);
  std::vector<float> y2(8);
  EXPECT_NO_THROW(matmul(p, x2, 2, y2));
  EXPECT_THROW(matmul(p, x2, 3, y2), CheckError);
  EXPECT_THROW(matmul(p, x2, 2, y), CheckError);
  EXPECT_THROW(matmul(p, {}, 0, {}), CheckError);
  EXPECT_THROW(p.at(4, 0), CheckError);
  EXPECT_THROW(PackedMatrix::pack(Tensor(3)), CheckError);
}

}  // namespace
}  // namespace daop

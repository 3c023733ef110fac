#include "tensor/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace daop {
namespace {

TEST(Quant, RoundTripWithinScaleQuantum) {
  Rng rng(1);
  const Tensor w = Tensor::randn(16, 128, rng, 0.5F);
  const QuantSpec spec{8, 64};
  const Tensor deq = QuantizedTensor::quantize(w, spec).dequantize();
  const int qmax = 127;
  for (std::int64_t r = 0; r < w.rows(); ++r) {
    for (std::int64_t c = 0; c < w.cols(); ++c) {
      // Error bounded by half a quantization step of the group's scale.
      // The scale is at most group_absmax / qmax <= row_absmax / qmax.
      float absmax = 0.0F;
      for (std::int64_t cc = 0; cc < w.cols(); ++cc) {
        absmax = std::max(absmax, std::abs(w.at(r, cc)));
      }
      EXPECT_NEAR(deq.at(r, c), w.at(r, c), absmax / qmax * 0.51F);
    }
  }
}

TEST(Quant, FewerBitsMoreError) {
  Rng rng(2);
  const Tensor w = Tensor::randn(8, 256, rng, 1.0F);
  double prev = 0.0;
  for (int bits : {8, 6, 4, 3, 2}) {
    const double err = quantization_rms_error(w, QuantSpec{bits, 64});
    EXPECT_GT(err, prev) << bits;
    prev = err;
  }
  // int8 grouped error is small, 2-bit error is large.
  EXPECT_LT(quantization_rms_error(w, (QuantSpec{8, 64})), 0.01);
  EXPECT_GT(quantization_rms_error(w, (QuantSpec{2, 64})), 0.15);
}

TEST(Quant, SmallerGroupsLowerError) {
  Rng rng(3);
  const Tensor w = Tensor::randn(8, 256, rng, 1.0F);
  EXPECT_LE(quantization_rms_error(w, (QuantSpec{4, 16})),
            quantization_rms_error(w, (QuantSpec{4, 256})));
}

TEST(Quant, MatvecMatchesDequantizedMatvec) {
  Rng rng(4);
  const Tensor w = Tensor::randn(24, 100, rng, 0.3F);  // non-multiple group
  const QuantSpec spec{6, 32};
  const QuantizedTensor qt = QuantizedTensor::quantize(w, spec);
  const Tensor deq = qt.dequantize();
  std::vector<float> x(100);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> y_quant(24);
  std::vector<float> y_ref(24);
  qt.matvec(x, y_quant);
  matvec(PackedMatrix::pack(deq), x, y_ref);
  for (int r = 0; r < 24; ++r) {
    EXPECT_NEAR(y_quant[static_cast<std::size_t>(r)],
                y_ref[static_cast<std::size_t>(r)], 1e-3F);
  }
}

TEST(Quant, ZeroMatrixIsExact) {
  const Tensor w(4, 32);
  EXPECT_EQ(quantization_rms_error(w, (QuantSpec{4, 16})), 0.0);
  const Tensor deq = QuantizedTensor::quantize(w, (QuantSpec{4, 16})).dequantize();
  for (std::int64_t i = 0; i < w.numel(); ++i) EXPECT_EQ(deq.data()[i], 0.0F);
}

TEST(Quant, BytesPerWeightAccounting) {
  EXPECT_NEAR((QuantSpec{8, 64}).bytes_per_weight(), 1.0 + 2.0 / 64, 1e-12);
  EXPECT_NEAR((QuantSpec{4, 64}).bytes_per_weight(), 0.5 + 2.0 / 64, 1e-12);
  // 4-bit grouped weights are ~3.8x smaller than fp16.
  EXPECT_LT((QuantSpec{4, 64}).bytes_per_weight() / 2.0, 0.27);
}

TEST(Quant, RejectsBadSpecs) {
  Rng rng(5);
  const Tensor w = Tensor::randn(2, 8, rng, 1.0F);
  EXPECT_THROW(QuantizedTensor::quantize(w, (QuantSpec{1, 8})), CheckError);
  EXPECT_THROW(QuantizedTensor::quantize(w, (QuantSpec{9, 8})), CheckError);
  EXPECT_THROW(QuantizedTensor::quantize(w, (QuantSpec{4, 0})), CheckError);
  const Tensor v(8);  // rank 1
  EXPECT_THROW(QuantizedTensor::quantize(v, (QuantSpec{4, 8})), CheckError);
}

TEST(Quant, MatvecShapeChecked) {
  Rng rng(6);
  const Tensor w = Tensor::randn(4, 8, rng, 1.0F);
  const QuantizedTensor qt = QuantizedTensor::quantize(w, (QuantSpec{8, 4}));
  std::vector<float> x(7);
  std::vector<float> y(4);
  EXPECT_THROW(qt.matvec(x, y), CheckError);
}

}  // namespace
}  // namespace daop

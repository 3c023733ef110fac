#include "tensor/packed_matrix.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace daop {

PackedMatrix::PackedMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols) {
  DAOP_CHECK_GE(rows, 0);
  DAOP_CHECK_GE(cols, 0);
  data_.assign(static_cast<std::size_t>(panels() * cols * kPanelRows), 0.0F);
}

PackedMatrix PackedMatrix::pack(const Tensor& w) {
  DAOP_CHECK_EQ(w.rank(), 2);
  PackedMatrix p(w.rows(), w.cols());
  const float* src = w.data();
  for (std::int64_t r = 0; r < p.rows_; ++r) {
    float* dst = p.row_start(r);
    for (std::int64_t c = 0; c < p.cols_; ++c) dst[c * kPanelRows] = *src++;
  }
  return p;
}

PackedMatrix PackedMatrix::randn(std::int64_t rows, std::int64_t cols,
                                 Rng& rng, float stddev) {
  PackedMatrix p(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    float* dst = p.row_start(r);
    for (std::int64_t c = 0; c < cols; ++c) {
      dst[c * kPanelRows] = static_cast<float>(rng.normal(0.0, stddev));
    }
  }
  return p;
}

float PackedMatrix::at(std::int64_t r, std::int64_t c) const {
  DAOP_CHECK(r >= 0 && r < rows_);
  DAOP_CHECK(c >= 0 && c < cols_);
  return data_[static_cast<std::size_t>(slot(r, c))];
}

Tensor PackedMatrix::unpack() const {
  Tensor t(rows_, cols_);
  float* dst = t.data();
  for (std::int64_t r = 0; r < rows_; ++r) {
    const float* src = data_.data() + slot(r, 0);
    for (std::int64_t c = 0; c < cols_; ++c) *dst++ = src[c * kPanelRows];
  }
  return t;
}

}  // namespace daop

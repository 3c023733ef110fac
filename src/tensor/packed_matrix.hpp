// Panel-packed float32 matrix: the storage of every projection the
// functional model multiplies by a vector.
//
// Rows are grouped into panels of kPanelRows. Within a panel the values are
// stored column by column, kPanelRows consecutive floats per column, so the
// GEMV kernel (daop::matvec in tensor/ops.hpp) reads one contiguous stream
// and updates kPanelRows independent row accumulators per column. The last
// panel is zero-padded when rows is not a multiple of kPanelRows.
//
//   slot(r, c) = ((r / kPanelRows) * cols + c) * kPanelRows + r % kPanelRows
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace daop {

class Rng;

class PackedMatrix {
 public:
  static constexpr std::int64_t kPanelRows = 16;

  PackedMatrix() = default;

  /// [rows, cols] of zeros.
  PackedMatrix(std::int64_t rows, std::int64_t cols);

  /// Packs a rank-2 row-major tensor.
  static PackedMatrix pack(const Tensor& w);

  /// Gaussian init drawn in row-major order, so the values equal
  /// Tensor::randn(rows, cols, rng, stddev) for the same rng state.
  static PackedMatrix randn(std::int64_t rows, std::int64_t cols, Rng& rng,
                            float stddev);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t panels() const {
    return (rows_ + kPanelRows - 1) / kPanelRows;
  }

  float at(std::int64_t r, std::int64_t c) const;

  /// The row-major [rows, cols] tensor this matrix holds.
  Tensor unpack() const;

  /// Start of panel `p` (0 <= p < panels()): cols * kPanelRows floats,
  /// column-major within it.
  const float* panel(std::int64_t p) const {
    return data_.data() + p * cols_ * kPanelRows;
  }

 private:
  std::int64_t slot(std::int64_t r, std::int64_t c) const {
    return ((r / kPanelRows) * cols_ + c) * kPanelRows + r % kPanelRows;
  }
  /// Column 0 of row r; column c is kPanelRows * c floats further on.
  float* row_start(std::int64_t r) { return data_.data() + slot(r, 0); }

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<float> data_;  ///< panels() * cols * kPanelRows floats
};

}  // namespace daop

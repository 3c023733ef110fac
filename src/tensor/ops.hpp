// Numerical kernels for the functional MoE model.
//
// All kernels operate on float spans / Tensor views and are deterministic:
// reductions use a fixed accumulation order so results are identical across
// runs and thread counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "tensor/packed_matrix.hpp"
#include "tensor/tensor.hpp"

namespace daop {

// ---- GEMV / GEMM -----------------------------------------------------------

/// Y = X * W^T for `n` input rows: W is [rows, cols], x holds n rows of
/// `cols` floats and y n rows of `rows` floats, both row-major. Every
/// y[t][r] is the scalar chain acc = 0.0f; acc += W[r][c] * x[t][c] for c
/// ascending, each product and sum rounded to float, so results are
/// bit-identical to that loop whatever n is; the panel layout only runs
/// kPanelRows such chains side by side in vector lanes, and several input
/// rows share each pass over a panel's weights. Runs matmul_lanes8 on a
/// host with AVX2 and matmul_lanes4 elsewhere, chosen once per process.
void matmul(const PackedMatrix& w, std::span<const float> x, int n,
            std::span<float> y);

/// The two instantiations of matmul's panel kernel, with equal results:
/// 4-float lanes in blocks of two input rows (SSE on x86-64, NEON on
/// AArch64), and 8-float AVX2 lanes in blocks of four rows with two- and
/// one-row tails. matmul_lanes8 requires lanes8_supported().
void matmul_lanes4(const PackedMatrix& w, std::span<const float> x, int n,
                   std::span<float> y);
void matmul_lanes8(const PackedMatrix& w, std::span<const float> x, int n,
                   std::span<float> y);

/// True on an x86 host whose CPU has AVX2.
bool lanes8_supported();

/// y = W * x: the n = 1 case of matmul.
inline void matvec(const PackedMatrix& w, std::span<const float> x,
                   std::span<float> y) {
  matmul(w, x, 1, y);
}

/// y = W^T * x where W is [rows, cols] and x has `rows` elements.
void matvec_transposed(const Tensor& w, std::span<const float> x,
                       std::span<float> y);

/// C = A * B with A [m,k], B [k,n]; C must be preallocated [m,n].
/// Parallelized over rows of A via the global thread pool.
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

// ---- Elementwise / reductions ----------------------------------------------

void add_inplace(std::span<float> a, std::span<const float> b);
void scale_inplace(std::span<float> a, float s);
/// a += s * b
void axpy_inplace(std::span<float> a, float s, std::span<const float> b);

float dot(std::span<const float> a, std::span<const float> b);
float l2_norm(std::span<const float> a);

/// Cosine similarity; returns 0 when either vector is all-zero.
double cosine_similarity(std::span<const float> a, std::span<const float> b);
double cosine_similarity(std::span<const double> a, std::span<const double> b);

/// In-place numerically stable softmax.
void softmax_inplace(std::span<float> x);

/// Softmax restricted to `idx` entries of x (others untouched); used for
/// renormalizing top-k gate scores. Writes normalized probabilities into out
/// (same length as idx).
void softmax_subset(std::span<const float> x, std::span<const int> idx,
                    std::span<float> out);

// ---- Normalization / activations -------------------------------------------

/// RMSNorm: out = x / rms(x) * gain (gain has the same length as x).
void rmsnorm(std::span<const float> x, std::span<const float> gain,
             float eps, std::span<float> out);

float silu(float x);
void silu_inplace(std::span<float> x);

// ---- Rotary position embedding ---------------------------------------------

/// The RoPE rotation at position `pos`: for each pair (2i, 2i+1) of a head
/// (standard LLaMA/Mixtral convention), cs[2i] = cos and cs[2i+1] = sin of
/// its angle pos * theta^(-2i / head_dim); head_dim floats. Every head, and
/// the queries and keys of one position, share it.
void rope_rotation(int head_dim, int pos, float theta, std::span<float> cs);

/// Rotates every head of a [n_heads * head_dim] vector in place by a
/// rope_rotation table.
void rope_apply(std::span<float> x, int n_heads, int head_dim,
                std::span<const float> cs);

// ---- Selection ---------------------------------------------------------------

/// Largest top_k an inline id list holds. MoE routers select a handful of
/// experts per token (every shipped config uses 2); a larger top_k is
/// rejected with CheckError wherever a config or trace enters.
inline constexpr int kMaxTopK = 8;

/// Fixed-capacity list of expert ids stored inline: copying, returning and
/// shrinking it never touches the heap. push_back beyond `Capacity` raises
/// CheckError.
template <int Capacity>
class InlineIds {
 public:
  using value_type = int;
  using iterator = const int*;
  using const_iterator = const int*;

  std::size_t size() const { return static_cast<std::size_t>(n_); }
  bool empty() const { return n_ == 0; }
  const int* begin() const { return ids_; }
  const int* end() const { return ids_ + n_; }
  int operator[](std::size_t i) const { return ids_[i]; }
  int front() const { return ids_[0]; }
  int back() const { return ids_[n_ - 1]; }
  bool contains(int id) const {
    for (int i = 0; i < n_; ++i) {
      if (ids_[i] == id) return true;
    }
    return false;
  }

  void push_back(int id) {
    DAOP_CHECK_LT(n_, Capacity);
    ids_[n_++] = id;
  }
  void pop_back() { --n_; }
  /// Keeps the first `n` ids (n <= size()).
  void truncate(std::size_t n) {
    DAOP_CHECK_LE(n, size());
    n_ = static_cast<int>(n);
  }

  operator std::span<const int>() const { return {ids_, size()}; }

  friend bool operator==(const InlineIds& a, const InlineIds& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  int ids_[Capacity] = {};
  int n_ = 0;
};

/// Top-k expert ids of one router call.
using TopK = InlineIds<kMaxTopK>;

/// Indices of the k largest values, ordered by descending value
/// (ties broken by lower index, making selection deterministic).
/// Requires k <= min(x.size(), kMaxTopK).
TopK topk_indices(std::span<const float> x, int k);

int argmax(std::span<const float> x);

}  // namespace daop

#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace daop {

namespace {

// Float vectors of four and eight lanes: SSE (or NEON) and AVX registers.
// GCC keeps lane arithmetic IEEE (no reassociation without -ffast-math, no
// fused multiply-add under -ffp-contract=off), so each lane is one
// independent scalar accumulator chain.
typedef float Vec4 __attribute__((vector_size(16)));
typedef float Vec8 __attribute__((vector_size(32)));

// The scalar chains of R input rows (starting at row t of x) against panel
// p: R * kPanelRows independent chains in V-wide accumulators, each weight
// vector loaded once for all R rows. Every chain starts at 0.0f and adds
// W[r][c] * x[c] for c ascending. Always inlined, so the caller's target
// decides the instructions it compiles to.
template <typename V, int R>
[[gnu::always_inline]] inline void panel_block(const PackedMatrix& w,
                                               std::int64_t p, const float* x,
                                               int t, float* y) {
  constexpr std::int64_t kRows = PackedMatrix::kPanelRows;
  constexpr int kLanes = sizeof(V) / sizeof(float);
  constexpr int kVecs = kRows / kLanes;
  const std::int64_t rows = w.rows();
  const std::int64_t cols = w.cols();
  const float* wp = w.panel(p);
  const float* xr[R];
  for (int r = 0; r < R; ++r) xr[r] = x + (t + r) * cols;
  V acc[R][kVecs] = {};
  for (std::int64_t c = 0; c < cols; ++c, wp += kRows) {
    V u[R];
    for (int r = 0; r < R; ++r) {
      // A broadcast of x[c] (GCC 12 warns on an 8-float initializer list
      // here).
      float lanes[kLanes];
      std::fill(lanes, lanes + kLanes, xr[r][c]);
      std::memcpy(&u[r], lanes, sizeof(V));
    }
    for (int j = 0; j < kVecs; ++j) {
      V wv;
      std::memcpy(&wv, wp + kLanes * j, sizeof(wv));
      for (int r = 0; r < R; ++r) acc[r][j] += wv * u[r];
    }
  }
  const std::int64_t r0 = p * kRows;
  for (int r = 0; r < R; ++r) {
    float lanes[kRows];
    std::memcpy(lanes, acc[r], sizeof(lanes));
    // The zero-padded rows past the matrix's end are dropped.
    std::copy(lanes, lanes + std::min(kRows, rows - r0),
              y + (t + r) * rows + r0);
  }
}

void check_matmul_shapes(const PackedMatrix& w, std::span<const float> x,
                         int n, std::span<float> y) {
  DAOP_CHECK_GE(n, 1);
  DAOP_CHECK_EQ(static_cast<std::int64_t>(x.size()), n * w.cols());
  DAOP_CHECK_EQ(static_cast<std::int64_t>(y.size()), n * w.rows());
}

void matmul_unchecked_lanes4(const PackedMatrix& w, const float* x, int n,
                             float* y) {
  for (std::int64_t p = 0; p < w.panels(); ++p) {
    // Two input rows per pass over the panel: eight chains, one weight
    // load; an odd last row (a decode step's only row) goes alone.
    int t = 0;
    for (; t + 2 <= n; t += 2) panel_block<Vec4, 2>(w, p, x, t, y);
    if (t < n) panel_block<Vec4, 1>(w, p, x, t, y);
  }
}

#if defined(__x86_64__) || defined(__i386__)
#define DAOP_HAVE_LANES8 1

[[gnu::target("avx2")]] void matmul_unchecked_lanes8(const PackedMatrix& w,
                                                    const float* x, int n,
                                                    float* y) {
  for (std::int64_t p = 0; p < w.panels(); ++p) {
    // Four input rows per pass: eight chains of two 8-lane halves each.
    // At one row the two halves are only two chains, add-latency bound;
    // rows of lockstep sequences fill the block.
    int t = 0;
    for (; t + 4 <= n; t += 4) panel_block<Vec8, 4>(w, p, x, t, y);
    if (t + 2 <= n) {
      panel_block<Vec8, 2>(w, p, x, t, y);
      t += 2;
    }
    if (t < n) panel_block<Vec8, 1>(w, p, x, t, y);
  }
}
#endif

using MatmulKernel = void (*)(const PackedMatrix&, const float*, int, float*);

MatmulKernel pick_matmul_kernel() {
#ifdef DAOP_HAVE_LANES8
  if (lanes8_supported()) return matmul_unchecked_lanes8;
#endif
  return matmul_unchecked_lanes4;
}

}  // namespace

bool lanes8_supported() {
#ifdef DAOP_HAVE_LANES8
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

void matmul_lanes4(const PackedMatrix& w, std::span<const float> x, int n,
                   std::span<float> y) {
  check_matmul_shapes(w, x, n, y);
  matmul_unchecked_lanes4(w, x.data(), n, y.data());
}

void matmul_lanes8(const PackedMatrix& w, std::span<const float> x, int n,
                   std::span<float> y) {
  DAOP_CHECK(lanes8_supported());
  check_matmul_shapes(w, x, n, y);
#ifdef DAOP_HAVE_LANES8
  matmul_unchecked_lanes8(w, x.data(), n, y.data());
#endif
}

void matmul(const PackedMatrix& w, std::span<const float> x, int n,
            std::span<float> y) {
  static_assert(PackedMatrix::kPanelRows == 16, "whole vectors per panel");
  // Chosen once per process.
  static const MatmulKernel kernel = pick_matmul_kernel();
  check_matmul_shapes(w, x, n, y);
  kernel(w, x.data(), n, y.data());
}

void matvec_transposed(const Tensor& w, std::span<const float> x,
                       std::span<float> y) {
  DAOP_CHECK_EQ(w.rank(), 2);
  DAOP_CHECK_EQ(static_cast<std::int64_t>(x.size()), w.rows());
  DAOP_CHECK_EQ(static_cast<std::int64_t>(y.size()), w.cols());
  const std::int64_t rows = w.rows();
  const std::int64_t cols = w.cols();
  std::fill(y.begin(), y.end(), 0.0F);
  const float* wd = w.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float xr = x[static_cast<std::size_t>(r)];
    if (xr == 0.0F) continue;
    const float* wr = wd + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) y[static_cast<std::size_t>(c)] += xr * wr[c];
  }
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  DAOP_CHECK_EQ(a.rank(), 2);
  DAOP_CHECK_EQ(b.rank(), 2);
  DAOP_CHECK_EQ(c.rank(), 2);
  DAOP_CHECK_EQ(a.cols(), b.rows());
  DAOP_CHECK_EQ(c.rows(), a.rows());
  DAOP_CHECK_EQ(c.cols(), b.cols());
  const std::int64_t m = a.rows();
  const std::int64_t k = a.cols();
  const std::int64_t n = b.cols();
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();

  ThreadPool::global().parallel_for(m, [&](std::int64_t i) {
    float* crow = cd + i * n;
    std::fill(crow, crow + n, 0.0F);
    const float* arow = ad + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0F) continue;
      const float* brow = bd + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
}

void add_inplace(std::span<float> a, std::span<const float> b) {
  DAOP_CHECK_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void scale_inplace(std::span<float> a, float s) {
  for (auto& v : a) v *= s;
}

void axpy_inplace(std::span<float> a, float s, std::span<const float> b) {
  DAOP_CHECK_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

float dot(std::span<const float> a, std::span<const float> b) {
  DAOP_CHECK_EQ(a.size(), b.size());
  float acc = 0.0F;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

float l2_norm(std::span<const float> a) { return std::sqrt(dot(a, a)); }

namespace {

template <typename T>
double cosine_impl(std::span<const T> a, std::span<const T> b) {
  DAOP_CHECK_EQ(a.size(), b.size());
  double ab = 0.0;
  double aa = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ab += static_cast<double>(a[i]) * b[i];
    aa += static_cast<double>(a[i]) * a[i];
    bb += static_cast<double>(b[i]) * b[i];
  }
  if (aa == 0.0 || bb == 0.0) return 0.0;
  return ab / (std::sqrt(aa) * std::sqrt(bb));
}

}  // namespace

double cosine_similarity(std::span<const float> a, std::span<const float> b) {
  return cosine_impl(a, b);
}

double cosine_similarity(std::span<const double> a,
                         std::span<const double> b) {
  return cosine_impl(a, b);
}

void softmax_inplace(std::span<float> x) {
  DAOP_CHECK(!x.empty());
  float mx = x[0];
  for (float v : x) mx = std::max(mx, v);
  float sum = 0.0F;
  for (auto& v : x) {
    v = std::exp(v - mx);
    sum += v;
  }
  for (auto& v : x) v /= sum;
}

void softmax_subset(std::span<const float> x, std::span<const int> idx,
                    std::span<float> out) {
  DAOP_CHECK_EQ(idx.size(), out.size());
  DAOP_CHECK(!idx.empty());
  float mx = x[static_cast<std::size_t>(idx[0])];
  for (int i : idx) {
    DAOP_CHECK(i >= 0 && static_cast<std::size_t>(i) < x.size());
    mx = std::max(mx, x[static_cast<std::size_t>(i)]);
  }
  float sum = 0.0F;
  for (std::size_t j = 0; j < idx.size(); ++j) {
    out[j] = std::exp(x[static_cast<std::size_t>(idx[j])] - mx);
    sum += out[j];
  }
  for (auto& v : out) v /= sum;
}

void rmsnorm(std::span<const float> x, std::span<const float> gain, float eps,
             std::span<float> out) {
  DAOP_CHECK_EQ(x.size(), gain.size());
  DAOP_CHECK_EQ(x.size(), out.size());
  double ss = 0.0;
  for (float v : x) ss += static_cast<double>(v) * v;
  const float inv =
      1.0F / std::sqrt(static_cast<float>(ss / static_cast<double>(x.size())) + eps);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * inv * gain[i];
}

float silu(float x) { return x / (1.0F + std::exp(-x)); }

void silu_inplace(std::span<float> x) {
  for (auto& v : x) v = silu(v);
}

void rope_rotation(int head_dim, int pos, float theta, std::span<float> cs) {
  DAOP_CHECK_EQ(head_dim % 2, 0);
  DAOP_CHECK_EQ(static_cast<int>(cs.size()), head_dim);
  for (int i = 0; i < head_dim; i += 2) {
    const float freq =
        std::pow(theta, -static_cast<float>(i) / static_cast<float>(head_dim));
    const float angle = static_cast<float>(pos) * freq;
    cs[static_cast<std::size_t>(i)] = std::cos(angle);
    cs[static_cast<std::size_t>(i) + 1] = std::sin(angle);
  }
}

void rope_apply(std::span<float> x, int n_heads, int head_dim,
                std::span<const float> cs) {
  DAOP_CHECK_EQ(static_cast<int>(x.size()), n_heads * head_dim);
  DAOP_CHECK_EQ(static_cast<int>(cs.size()), head_dim);
  for (int h = 0; h < n_heads; ++h) {
    float* base = x.data() + static_cast<std::size_t>(h) * head_dim;
    for (int i = 0; i < head_dim; i += 2) {
      const float c = cs[static_cast<std::size_t>(i)];
      const float s = cs[static_cast<std::size_t>(i) + 1];
      const float x0 = base[i];
      const float x1 = base[i + 1];
      base[i] = x0 * c - x1 * s;
      base[i + 1] = x0 * s + x1 * c;
    }
  }
}

namespace {

// Repeated max-scan over the strict total order (score desc, index asc).
// (score, index) pairs are distinct, so the top-k sequence is uniquely
// determined and this matches a partial_sort with the same comparator
// exactly — but with no index scratch and O(k*n) work, which wins for MoE
// routing's tiny k (top-2 of 8 experts) on the hottest call site in the
// simulator (every token × layer of every generated trace).
TopK topk_scan(std::span<const float> x, int k) {
  TopK out;
  float prev_x = 0.0f;
  int prev_i = -1;
  for (int round = 0; round < k; ++round) {
    int best = -1;
    float best_x = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float xi = x[i];
      const int ii = static_cast<int>(i);
      // Only elements ranked strictly after the previous pick remain.
      if (prev_i >= 0 && !(xi < prev_x || (xi == prev_x && ii > prev_i))) {
        continue;
      }
      // Ascending scan + strict improvement keeps the lowest index on ties.
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

}  // namespace

TopK topk_indices(std::span<const float> x, int k) {
  DAOP_CHECK_GE(k, 0);
  DAOP_CHECK_LE(static_cast<std::size_t>(k), x.size());
  DAOP_CHECK_LE(k, kMaxTopK);
  if (k != 2) return topk_scan(x, k);
  // Top-2 (every shipped config) in one ascending scan that keeps the best
  // two under the same order: a strictly greater score displaces, so an
  // equal one keeps the lower index. Without NaN the order is total and
  // this equals topk_scan; a NaN row takes topk_scan itself.
  int i1 = 0;
  int i2 = 1;
  float x1 = x[0];
  float x2 = x[1];
  bool nan = x1 != x1 || x2 != x2;
  if (x2 > x1) {
    std::swap(i1, i2);
    std::swap(x1, x2);
  }
  for (std::size_t i = 2; i < x.size(); ++i) {
    const float xi = x[i];
    nan |= xi != xi;
    if (xi > x2) {
      if (xi > x1) {
        i2 = i1;
        x2 = x1;
        i1 = static_cast<int>(i);
        x1 = xi;
      } else {
        i2 = static_cast<int>(i);
        x2 = xi;
      }
    }
  }
  if (nan) return topk_scan(x, 2);
  TopK out;
  out.push_back(i1);
  out.push_back(i2);
  return out;
}

int argmax(std::span<const float> x) {
  DAOP_CHECK(!x.empty());
  int best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
  }
  return best;
}

}  // namespace daop

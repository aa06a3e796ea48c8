#include "ml/tensor.h"

#include <algorithm>

#include "ml/simd.h"

namespace lshap {

Tensor Tensor::Randn(size_t rows, size_t cols, float stddev, Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.data_) {
    v = static_cast<float>(rng.NextGaussian()) * stddev;
  }
  return t;
}

void Tensor::Add(const Tensor& other) {
  LSHAP_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::AddScaled(const Tensor& other, float scale) {
  LSHAP_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void Tensor::Scale(float s) {
  for (float& v : data_) v *= s;
}

namespace {

// Copies the rows×cols matrix at src (row stride ld) transposed into a
// per-thread buffer and returns it (cols×rows, dense). The buffer only
// grows, so a thread's steady-state backward passes allocate nothing.
const float* TransposeToScratch(const float* src, size_t rows, size_t cols,
                                size_t ld) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < rows * cols) scratch.resize(rows * cols);
  float* dst = scratch.data();
  for (size_t r = 0; r < rows; ++r) {
    const float* srow = src + r * ld;
    for (size_t c = 0; c < cols; ++c) dst[c * rows + r] = srow[c];
  }
  return dst;
}

}  // namespace

void Gemm(size_t n, size_t k, size_t m, const float* a, size_t lda,
          const float* b, size_t ldb, float* c, size_t ldc) {
  SimdKernels().gemm_f32(n, k, m, a, lda, 1, b, ldb, c, ldc);
}

void GemmABT(size_t n, size_t k, size_t m, const float* a, size_t lda,
             const float* b, size_t ldb, float* c, size_t ldc) {
  // The kernel streams B's rows as vectors, so Bᵀ has to be materialized.
  Gemm(n, k, m, a, lda, TransposeToScratch(b, m, k, ldb), m, c, ldc);
}

void GemmATB(size_t n, size_t k, size_t m, const float* a, size_t lda,
             const float* b, size_t ldb, float* c, size_t ldc) {
  // The kernel reads A one scalar at a time, so Aᵀ is just a stride swap.
  SimdKernels().gemm_f32(n, k, m, a, 1, lda, b, ldb, c, ldc);
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor& c) {
  LSHAP_CHECK_EQ(a.cols(), b.rows());
  c.Resize(a.rows(), b.cols());
  Gemm(a.rows(), a.cols(), b.cols(), a.data(), a.cols(), b.data(), b.cols(),
       c.data(), c.cols());
}

Tensor MatMulATB(const Tensor& a, const Tensor& b) {
  LSHAP_CHECK_EQ(a.rows(), b.rows());
  Tensor c(a.cols(), b.cols());
  GemmATB(a.cols(), a.rows(), b.cols(), a.data(), a.cols(), b.data(),
          b.cols(), c.data(), c.cols());
  return c;
}

Tensor MatMulABT(const Tensor& a, const Tensor& b) {
  LSHAP_CHECK_EQ(a.cols(), b.cols());
  Tensor c(a.rows(), b.rows());
  GemmABT(a.rows(), a.cols(), b.rows(), a.data(), a.cols(), b.data(),
          b.cols(), c.data(), c.cols());
  return c;
}

void AddRowBroadcast(Tensor& a, const Tensor& bias) {
  LSHAP_CHECK_EQ(bias.rows(), 1u);
  LSHAP_CHECK_EQ(bias.cols(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    float* row = a.row_data(r);
    const float* b = bias.row_data(0);
    for (size_t c = 0; c < a.cols(); ++c) row[c] += b[c];
  }
}

}  // namespace lshap

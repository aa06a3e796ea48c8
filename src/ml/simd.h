#ifndef LSHAP_ML_SIMD_H_
#define LSHAP_ML_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace lshap {

// Runtime-dispatched SIMD kernels for the float MiniBERT matmuls and the
// quantized inference path (DESIGN.md §12). Two implementations exist for
// every kernel — AVX2 and a portable scalar fallback — selected once behind
// a single dispatch point (the kernel table returned by SimdKernels()). The
// two are bit-equal by construction:
//
//  - integer kernels (DotInt8) accumulate in int32, where order is exact;
//  - the float GEMM sums every output over the inner index in ascending
//    order with one rounded multiply and one rounded add per term in both
//    variants (the AVX2 code runs the per-output sums side by side in
//    vector lanes, never across lanes), so it is also bit-equal to the
//    plain p-ordered triple loop the float layers used before it;
//  - the other float kernels share one polynomial exp approximation,
//    perform the same IEEE operation sequence per element, and reductions
//    (softmax max/sum, row-amax) use the same 8-lane accumulator tree in
//    both variants — the scalar code *emulates* the vector lanes rather
//    than summing linearly;
//  - simd.cc is compiled with -ffp-contract=off so the compiler cannot fuse
//    a*b+c differently between the two paths.
//
// quant_test's KernelBitEquality suite pins this property on random shapes,
// which is what lets the AVX2-disabled CI leg certify the scalar fallback.

// Int8 kernels require operand lengths padded to this many elements (one
// 256-bit vector of int8).
inline constexpr size_t kInt8BlockElems = 32;

enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

const char* SimdLevelName(SimdLevel level);

// Highest level this binary can run: compile-time availability (AVX2 is
// compiled out under LSHAP_NO_AVX2 or on non-x86 targets) intersected with
// runtime CPU detection.
SimdLevel DetectedSimdLevel();

// The level the kernel table currently dispatches to. Defaults to
// DetectedSimdLevel() on first use.
SimdLevel ActiveSimdLevel();

// Test/bench override. Requests above DetectedSimdLevel() are clamped.
// Returns the level actually installed. Not thread-safe against concurrent
// kernel calls — switch levels only from single-threaded setup code.
SimdLevel SetSimdLevel(SimdLevel level);

// The dispatch table. One indirect call per kernel invocation; resolved
// from ActiveSimdLevel().
struct SimdKernelTable {
  // Σ a[i]·b[i] over n elements; n must be a multiple of kInt8BlockElems
  // (callers zero-pad). Exact in int32.
  int32_t (*dot_i8)(const int8_t* a, const int8_t* b, size_t n);
  // In-place tanh-approximation GELU (matches the float path's formula to
  // within the shared exp approximation).
  void (*gelu)(float* x, size_t n);
  // In-place numerically-stable softmax. Entries at or below the masking
  // threshold (-1e30f) contribute exactly zero.
  void (*softmax)(float* x, size_t n);
  // Symmetric per-row int8 quantization: scale = amax/127, out[i] =
  // clamp(round_nearest_even(x[i]/scale), -127, 127). A zero row gets
  // scale 0 and all-zero codes. Writes n codes; the caller zero-pads the
  // tail of `out` up to the block boundary itself.
  void (*quantize_row)(const float* x, size_t n, int8_t* out, float* scale);
  // C = A·B. A is n×k with element (i, p) at a[i·ars + p·acs], so a
  // row-major A has (ars, acs) = (lda, 1) and the transpose of a row-major
  // k×n matrix has (1, lda). B is k×m and C is n×m, both row-major with
  // row strides ldb and ldc. C is overwritten and must not overlap A or B.
  // Each c[i][j] is Σ_p a[i][p]·b[p][j], summed from +0 in ascending p
  // with a separately rounded multiply and add per term. For finite
  // operands that equals the same sum with a[i][p] == 0 terms skipped.
  void (*gemm_f32)(size_t n, size_t k, size_t m, const float* a, size_t ars,
                   size_t acs, const float* b, size_t ldb, float* c,
                   size_t ldc);
};

const SimdKernelTable& SimdKernels();

// Shared scalar exp approximation (exposed for tests): branchless
// round-to-nearest 2^n · poly(r) split, inputs clamped to [-87, 88], with
// an exact-zero cutoff below -87 so masked attention scores vanish.
float SimdExpApprox(float x);

}  // namespace lshap

#endif  // LSHAP_ML_SIMD_H_

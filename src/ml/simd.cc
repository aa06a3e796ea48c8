#include "ml/simd.h"

// This translation unit must be built with -ffp-contract=off (set in
// CMakeLists.txt): the scalar fallbacks are bit-equal to the AVX2 kernels
// only if the compiler does not fuse their a*b+c sequences into FMAs.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#if !defined(LSHAP_NO_AVX2) && (defined(__x86_64__) || defined(__i386__))
#define LSHAP_AVX2_COMPILED 1
#include <immintrin.h>
#endif

namespace lshap {

namespace {

constexpr float kLog2e = 1.442695040888963407f;
constexpr float kLn2Hi = 0.693359375f;          // high part of ln 2
constexpr float kLn2Lo = -2.12194440e-4f;       // ln 2 - kLn2Hi
constexpr float kExpLoCut = -87.0f;             // below: exact zero
constexpr float kExpHiCut = 88.0f;              // above: clamp
constexpr float kGeluC = 0.7978845608028654f;   // sqrt(2/pi)
constexpr float kMaskedScore = -1e30f;

// ------------------------------------------------------------ shared bits

// 8-lane reduction trees shared verbatim by both variants (the AVX2 code
// stores its vector accumulator to an array and runs these), so reduction
// order can never diverge.
float ReduceMaxLanes(const float* l) {
  float p0 = std::max(l[0], l[4]);
  float p1 = std::max(l[1], l[5]);
  float p2 = std::max(l[2], l[6]);
  float p3 = std::max(l[3], l[7]);
  return std::max(std::max(p0, p2), std::max(p1, p3));
}

float ReduceSumLanes(const float* l) {
  const float p0 = l[0] + l[4];
  const float p1 = l[1] + l[5];
  const float p2 = l[2] + l[6];
  const float p3 = l[3] + l[7];
  return (p0 + p2) + (p1 + p3);
}

// Degree-6 Taylor-Horner exp(r) on [-ln2/2, ln2/2]; relative error ~1e-7,
// far below int8 quantization noise.
constexpr float kC6 = 1.0f / 720.0f;
constexpr float kC5 = 1.0f / 120.0f;
constexpr float kC4 = 1.0f / 24.0f;
constexpr float kC3 = 1.0f / 6.0f;
constexpr float kC2 = 0.5f;

float ExpScalar(float x) {
  const bool zero = x < kExpLoCut;
  x = std::min(x, kExpHiCut);
  x = std::max(x, kExpLoCut);
  const float t = x * kLog2e;
  const float n = std::floor(t + 0.5f);
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = kC6;
  p = p * r + kC5;
  p = p * r + kC4;
  p = p * r + kC3;
  p = p * r + kC2;
  p = p * r + 1.0f;
  p = p * r + 1.0f;
  const int ne = static_cast<int>(n);
  const float scale = std::bit_cast<float>((ne + 127) << 23);
  const float result = p * scale;
  return zero ? 0.0f : result;
}

float GeluOne(float v) {
  float v3 = v * v;
  v3 = v3 * v;
  float inner = v3 * 0.044715f;
  inner = v + inner;
  const float u = inner * kGeluC;
  const float e = ExpScalar(u + u);
  const float denom = e + 1.0f;
  const float frac = 2.0f / denom;
  const float th = 1.0f - frac;
  const float onep = 1.0f + th;
  const float half_v = 0.5f * v;
  return half_v * onep;
}

// ------------------------------------------------------------ scalar path

int32_t DotInt8Scalar(const int8_t* a, const int8_t* b, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

void GeluScalar(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = GeluOne(x[i]);
}

void SoftmaxScalar(float* x, size_t n) {
  float lanes[8];
  std::fill(lanes, lanes + 8, kMaskedScore);
  for (size_t i = 0; i < n; ++i) {
    lanes[i & 7] = std::max(lanes[i & 7], x[i]);
  }
  const float m = ReduceMaxLanes(lanes);
  std::fill(lanes, lanes + 8, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    x[i] = ExpScalar(x[i] - m);
    lanes[i & 7] += x[i];
  }
  const float sum = ReduceSumLanes(lanes);
  const float inv = 1.0f / sum;
  for (size_t i = 0; i < n; ++i) x[i] *= inv;
}

void QuantizeRowScalar(const float* x, size_t n, int8_t* out, float* scale) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    lanes[i & 7] = std::max(lanes[i & 7], std::fabs(x[i]));
  }
  const float amax = ReduceMaxLanes(lanes);
  if (amax == 0.0f) {
    *scale = 0.0f;
    std::fill(out, out + n, static_cast<int8_t>(0));
    return;
  }
  const float inv = 127.0f / amax;
  *scale = amax / 127.0f;
  for (size_t i = 0; i < n; ++i) {
    float q = std::nearbyint(x[i] * inv);  // nearest-even, like vroundps
    q = std::min(q, 127.0f);
    q = std::max(q, -127.0f);
    out[i] = static_cast<int8_t>(q);
  }
}

void GemmF32Scalar(size_t n, size_t k, size_t m, const float* a, size_t ars,
                   size_t acs, const float* b, size_t ldb, float* c,
                   size_t ldc) {
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a + i * ars;
    float* crow = c + i * ldc;
    std::fill(crow, crow + m, 0.0f);
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p * acs];
      const float* brow = b + p * ldb;
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

constexpr SimdKernelTable kScalarTable = {
    DotInt8Scalar,
    GeluScalar,
    SoftmaxScalar,
    QuantizeRowScalar,
    GemmF32Scalar,
};

// -------------------------------------------------------------- AVX2 path

#ifdef LSHAP_AVX2_COMPILED

#define LSHAP_AVX2_FN __attribute__((target("avx2")))

LSHAP_AVX2_FN int32_t DotInt8Avx2(const int8_t* a, const int8_t* b,
                                  size_t n) {
  __m256i acc = _mm256_setzero_si256();
  for (size_t i = 0; i < n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
    const __m256i a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
    const __m256i b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
    const __m256i b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
  }
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// Vector twin of ExpScalar: the same IEEE operation sequence per element
// (min/max, mul, floor, two-step Cody-Waite, Horner with separate mul/add —
// never fused), so results are bit-identical.
LSHAP_AVX2_FN __m256 ExpAvx2(__m256 x) {
  const __m256 lo_cut = _mm256_set1_ps(kExpLoCut);
  const __m256 zero_mask = _mm256_cmp_ps(x, lo_cut, _CMP_LT_OQ);
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHiCut));
  x = _mm256_max_ps(x, lo_cut);
  const __m256 t = _mm256_mul_ps(x, _mm256_set1_ps(kLog2e));
  const __m256 n = _mm256_floor_ps(_mm256_add_ps(t, _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kC6);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC5));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0f));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0f));
  const __m256i ne = _mm256_cvttps_epi32(n);  // n is integral: exact
  const __m256i bits =
      _mm256_slli_epi32(_mm256_add_epi32(ne, _mm256_set1_epi32(127)), 23);
  const __m256 scale = _mm256_castsi256_ps(bits);
  const __m256 result = _mm256_mul_ps(p, scale);
  return _mm256_andnot_ps(zero_mask, result);
}

LSHAP_AVX2_FN void GeluAvx2(float* x, size_t n) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  const __m256 c_half = _mm256_set1_ps(0.5f);
  const __m256 c_one = _mm256_set1_ps(1.0f);
  const __m256 c_two = _mm256_set1_ps(2.0f);
  const __m256 c_cubic = _mm256_set1_ps(0.044715f);
  const __m256 c_gelu = _mm256_set1_ps(kGeluC);
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    __m256 v3 = _mm256_mul_ps(v, v);
    v3 = _mm256_mul_ps(v3, v);
    __m256 inner = _mm256_mul_ps(v3, c_cubic);
    inner = _mm256_add_ps(v, inner);
    const __m256 u = _mm256_mul_ps(inner, c_gelu);
    const __m256 e = ExpAvx2(_mm256_add_ps(u, u));
    const __m256 denom = _mm256_add_ps(e, c_one);
    const __m256 frac = _mm256_div_ps(c_two, denom);
    const __m256 th = _mm256_sub_ps(c_one, frac);
    const __m256 onep = _mm256_add_ps(c_one, th);
    const __m256 half_v = _mm256_mul_ps(c_half, v);
    _mm256_storeu_ps(x + i, _mm256_mul_ps(half_v, onep));
  }
  for (size_t i = n8; i < n; ++i) x[i] = GeluOne(x[i]);
}

LSHAP_AVX2_FN void SoftmaxAvx2(float* x, size_t n) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  alignas(32) float lanes[8];

  __m256 vmax = _mm256_set1_ps(kMaskedScore);
  for (size_t i = 0; i < n8; i += 8) {
    vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
  }
  _mm256_store_ps(lanes, vmax);
  for (size_t i = n8; i < n; ++i) {
    lanes[i & 7] = std::max(lanes[i & 7], x[i]);
  }
  const float m = ReduceMaxLanes(lanes);

  const __m256 vm = _mm256_set1_ps(m);
  __m256 vsum = _mm256_setzero_ps();
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 e = ExpAvx2(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm));
    _mm256_storeu_ps(x + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  _mm256_store_ps(lanes, vsum);
  for (size_t i = n8; i < n; ++i) {
    x[i] = ExpScalar(x[i] - m);
    lanes[i & 7] += x[i];
  }
  const float sum = ReduceSumLanes(lanes);

  const float inv = 1.0f / sum;
  const __m256 vinv = _mm256_set1_ps(inv);
  for (size_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv));
  }
  for (size_t i = n8; i < n; ++i) x[i] *= inv;
}

LSHAP_AVX2_FN void QuantizeRowAvx2(const float* x, size_t n, int8_t* out,
                                   float* scale) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  alignas(32) float lanes[8];
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);

  __m256 vamax = _mm256_setzero_ps();
  for (size_t i = 0; i < n8; i += 8) {
    vamax = _mm256_max_ps(vamax,
                          _mm256_andnot_ps(sign_mask, _mm256_loadu_ps(x + i)));
  }
  _mm256_store_ps(lanes, vamax);
  for (size_t i = n8; i < n; ++i) {
    lanes[i & 7] = std::max(lanes[i & 7], std::fabs(x[i]));
  }
  const float amax = ReduceMaxLanes(lanes);
  if (amax == 0.0f) {
    *scale = 0.0f;
    std::fill(out, out + n, static_cast<int8_t>(0));
    return;
  }
  const float inv = 127.0f / amax;
  *scale = amax / 127.0f;

  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vlo = _mm256_set1_ps(-127.0f);
  const __m256 vhi = _mm256_set1_ps(127.0f);
  for (size_t i = 0; i < n8; i += 8) {
    __m256 q = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
    q = _mm256_round_ps(q, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    q = _mm256_min_ps(q, vhi);
    q = _mm256_max_ps(q, vlo);
    const __m256i qi = _mm256_cvtps_epi32(q);
    const __m128i packed16 = _mm_packs_epi32(
        _mm256_castsi256_si128(qi), _mm256_extracti128_si256(qi, 1));
    const __m128i packed8 = _mm_packs_epi16(packed16, _mm_setzero_si128());
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), packed8);
  }
  for (size_t i = n8; i < n; ++i) {
    float q = std::nearbyint(x[i] * inv);
    q = std::min(q, 127.0f);
    q = std::max(q, -127.0f);
    out[i] = static_cast<int8_t>(q);
  }
}

// One register tile of C: R rows × V vectors of 8 columns, summed over all
// k terms before a single store. Each lane keeps its own running sum, so
// every output sees the scalar path's exact mul/add sequence. kMasked
// handles the last 1-7 columns (V == 1) with masked loads and stores. The
// loops over R and V are fully unrolled so the accumulators stay in
// registers.
template <size_t R, size_t V, bool kMasked>
LSHAP_AVX2_FN inline void GemmTileAvx2(size_t k, const float* a, size_t ars,
                                       size_t acs, const float* b,
                                       size_t ldb, float* c, size_t ldc,
                                       __m256i tail) {
  __m256 acc[R * V];
#pragma GCC unroll 8
  for (size_t t = 0; t < R * V; ++t) acc[t] = _mm256_setzero_ps();
  for (size_t p = 0; p < k; ++p) {
    const float* brow = b + p * ldb;
    __m256 bv[V];
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      bv[v] = kMasked ? _mm256_maskload_ps(brow + 8 * v, tail)
                      : _mm256_loadu_ps(brow + 8 * v);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * ars + p * acs);
#pragma GCC unroll 2
      for (size_t v = 0; v < V; ++v) {
        acc[r * V + v] =
            _mm256_add_ps(acc[r * V + v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      float* dst = c + r * ldc + 8 * v;
      if (kMasked) {
        _mm256_maskstore_ps(dst, tail, acc[r * V + v]);
      } else {
        _mm256_storeu_ps(dst, acc[r * V + v]);
      }
    }
  }
}

// R rows of C, left to right: 16-column tiles, then an 8-column tile, then
// a masked tile for the remainder.
template <size_t R>
LSHAP_AVX2_FN void GemmRowsAvx2(size_t k, size_t m, const float* a,
                                size_t ars, size_t acs, const float* b,
                                size_t ldb, float* c, size_t ldc) {
  const __m256i none = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 16 <= m; j += 16) {
    GemmTileAvx2<R, 2, false>(k, a, ars, acs, b + j, ldb, c + j, ldc, none);
  }
  if (j + 8 <= m) {
    GemmTileAvx2<R, 1, false>(k, a, ars, acs, b + j, ldb, c + j, ldc, none);
    j += 8;
  }
  if (j < m) {
    const __m256i tail =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(m - j)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    GemmTileAvx2<R, 1, true>(k, a, ars, acs, b + j, ldb, c + j, ldc, tail);
  }
}

LSHAP_AVX2_FN void GemmF32Avx2(size_t n, size_t k, size_t m, const float* a,
                               size_t ars, size_t acs, const float* b,
                               size_t ldb, float* c, size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    GemmRowsAvx2<4>(k, m, a + i * ars, ars, acs, b, ldb, c + i * ldc, ldc);
  }
  const float* ai = a + i * ars;
  float* ci = c + i * ldc;
  switch (n - i) {
    case 3:
      GemmRowsAvx2<3>(k, m, ai, ars, acs, b, ldb, ci, ldc);
      break;
    case 2:
      GemmRowsAvx2<2>(k, m, ai, ars, acs, b, ldb, ci, ldc);
      break;
    case 1:
      GemmRowsAvx2<1>(k, m, ai, ars, acs, b, ldb, ci, ldc);
      break;
    default:
      break;
  }
}

constexpr SimdKernelTable kAvx2Table = {
    DotInt8Avx2,
    GeluAvx2,
    SoftmaxAvx2,
    QuantizeRowAvx2,
    GemmF32Avx2,
};

#undef LSHAP_AVX2_FN

#endif  // LSHAP_AVX2_COMPILED

// ---------------------------------------------------------------- dispatch

std::atomic<int> g_active_level{-1};  // -1 = not yet initialized

SimdLevel Detect() {
#ifdef LSHAP_AVX2_COMPILED
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = Detect();
  return detected;
}

SimdLevel ActiveSimdLevel() {
  int level = g_active_level.load(std::memory_order_acquire);
  if (level < 0) {
    level = static_cast<int>(DetectedSimdLevel());
    g_active_level.store(level, std::memory_order_release);
  }
  return static_cast<SimdLevel>(level);
}

SimdLevel SetSimdLevel(SimdLevel level) {
  if (static_cast<int>(level) > static_cast<int>(DetectedSimdLevel())) {
    level = DetectedSimdLevel();
  }
  g_active_level.store(static_cast<int>(level), std::memory_order_release);
  return level;
}

const SimdKernelTable& SimdKernels() {
#ifdef LSHAP_AVX2_COMPILED
  if (ActiveSimdLevel() == SimdLevel::kAvx2) return kAvx2Table;
#endif
  return kScalarTable;
}

float SimdExpApprox(float x) { return ExpScalar(x); }

}  // namespace lshap

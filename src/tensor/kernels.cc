#include "src/tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/obs/obs.h"
#include "src/util/contract.h"
#include "src/util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UNIMATCH_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace unimatch::kernels {

namespace {

// ---------------------------------------------------------------------------
// Portable scalar implementations. These double as the reference semantics:
// the AVX2 path must match them up to float reassociation.
// ---------------------------------------------------------------------------

float DotPortable(const float* a, const float* b, int64_t n) {
  // Four independent accumulators: lets -O2 keep the loop pipelined and
  // keeps the summation-order gap to the 8-lane AVX2 path small.
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

void AxpyPortable(int64_t n, float alpha, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAddPortable(int64_t n, float alpha, const float* x, float beta,
                      float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

// The scalar Adam element update. A null g substitutes g = +0.0f and still
// does every multiply and add, so -0 moments round as with a stored zero
// gradient. The AVX2 path calls this for its tail.
void AdamPortable(int64_t n, const AdamStepF32& s, const float* g, float* m,
                  float* v, float* w) {
  const float lr = s.lr, b1 = s.beta1, b2 = s.beta2, eps = s.eps;
  const float c1 = 1.0f - b1, c2 = 1.0f - b2, bc1 = s.bc1, bc2 = s.bc2;
  for (int64_t i = 0; i < n; ++i) {
    const float gi = g != nullptr ? g[i] : 0.0f;
    m[i] = b1 * m[i] + c1 * gi;
    v[i] = b2 * v[i] + c2 * gi * gi;
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void GemmRowsAxpyPortable(int64_t i0, int64_t i1, int64_t n, int64_t k,
                          float alpha, const float* a, int64_t ars,
                          int64_t acs, const float* b, float beta, float* c) {
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const float* arow = a + i * ars;
    for (int64_t p = 0; p < k; ++p) {
      // No `av == 0` skip here: the branch costs more than the multiply in a
      // vector-friendly loop (and would diverge from the AVX2 path).
      const float av = alpha * arow[p * acs];
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmRowsDotPortable(int64_t i0, int64_t i1, int64_t n, int64_t k,
                         float alpha, const float* a, int64_t ars, int64_t acs,
                         const float* b, float beta, float* c) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * ars;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p * acs] * brow[p];
      crow[j] = beta == 0.0f ? alpha * acc : beta * crow[j] + alpha * acc;
    }
  }
}

// y[i] = alpha * x[i], without reading y (safe for uninitialized output).
void ScaleIntoPortable(int64_t n, float alpha, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = alpha * x[i];
}

// ---------------------------------------------------------------------------
// Scalar binary16 conversion. IEEE-754 half, round-to-nearest-even, with
// subnormal and inf/NaN handling — the portable mirror of the F16C
// VCVTPS2PH/VCVTPH2PS instructions, bitwise-identical to them for every
// finite non-denormal float32 input (verified in quant_test.cc).
// ---------------------------------------------------------------------------

uint16_t F32ToF16Scalar(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const uint32_t exp = (bits >> 23) & 0xffu;
  uint32_t mant = bits & 0x7fffffu;
  if (exp == 255u) {  // inf / NaN (NaN keeps a nonzero payload, quieted)
    return static_cast<uint16_t>(
        sign | 0x7c00u | (mant != 0 ? (0x200u | (mant >> 13)) : 0u));
  }
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 31) return static_cast<uint16_t>(sign | 0x7c00u);  // overflow: inf
  if (e <= 0) {
    // Half-subnormal range (or underflow to signed zero).
    if (e < -10) return static_cast<uint16_t>(sign);
    mant |= 0x800000u;  // make the implicit leading 1 explicit
    const int shift = 14 - e;
    uint32_t half_mant = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    // A carry out of the 10 mantissa bits lands exactly on the smallest
    // normal half — the bit pattern is already correct.
    return static_cast<uint16_t>(sign | half_mant);
  }
  uint32_t half = sign | (static_cast<uint32_t>(e) << 10) | (mant >> 13);
  const uint32_t rem = mant & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;  // RNE
  return static_cast<uint16_t>(half);  // mantissa carry overflows into exp,
                                       // saturating to inf — also correct
}

float F16ToF32Scalar(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t bits;
  if (exp == 0u) {
    if (mant == 0u) {
      bits = sign;  // signed zero
    } else {
      // Subnormal half: normalize into a float32 with an explicit exponent.
      int shift = -1;
      do {
        ++shift;
        mant <<= 1;
      } while ((mant & 0x400u) == 0u);
      bits = sign | (static_cast<uint32_t>(112 - shift) << 23) |
             ((mant & 0x3ffu) << 13);
    }
  } else if (exp == 31u) {
    bits = sign | 0x7f800000u | (mant << 13);  // inf / NaN
  } else {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

float DotF32I8Portable(const float* a, const int8_t* codes, int64_t n) {
  // Same 4-accumulator shape as DotPortable so the backend gap stays within
  // summation-order slack.
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * static_cast<float>(codes[i]);
    s1 += a[i + 1] * static_cast<float>(codes[i + 1]);
    s2 += a[i + 2] * static_cast<float>(codes[i + 2]);
    s3 += a[i + 3] * static_cast<float>(codes[i + 3]);
  }
  for (; i < n; ++i) s0 += a[i] * static_cast<float>(codes[i]);
  return (s0 + s1) + (s2 + s3);
}

float DotF32F16Portable(const float* a, const uint16_t* half, int64_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * F16ToF32Scalar(half[i]);
    s1 += a[i + 1] * F16ToF32Scalar(half[i + 1]);
    s2 += a[i + 2] * F16ToF32Scalar(half[i + 2]);
    s3 += a[i + 3] * F16ToF32Scalar(half[i + 3]);
  }
  for (; i < n; ++i) s0 += a[i] * F16ToF32Scalar(half[i]);
  return (s0 + s1) + (s2 + s3);
}

// ---------------------------------------------------------------------------
// AVX2 + FMA implementations. Compiled with per-function target attributes,
// only ever called after a runtime CPUID check.
// ---------------------------------------------------------------------------

#if defined(UNIMATCH_KERNELS_X86)

__attribute__((target("avx2,fma"))) inline float Hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) float DotAvx2(const float* a,
                                                  const float* b, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float sum = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(int64_t n, float alpha,
                                                  const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy =
        _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2,fma"))) void ScaleAddAvx2(int64_t n, float alpha,
                                                      const float* x,
                                                      float beta, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vb = _mm256_set1_ps(beta);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 scaled_y = _mm256_mul_ps(vb, _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), scaled_y));
  }
  for (; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

// Deliberately "avx2" without "fma": with FMA enabled GCC contracts both
// _mm256_add_ps(_mm256_mul_ps(a, b), c) and scalar a * b + c into vfmadd,
// which rounds once instead of twice and breaks bitwise equality with
// AdamPortable. Every op below is an IEEE-exact lane-wise twin of the
// scalar one, in the same order.
__attribute__((target("avx2"))) void AdamAvx2(int64_t n, const AdamStepF32& s,
                                              const float* g, float* m,
                                              float* v, float* w) {
  const __m256 lr = _mm256_set1_ps(s.lr);
  const __m256 b1 = _mm256_set1_ps(s.beta1);
  const __m256 b2 = _mm256_set1_ps(s.beta2);
  const __m256 c1 = _mm256_set1_ps(1.0f - s.beta1);
  const __m256 c2 = _mm256_set1_ps(1.0f - s.beta2);
  const __m256 bc1 = _mm256_set1_ps(s.bc1);
  const __m256 bc2 = _mm256_set1_ps(s.bc2);
  const __m256 eps = _mm256_set1_ps(s.eps);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gi =
        g != nullptr ? _mm256_loadu_ps(g + i) : _mm256_setzero_ps();
    const __m256 mi = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(c1, gi));
    const __m256 vi =
        _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(c2, gi), gi));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 mhat = _mm256_div_ps(mi, bc1);
    const __m256 vhat = _mm256_div_ps(vi, bc2);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lr, mhat), _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), step));
  }
  AdamPortable(n - i, s, g != nullptr ? g + i : nullptr, m + i, v + i, w + i);
}

__attribute__((target("avx2,fma"))) void ScaleIntoAvx2(int64_t n, float alpha,
                                                       const float* x,
                                                       float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = alpha * x[i];
}

// Register-tiled axpy-layout gemm micro-kernel: 4 C rows x 16 C columns of
// accumulators (8 YMM registers) stay live across the whole k loop; each
// k step is one broadcast per row + two B loads + eight FMAs.
__attribute__((target("avx2,fma"))) void GemmRowsAxpyAvx2(
    int64_t i0, int64_t i1, int64_t n, int64_t k, float alpha, const float* a,
    int64_t ars, int64_t acs, const float* b, float beta, float* c) {
  // Fold beta into the row block up front so the tiles accumulate in place.
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      ScaleAddAvx2(n, 0.0f, crow, beta, crow);
    }
  }
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + (i + 0) * ars;
    const float* a1 = a + (i + 1) * ars;
    const float* a2 = a + (i + 2) * ars;
    const float* a3 = a + (i + 3) * ars;
    float* c0 = c + (i + 0) * n;
    float* c1 = c + (i + 1) * n;
    float* c2 = c + (i + 2) * n;
    float* c3 = c + (i + 3) * n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 t00 = _mm256_loadu_ps(c0 + j), t01 = _mm256_loadu_ps(c0 + j + 8);
      __m256 t10 = _mm256_loadu_ps(c1 + j), t11 = _mm256_loadu_ps(c1 + j + 8);
      __m256 t20 = _mm256_loadu_ps(c2 + j), t21 = _mm256_loadu_ps(c2 + j + 8);
      __m256 t30 = _mm256_loadu_ps(c3 + j), t31 = _mm256_loadu_ps(c3 + j + 8);
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const int64_t ao = p * acs;
        __m256 av = _mm256_set1_ps(alpha * a0[ao]);
        t00 = _mm256_fmadd_ps(av, b0, t00);
        t01 = _mm256_fmadd_ps(av, b1, t01);
        av = _mm256_set1_ps(alpha * a1[ao]);
        t10 = _mm256_fmadd_ps(av, b0, t10);
        t11 = _mm256_fmadd_ps(av, b1, t11);
        av = _mm256_set1_ps(alpha * a2[ao]);
        t20 = _mm256_fmadd_ps(av, b0, t20);
        t21 = _mm256_fmadd_ps(av, b1, t21);
        av = _mm256_set1_ps(alpha * a3[ao]);
        t30 = _mm256_fmadd_ps(av, b0, t30);
        t31 = _mm256_fmadd_ps(av, b1, t31);
      }
      _mm256_storeu_ps(c0 + j, t00);
      _mm256_storeu_ps(c0 + j + 8, t01);
      _mm256_storeu_ps(c1 + j, t10);
      _mm256_storeu_ps(c1 + j + 8, t11);
      _mm256_storeu_ps(c2 + j, t20);
      _mm256_storeu_ps(c2 + j + 8, t21);
      _mm256_storeu_ps(c3 + j, t30);
      _mm256_storeu_ps(c3 + j + 8, t31);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 t0 = _mm256_loadu_ps(c0 + j);
      __m256 t1 = _mm256_loadu_ps(c1 + j);
      __m256 t2 = _mm256_loadu_ps(c2 + j);
      __m256 t3 = _mm256_loadu_ps(c3 + j);
      for (int64_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * n + j);
        const int64_t ao = p * acs;
        t0 = _mm256_fmadd_ps(_mm256_set1_ps(alpha * a0[ao]), bv, t0);
        t1 = _mm256_fmadd_ps(_mm256_set1_ps(alpha * a1[ao]), bv, t1);
        t2 = _mm256_fmadd_ps(_mm256_set1_ps(alpha * a2[ao]), bv, t2);
        t3 = _mm256_fmadd_ps(_mm256_set1_ps(alpha * a3[ao]), bv, t3);
      }
      _mm256_storeu_ps(c0 + j, t0);
      _mm256_storeu_ps(c1 + j, t1);
      _mm256_storeu_ps(c2 + j, t2);
      _mm256_storeu_ps(c3 + j, t3);
    }
    for (; j < n; ++j) {
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float bv = b[p * n + j];
        const int64_t ao = p * acs;
        s0 += a0[ao] * bv;
        s1 += a1[ao] * bv;
        s2 += a2[ao] * bv;
        s3 += a3[ao] * bv;
      }
      c0[j] += alpha * s0;
      c1[j] += alpha * s1;
      c2[j] += alpha * s2;
      c3[j] += alpha * s3;
    }
  }
  // Leftover rows (< 4): one row of accumulators, same column tiling.
  for (; i < i1; ++i) {
    const float* arow = a + i * ars;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 t0 = _mm256_loadu_ps(crow + j);
      __m256 t1 = _mm256_loadu_ps(crow + j + 8);
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + j;
        const __m256 av = _mm256_set1_ps(alpha * arow[p * acs]);
        t0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), t0);
        t1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), t1);
      }
      _mm256_storeu_ps(crow + j, t0);
      _mm256_storeu_ps(crow + j + 8, t1);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 t0 = _mm256_loadu_ps(crow + j);
      for (int64_t p = 0; p < k; ++p) {
        const __m256 av = _mm256_set1_ps(alpha * arow[p * acs]);
        t0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + p * n + j), t0);
      }
      _mm256_storeu_ps(crow + j, t0);
    }
    for (; j < n; ++j) {
      float s = 0.0f;
      for (int64_t p = 0; p < k; ++p) s += arow[p * acs] * b[p * n + j];
      crow[j] += alpha * s;
    }
  }
}

// Dot-layout gemm: 4 dot products (one C row x 4 B rows) accumulate in
// parallel over contiguous k. Requires unit A column stride for vector
// loads; the strided case (trans_a && trans_b, rare — only the backward of
// a doubly-transposed matmul) falls back to the portable loop.
__attribute__((target("avx2,fma"))) void GemmRowsDotAvx2(
    int64_t i0, int64_t i1, int64_t n, int64_t k, float alpha, const float* a,
    int64_t ars, int64_t acs, const float* b, float beta, float* c) {
  if (acs != 1) {
    GemmRowsDotPortable(i0, i1, n, k, alpha, a, ars, acs, b, beta, c);
    return;
  }
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * ars;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + (j + 0) * k;
      const float* b1 = b + (j + 1) * k;
      const float* b2 = b + (j + 2) * k;
      const float* b3 = b + (j + 3) * k;
      __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
      __m256 s2 = _mm256_setzero_ps(), s3 = _mm256_setzero_ps();
      int64_t p = 0;
      for (; p + 8 <= k; p += 8) {
        const __m256 va = _mm256_loadu_ps(arow + p);
        s0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b0 + p), s0);
        s1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b1 + p), s1);
        s2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b2 + p), s2);
        s3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b3 + p), s3);
      }
      float t0 = Hsum256(s0), t1 = Hsum256(s1);
      float t2 = Hsum256(s2), t3 = Hsum256(s3);
      for (; p < k; ++p) {
        const float av = arow[p];
        t0 += av * b0[p];
        t1 += av * b1[p];
        t2 += av * b2[p];
        t3 += av * b3[p];
      }
      if (beta == 0.0f) {
        crow[j + 0] = alpha * t0;
        crow[j + 1] = alpha * t1;
        crow[j + 2] = alpha * t2;
        crow[j + 3] = alpha * t3;
      } else {
        crow[j + 0] = beta * crow[j + 0] + alpha * t0;
        crow[j + 1] = beta * crow[j + 1] + alpha * t1;
        crow[j + 2] = beta * crow[j + 2] + alpha * t2;
        crow[j + 3] = beta * crow[j + 3] + alpha * t3;
      }
    }
    for (; j < n; ++j) {
      const float t = DotAvx2(arow, b + j * k, k);
      crow[j] = beta == 0.0f ? alpha * t : beta * crow[j] + alpha * t;
    }
  }
}

// int8 dot: sign-extend 8 codes at a time to int32 lanes, convert to float
// (exact for int8 range), and fmadd against the float query.
__attribute__((target("avx2,fma"))) float DotF32I8Avx2(const float* a,
                                                       const int8_t* codes,
                                                       int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 lo =
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    const __m256 hi =
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(bytes, 8)));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), lo, acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), hi, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), v, acc0);
  }
  float sum = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * static_cast<float>(codes[i]);
  return sum;
}

// binary16 kernels need F16C on top of AVX2+FMA; all three are checked
// together by CpuHasAvx2Fma below, so the kAvx2 backend implies F16C.
__attribute__((target("avx2,fma,f16c"))) float DotF32F16Avx2(
    const float* a, const uint16_t* half, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 h0 = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(half + i)));
    const __m256 h1 = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(half + i + 8)));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), h0, acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), h1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 h = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(half + i)));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), h, acc0);
  }
  float sum = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * F16ToF32Scalar(half[i]);
  return sum;
}

__attribute__((target("avx2,fma,f16c"))) void F32ToF16Avx2(int64_t n,
                                                           const float* src,
                                                           uint16_t* dst) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(src + i),
                                      _MM_FROUND_TO_NEAREST_INT |
                                          _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = F32ToF16Scalar(src[i]);
}

__attribute__((target("avx2,fma,f16c"))) void F16ToF32Avx2(int64_t n,
                                                           const uint16_t* src,
                                                           float* dst) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_cvtph_ps(_mm_loadu_si128(
                         reinterpret_cast<const __m128i*>(src + i))));
  }
  for (; i < n; ++i) dst[i] = F16ToF32Scalar(src[i]);
}

__attribute__((target("avx2,fma"))) void DequantRowsI8Avx2(
    int64_t rows, int64_t d, const int8_t* codes, int64_t row_stride,
    const float* scales, float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const int8_t* src = codes + r * row_stride;
    float* dst = out + r * d;
    const float s = scales[r];
    const __m256 scale = _mm256_set1_ps(s);
    int64_t j = 0;
    for (; j + 16 <= d; j += 16) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + j));
      const __m256 lo = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
      const __m256 hi = _mm256_cvtepi32_ps(
          _mm256_cvtepi8_epi32(_mm_srli_si128(bytes, 8)));
      _mm256_storeu_ps(dst + j, _mm256_mul_ps(scale, lo));
      _mm256_storeu_ps(dst + j + 8, _mm256_mul_ps(scale, hi));
    }
    for (; j + 8 <= d; j += 8) {
      const __m128i bytes =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + j));
      const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
      _mm256_storeu_ps(dst + j, _mm256_mul_ps(scale, v));
    }
    for (; j < d; ++j) dst[j] = s * static_cast<float>(src[j]);
  }
}

bool CpuHasAvx2Fma() {
  // F16C is folded into the one backend decision: every AVX2+FMA part since
  // Haswell also has F16C, and a single cut keeps dispatch two-way.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
}

#else  // !UNIMATCH_KERNELS_X86

bool CpuHasAvx2Fma() { return false; }

#endif  // UNIMATCH_KERNELS_X86

void ScaleInto(int64_t n, float alpha, const float* x, float* y) {
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) {
    ScaleIntoAvx2(n, alpha, x, y);
    return;
  }
#endif
  ScaleIntoPortable(n, alpha, x, y);
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

constexpr int kBackendUnresolved = -1;
std::atomic<int> g_backend{kBackendUnresolved};

Backend ResolveBackend() {
  Backend resolved = CpuHasAvx2Fma() ? Backend::kAvx2 : Backend::kPortable;
  if (const char* env = std::getenv("UNIMATCH_KERNEL_BACKEND")) {
    if (std::strcmp(env, "portable") == 0) {
      resolved = Backend::kPortable;
    } else if (std::strcmp(env, "avx2") == 0) {
      UM_CHECK(CpuHasAvx2Fma())
          << "UNIMATCH_KERNEL_BACKEND=avx2 but the CPU lacks AVX2/FMA";
      resolved = Backend::kAvx2;
    } else if (std::strcmp(env, "auto") != 0 && env[0] != '\0') {
      UM_LOG(WARNING) << "UNIMATCH_KERNEL_BACKEND='" << env
                      << "' not recognized (want auto|avx2|portable); "
                      << "using auto";
    }
  }
  UM_GAUGE_SET("tensor.kernels.backend", static_cast<double>(resolved));
  return resolved;
}

}  // namespace

Backend ActiveBackend() {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b == kBackendUnresolved) {
    b = static_cast<int>(ResolveBackend());
    g_backend.store(b, std::memory_order_relaxed);
  }
  return static_cast<Backend>(b);
}

const char* BackendName(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "portable";
}

void SetBackendForTest(Backend backend) {
  UM_CONTRACT(backend != Backend::kAvx2 || CpuHasAvx2Fma())
      << "cannot force the AVX2 backend on a CPU without AVX2/FMA";
  g_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
  UM_GAUGE_SET("tensor.kernels.backend", static_cast<double>(backend));
}

void ResetBackendForTest() {
  g_backend.store(kBackendUnresolved, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Dispatched entry points. Boundary contracts live here so both backends are
// covered by one check.
// ---------------------------------------------------------------------------

float DotF32(const float* a, const float* b, int64_t n) {
  UM_CONTRACT(n >= 0 && (n == 0 || (a != nullptr && b != nullptr)))
      << "DotF32 n=" << n;
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) return DotAvx2(a, b, n);
#endif
  return DotPortable(a, b, n);
}

void AxpyF32(int64_t n, float alpha, const float* x, float* y) {
  UM_CONTRACT(n >= 0 && (n == 0 || (x != nullptr && y != nullptr)))
      << "AxpyF32 n=" << n;
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) {
    AxpyAvx2(n, alpha, x, y);
    return;
  }
#endif
  AxpyPortable(n, alpha, x, y);
}

void ScaleAddF32(int64_t n, float alpha, const float* x, float beta,
                 float* y) {
  UM_CONTRACT(n >= 0 && (n == 0 || (x != nullptr && y != nullptr)))
      << "ScaleAddF32 n=" << n;
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) {
    ScaleAddAvx2(n, alpha, x, beta, y);
    return;
  }
#endif
  ScaleAddPortable(n, alpha, x, beta, y);
}

float L2NormalizeF32(int64_t n, const float* x, float* y, float eps) {
  UM_CONTRACT(n >= 0 && (n == 0 || (x != nullptr && y != nullptr)))
      << "L2NormalizeF32 n=" << n;
  UM_CONTRACT(eps > 0.0f) << "L2NormalizeF32 eps=" << eps;
  const float norm = std::max(std::sqrt(DotF32(x, x, n)), eps);
  ScaleInto(n, 1.0f / norm, x, y);  // writes y without reading it
  return norm;
}

void AdamUpdateF32(int64_t n, const AdamStepF32& s, const float* g, float* m,
                   float* v, float* w) {
  UM_CONTRACT(n >= 0 && (n == 0 || (m != nullptr && v != nullptr &&
                                    w != nullptr)))
      << "AdamUpdateF32 n=" << n;
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) {
    AdamAvx2(n, s, g, m, v, w);
    return;
  }
#endif
  AdamPortable(n, s, g, m, v, w);
}

namespace {

void CheckGemmRowsArgs(int64_t i0, int64_t i1, int64_t n, int64_t k,
                       const float* a, const float* b, const float* c) {
  UM_CONTRACT(0 <= i0 && i0 <= i1) << "gemm row range [" << i0 << ", " << i1
                                   << ")";
  UM_CONTRACT(n >= 0 && k >= 0) << "gemm dims n=" << n << " k=" << k;
  UM_CONTRACT(i0 == i1 || n == 0 ||
              (c != nullptr && (k == 0 || (a != nullptr && b != nullptr))))
      << "gemm kernel got null operand";
}

}  // namespace

void GemmRowsAxpy(int64_t i0, int64_t i1, int64_t n, int64_t k, float alpha,
                  const float* a, int64_t a_row_stride, int64_t a_col_stride,
                  const float* b, float beta, float* c) {
  CheckGemmRowsArgs(i0, i1, n, k, a, b, c);
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) {
    GemmRowsAxpyAvx2(i0, i1, n, k, alpha, a, a_row_stride, a_col_stride, b,
                     beta, c);
    return;
  }
#endif
  GemmRowsAxpyPortable(i0, i1, n, k, alpha, a, a_row_stride, a_col_stride, b,
                       beta, c);
}

void GemmRowsDot(int64_t i0, int64_t i1, int64_t n, int64_t k, float alpha,
                 const float* a, int64_t a_row_stride, int64_t a_col_stride,
                 const float* b, float beta, float* c) {
  CheckGemmRowsArgs(i0, i1, n, k, a, b, c);
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) {
    GemmRowsDotAvx2(i0, i1, n, k, alpha, a, a_row_stride, a_col_stride, b,
                    beta, c);
    return;
  }
#endif
  GemmRowsDotPortable(i0, i1, n, k, alpha, a, a_row_stride, a_col_stride, b,
                      beta, c);
}

float DotF32I8(const float* a, const int8_t* codes, int64_t n) {
  UM_CONTRACT(n >= 0 && (n == 0 || (a != nullptr && codes != nullptr)))
      << "DotF32I8 n=" << n;
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) return DotF32I8Avx2(a, codes, n);
#endif
  return DotF32I8Portable(a, codes, n);
}

float DotF32F16(const float* a, const uint16_t* half, int64_t n) {
  UM_CONTRACT(n >= 0 && (n == 0 || (a != nullptr && half != nullptr)))
      << "DotF32F16 n=" << n;
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) return DotF32F16Avx2(a, half, n);
#endif
  return DotF32F16Portable(a, half, n);
}

void F32ToF16(int64_t n, const float* src, uint16_t* dst) {
  UM_CONTRACT(n >= 0 && (n == 0 || (src != nullptr && dst != nullptr)))
      << "F32ToF16 n=" << n;
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) {
    F32ToF16Avx2(n, src, dst);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) dst[i] = F32ToF16Scalar(src[i]);
}

void F16ToF32(int64_t n, const uint16_t* src, float* dst) {
  UM_CONTRACT(n >= 0 && (n == 0 || (src != nullptr && dst != nullptr)))
      << "F16ToF32 n=" << n;
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) {
    F16ToF32Avx2(n, src, dst);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) dst[i] = F16ToF32Scalar(src[i]);
}

void DequantRowsI8(int64_t rows, int64_t d, const int8_t* codes,
                   int64_t row_stride, const float* scales, float* out) {
  UM_CONTRACT(rows >= 0 && d >= 0 && row_stride >= d)
      << "DequantRowsI8 rows=" << rows << " d=" << d
      << " stride=" << row_stride;
  UM_CONTRACT(rows == 0 ||
              (codes != nullptr && scales != nullptr && out != nullptr))
      << "DequantRowsI8 got null operand";
#if defined(UNIMATCH_KERNELS_X86)
  if (ActiveBackend() == Backend::kAvx2) {
    DequantRowsI8Avx2(rows, d, codes, row_stride, scales, out);
    return;
  }
#endif
  for (int64_t r = 0; r < rows; ++r) {
    const float s = scales[r];
    const int8_t* src = codes + r * row_stride;
    float* dst = out + r * d;
    for (int64_t j = 0; j < d; ++j) dst[j] = s * static_cast<float>(src[j]);
  }
}

// Frozen scalar reference paths for the quantized primitives. Like
// GemmReference, these are the fixed yardstick for tests and
// BENCH_quant.json — do not vectorize or multi-accumulate them.
float DotF32I8Reference(const float* a, const int8_t* codes, int64_t n) {
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) sum += a[i] * static_cast<float>(codes[i]);
  return sum;
}

float DotF32F16Reference(const float* a, const uint16_t* half, int64_t n) {
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) sum += a[i] * F16ToF32Scalar(half[i]);
  return sum;
}

uint16_t F32ToF16Reference(float value) { return F32ToF16Scalar(value); }

float F16ToF32Reference(uint16_t half) { return F16ToF32Scalar(half); }

// The exact serial gemm that shipped before the kernel layer (including the
// `av == 0` skip), kept as the equivalence/bench baseline. Do not "improve"
// it: its value is being the fixed pre-vectorization yardstick.
void GemmReference(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                   float alpha, const float* a, const float* b, float beta,
                   float* c) {
  if (!trans_a) {
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      if (beta == 0.0f) {
        std::fill(crow, crow + n, 0.0f);
      } else if (beta != 1.0f) {
        for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
      }
      const float* arow = a + i * k;
      if (!trans_b) {
        for (int64_t p = 0; p < k; ++p) {
          const float av = alpha * arow[p];
          if (av == 0.0f) continue;
          const float* brow = b + p * n;
          for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      } else {
        for (int64_t j = 0; j < n; ++j) {
          const float* brow = b + j * k;
          float acc = 0.0f;
          for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
          crow[j] += alpha * acc;
        }
      }
    }
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  if (!trans_b) {
    for (int64_t p = 0; p < k; ++p) {
      const float* arow = a + p * m;
      const float* brow = b + p * n;
      for (int64_t i = 0; i < m; ++i) {
        const float av = alpha * arow[i];
        if (av == 0.0f) continue;
        float* crow = c + i * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += a[p * m + i] * brow[p];
        crow[j] += alpha * acc;
      }
    }
  }
}

}  // namespace unimatch::kernels

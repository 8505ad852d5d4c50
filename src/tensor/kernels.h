// Vectorized compute primitives behind the tensor, nn, ann, and serving hot
// paths.
//
// Every FLOP-heavy inner loop in the repo (gemm, dot-product scoring, l2
// normalization, optimizer axpy updates) bottoms out here. Each primitive has
// two implementations selected once at runtime:
//
//   * an AVX2+FMA path (x86-64, register-tiled, 8-wide float lanes), compiled
//     with per-function target attributes so the rest of the library keeps
//     its portable baseline ISA;
//   * a portable scalar path, also used as the forced fallback for testing
//     and on machines without AVX2.
//
// Dispatch is resolved on first use from CPUID, overridable with the
// UNIMATCH_KERNEL_BACKEND environment variable ("auto", "avx2", "portable")
// or, in tests, with SetBackendForTest(). The two paths are numerically
// equivalent up to float summation order (see tests/tensor/kernels_test.cc
// for the exhaustive equivalence suite); neither is bitwise-identical to the
// other because the vector path reassociates the reduction and fuses
// multiply-adds. AdamUpdateF32 is the exception: it is elementwise and
// FMA-free, so its two paths are bitwise equal.
//
// Threading stays OUT of this layer: the row-range gemm kernels are
// single-threaded building blocks, and callers (src/tensor/tensor_ops.cc)
// shard row blocks across ThreadPool::ParallelFor. See docs/PERFORMANCE.md.

#ifndef UNIMATCH_TENSOR_KERNELS_H_
#define UNIMATCH_TENSOR_KERNELS_H_

#include <cstdint>

namespace unimatch::kernels {

/// Which implementation family the dispatched entry points run.
enum class Backend {
  kPortable = 0,
  kAvx2 = 1,
};

/// The backend the entry points currently dispatch to. Resolved once on
/// first use: UNIMATCH_KERNEL_BACKEND env override first, then CPUID.
Backend ActiveBackend();

/// "portable" or "avx2".
const char* BackendName(Backend backend);

/// Test hook: force every subsequent kernel call onto `backend`. Forcing
/// kAvx2 on a machine without AVX2 support is a contract violation.
void SetBackendForTest(Backend backend);

/// Test hook: drop the forced backend and re-resolve from env/CPUID.
void ResetBackendForTest();

/// sum_i a[i] * b[i] (float accumulation).
float DotF32(const float* a, const float* b, int64_t n);

/// y[i] += alpha * x[i].
void AxpyF32(int64_t n, float alpha, const float* x, float* y);

/// y[i] = alpha * x[i] + beta * y[i]. `y` must be initialized (it is read
/// even when beta == 0). `x` and `y` may alias exactly (x == y).
void ScaleAddF32(int64_t n, float alpha, const float* x, float beta, float* y);

/// y[i] = x[i] / max(||x||_2, eps); returns the clamped norm. `x` and `y`
/// may alias exactly.
float L2NormalizeF32(int64_t n, const float* x, float* y, float eps);

/// One Adam step's constants; bc1 = 1 - beta1^t and bc2 = 1 - beta2^t are
/// the bias corrections of step t.
struct AdamStepF32 {
  float lr, beta1, beta2, eps, bc1, bc2;
};

/// One Adam update of n elements, each rounded exactly as the scalar
///   m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g;
///   w -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
/// `g == nullptr` means every g is +0.0f (rows a row-sparse gradient omits;
/// their moments still decay). Unlike the other primitives, the two backends
/// are bitwise equal: the AVX2 path is compiled without FMA, so it rounds
/// every multiply and add as the scalar code does.
void AdamUpdateF32(int64_t n, const AdamStepF32& s, const float* g, float* m,
                   float* v, float* w);

/// Row-range gemm building blocks. Both compute, for C rows i in [i0, i1):
///
///   C[i, j] = beta * C[i, j] + alpha * sum_p A(i, p) * B(?, ?)
///
/// where A(i, p) = a[i * a_row_stride + p * a_col_stride], so one kernel
/// serves both the non-transposed ([m, k]: strides (k, 1)) and transposed
/// ([k, m]: strides (1, m)) storage of A. C is row-major [m, n]. When
/// beta == 0 the C rows are not read. Single-threaded by design — callers
/// shard [0, m) into row blocks for parallelism.
///
/// GemmRowsAxpy: B is row-major [k, n] (B(p, j) = b[p * n + j]); the inner
/// loop broadcasts A(i, p) against contiguous B rows (the !trans_b layouts).
void GemmRowsAxpy(int64_t i0, int64_t i1, int64_t n, int64_t k, float alpha,
                  const float* a, int64_t a_row_stride, int64_t a_col_stride,
                  const float* b, float beta, float* c);

/// GemmRowsDot: B is row-major [n, k] (B(j, p) = b[j * k + p]); each C entry
/// is a dot product over contiguous B rows (the trans_b layouts).
void GemmRowsDot(int64_t i0, int64_t i1, int64_t n, int64_t k, float alpha,
                 const float* a, int64_t a_row_stride, int64_t a_col_stride,
                 const float* b, float beta, float* c);

// ---------------------------------------------------------------------------
// Quantized scoring primitives (see src/tensor/quant.h for the storage side).
// Asymmetric layout: the query stays float32, the stored row is int8 codes or
// IEEE-754 binary16. The widening int8 -> float conversion is exact, so both
// backends agree up to the same summation-order slack as the f32 kernels.
// ---------------------------------------------------------------------------

/// sum_i a[i] * float(codes[i]). The caller applies the per-row scale.
float DotF32I8(const float* a, const int8_t* codes, int64_t n);

/// sum_i a[i] * half_to_float(half[i]).
float DotF32F16(const float* a, const uint16_t* half, int64_t n);

/// dst[i] = float_to_half(src[i]), IEEE binary16, round-to-nearest-even.
/// Both backends (hardware F16C and the portable software path) produce
/// bitwise-identical halves for finite, non-denormal floats.
void F32ToF16(int64_t n, const float* src, uint16_t* dst);

/// dst[i] = half_to_float(src[i]). Exact (every binary16 is a float32).
void F16ToF32(int64_t n, const uint16_t* src, float* dst);

/// out[r * d + j] = scales[r] * float(codes[r * row_stride + j]) for rows
/// [0, rows), packed output — block dequantization behind the batched
/// quantized scans, where one decoded block is scored against a whole query
/// batch. The widening int8 convert is exact and the scale multiply rounds
/// once per lane, so both backends decode bitwise-identical blocks.
void DequantRowsI8(int64_t rows, int64_t d, const int8_t* codes,
                   int64_t row_stride, const float* scales, float* out);

/// Frozen scalar reference paths for the quantized primitives — the
/// equivalence baseline for tests and the "before" side of BENCH_quant.json,
/// never dispatched. Like GemmReference: do not "improve" these.
float DotF32I8Reference(const float* a, const int8_t* codes, int64_t n);
float DotF32F16Reference(const float* a, const uint16_t* half, int64_t n);
uint16_t F32ToF16Reference(float value);
float F16ToF32Reference(uint16_t half);

/// The pre-vectorization scalar gemm, kept verbatim as the equivalence
/// baseline for tests and the "before" side of BENCH_kernels.json. Same
/// contract as tensor_ops Gemm; always single-threaded.
void GemmReference(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                   float alpha, const float* a, const float* b, float beta,
                   float* c);

}  // namespace unimatch::kernels

#endif  // UNIMATCH_TENSOR_KERNELS_H_

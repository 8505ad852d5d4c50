// Raw numeric kernels over Tensor buffers.
//
// These are the hot loops behind the autograd ops in src/nn. They work on
// already-validated shapes; callers (the autograd layer) are responsible for
// shape checks and gradient bookkeeping.

#ifndef UNIMATCH_TENSOR_TENSOR_OPS_H_
#define UNIMATCH_TENSOR_TENSOR_OPS_H_

#include "src/tensor/tensor.h"

namespace unimatch {

/// C = alpha * op(A) x op(B) + beta * C, where op is optional transpose.
/// A is [m, k] (or [k, m] when trans_a), B is [k, n] (or [n, k] when
/// trans_b), C is [m, n]. Multi-threaded across rows for large m*n*k.
void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

/// Convenience wrapper with shape checks. Returns op(A) x op(B).
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// Batched matmul on rank-3 tensors: out[b] = op(A[b]) x op(B[b]).
Tensor BatchMatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
                   bool trans_b = false);

/// ----- softmax row primitives -----
/// Every softmax in the library runs these over one row of n >= 1 floats;
/// the ops own the loop over rows and its threading. Sums are taken in
/// double.

/// y = exp(x - max x) / sum exp(x - max x).
void SoftmaxRow(int64_t n, const float* x, float* y);

/// y = x - max x - log sum exp(x - max x).
void LogSoftmaxRow(int64_t n, const float* x, float* y);

/// Backward of SoftmaxRow with output y and upstream g:
/// dx = y * (g - <y, g>).
void SoftmaxRowGrad(int64_t n, const float* y, const float* g, float* dx);

/// Backward of LogSoftmaxRow with output y and upstream g:
/// dx = g - exp(y) * sum g.
void LogSoftmaxRowGrad(int64_t n, const float* y, const float* g, float* dx);

/// L2-normalizes each row of a [m, n] matrix. Stores the pre-normalization
/// row norms (clamped to >= eps) into `norms` ([m]) if non-null.
void L2NormalizeRows(const Tensor& in, Tensor* out, Tensor* norms,
                     float eps = 1e-12f);

/// out[j] = sum_i in[i, j] for an [m, n] matrix -> [n].
void ReduceSumCols(const Tensor& in, Tensor* out);

}  // namespace unimatch

#endif  // UNIMATCH_TENSOR_TENSOR_OPS_H_

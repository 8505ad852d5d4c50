// Differentiable operations on Variables (dense / matrix ops).
//
// Every function builds one graph node whose backward closure implements the
// analytic gradient; all of them are covered by finite-difference tests.
// Sequence-specific ops (embedding lookup, pooling, batched matmul) live in
// src/nn/seq_ops.h.

#ifndef UNIMATCH_NN_OPS_H_
#define UNIMATCH_NN_OPS_H_

#include <vector>

#include "src/nn/variable.h"

namespace unimatch::nn {

/// ----- elementwise -----
Variable Add(const Variable& a, const Variable& b);  // same shape
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Neg(const Variable& a);
Variable ScalarMul(const Variable& a, float s);
Variable ScalarAdd(const Variable& a, float s);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
Variable Exp(const Variable& a);
/// Natural log; inputs must be positive.
Variable Log(const Variable& a);

/// ----- reductions -----
Variable Sum(const Variable& a);   // -> scalar
Variable Mean(const Variable& a);  // -> scalar

/// ----- shape -----
Variable Reshape(const Variable& a, Shape shape);
/// [m, n] -> [n, m].
Variable Transpose(const Variable& a);
/// Concatenate two matrices along columns: [m, n1] ++ [m, n2] -> [m, n1+n2].
Variable ConcatCols(const Variable& a, const Variable& b);
/// Concatenate two matrices along rows: [m1, n] ++ [m2, n] -> [m1+m2, n].
Variable ConcatRows(const Variable& a, const Variable& b);

/// ----- linear algebra -----
/// op(a) x op(b) for 2-D tensors.
Variable MatMul(const Variable& a, const Variable& b, bool trans_a = false,
                bool trans_b = false);
/// x + v broadcast over rows: out[i, j] = x[i, j] + v[j]. (Bias add.)
Variable AddRowVector(const Variable& x, const Variable& v);
/// Diagonal of a square matrix -> [n].
Variable TakeDiagonal(const Variable& a);
/// Column j of a matrix -> [m].
Variable TakeColumn(const Variable& a, int64_t j);
/// Row-wise inner product of equal-shaped [m, d] matrices -> [m].
Variable RowwiseDot(const Variable& a, const Variable& b);
/// L2-normalizes each row of [m, d] (Eq. 13's normalization).
Variable L2NormalizeRows(const Variable& a, float eps = 1e-12f);

/// ----- softmax -----
/// Log-softmax of each row of a 2-D tensor. A softmax over columns is the
/// row softmax of Transpose(a).
Variable LogSoftmax(const Variable& a);

/// ----- normalization -----
/// Layer normalization over the last dim of [n, d] with learned gain/bias
/// ([d] each).
Variable LayerNorm(const Variable& x, const Variable& gain,
                   const Variable& bias, float eps = 1e-5f);

/// ----- ready-made losses -----
/// mean_i [ -y_i log sigmoid(x_i) - (1-y_i) log(1 - sigmoid(x_i)) ]
/// computed in the numerically-stable log-sum-exp form. `labels` is a
/// constant (no gradient), same shape as logits.
Variable BCEWithLogits(const Variable& logits, const Tensor& labels);

/// Inverted dropout: zeroes each element with probability `p` and rescales
/// the survivors by 1/(1-p), so expectations match eval-time behavior.
/// Callers only apply this during training (there is no global mode flag).
Variable Dropout(const Variable& a, float p, Rng* rng);

/// Constant (non-differentiable) wrapper.
inline Variable Constant(Tensor t) { return Variable(std::move(t), false); }

}  // namespace unimatch::nn

#endif  // UNIMATCH_NN_OPS_H_

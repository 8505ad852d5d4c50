// Differentiable operations specific to padded behavior sequences.
//
// A batch of user behavior sequences is stored as a flat id array of shape
// [B, L] with kPadId in unused positions, plus a per-row length vector.
// All pooling ops ignore padded positions, matching the paper's treatment of
// variable-length purchase histories truncated to a maximum length.

#ifndef UNIMATCH_NN_SEQ_OPS_H_
#define UNIMATCH_NN_SEQ_OPS_H_

#include <cstdint>
#include <vector>

#include "src/nn/variable.h"

namespace unimatch::nn {

/// Sentinel id marking a padded position in a sequence batch.
inline constexpr int64_t kPadId = -1;

/// Gathers rows of an embedding table: table is [V, d], ids has n entries in
/// [0, V) or kPadId (which yields a zero row and no gradient). Output [n, d].
/// Backward scatter-adds into the table's gradient as a row-sparse gradient
/// (see AccumulateLookupGrad).
Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int64_t>& ids);

/// The embedding lookup's backward: scatter-adds row i of `grad` ([n, d])
/// into row ids[i] of `table`'s gradient for every non-pad id (each in
/// [0, V) or kPadId) and accumulates the result as a row-sparse gradient
/// holding only the touched rows, in ascending order. Each row starts at
/// +0.0f and adds its contributions in id order, so every row is bitwise
/// what a dense [V, d] scatter computes. Costs O(n * d + V / 64): a bitmap
/// marks the touched rows and popcount ranks give each its slot, so the
/// ids are never sorted.
void AccumulateLookupGrad(const Variable& table, const int64_t* ids,
                          const float* grad, int64_t n);

/// Sequence variant: ids is row-major [B, L]; output [B, L, d].
Variable EmbeddingLookupSeq(const Variable& table,
                            const std::vector<int64_t>& ids, int64_t batch,
                            int64_t len);

/// Shifts a [B, L, d] tensor along the time axis by `offset` positions
/// (positive = towards later steps), zero-filling vacated slots. Used to
/// express 1-D convolutions as shifted matmuls.
Variable ShiftSeq(const Variable& x, int64_t offset);

/// Extracts time step t: [B, L, d] -> [B, d].
Variable SelectTimeStep(const Variable& x, int64_t t);

/// Stacks L tensors of [B, d] into [B, L, d].
Variable StackTimeSteps(const std::vector<Variable>& steps);

/// Batched matmul on [B, m, k] x [B, k, n] rank-3 Variables (with optional
/// transposes of the last two dims).
Variable Bmm(const Variable& a, const Variable& b, bool trans_a = false,
             bool trans_b = false);

/// Mean over valid (t < lengths[b]) positions of [B, L, d] -> [B, d].
/// Rows with length 0 produce zeros.
Variable MaskedMeanPool(const Variable& x, const std::vector<int64_t>& lengths);

/// Elementwise max over valid positions -> [B, d]; gradient routes to the
/// argmax position. Rows with length 0 produce zeros.
Variable MaskedMaxPool(const Variable& x, const std::vector<int64_t>& lengths);

/// Embedding at the last valid position -> [B, d].
Variable LastPool(const Variable& x, const std::vector<int64_t>& lengths);

/// Softmax over the valid prefix of each row of [B, L]; padded positions get
/// probability zero. Rows with length 0 stay all-zero.
Variable MaskedSoftmaxSeq(const Variable& scores,
                          const std::vector<int64_t>& lengths);

/// sum_t w[b, t] * x[b, t, :] -> [B, d]. (Attention-pool combine step.)
Variable WeightedPool(const Variable& x, const Variable& w);

/// Masked softmax over the last axis of attention scores [B, L, L]: position
/// (b, q, k) is excluded when k >= lengths[b]. Query rows past the length
/// still produce a (uniform) distribution; they are ignored downstream by
/// the masked pooling.
Variable MaskedSoftmaxLastDim(const Variable& scores,
                              const std::vector<int64_t>& lengths);

/// Zeroes every padded position of a [B, L, d] tensor. Applied after
/// position-mixing layers (conv/attention) so padded slots cannot leak into
/// subsequent layers.
Variable ApplySeqMask(const Variable& x, const std::vector<int64_t>& lengths);

}  // namespace unimatch::nn

#endif  // UNIMATCH_NN_SEQ_OPS_H_

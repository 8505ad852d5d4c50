// Dense row-major float32 tensor.
//
// This is the numeric substrate for the from-scratch neural-network library
// (src/nn) that replaces the paper's TensorFlow dependency. Tensors are
// value types with shared storage: copying a Tensor aliases the same buffer
// (like a TF/PyTorch handle); use Clone() for a deep copy.
//
// Storage comes from the 64-byte-aligned size-class BufferPool (see
// src/tensor/storage.h), so hot loops recycle buffers instead of hitting
// the heap, and the AVX2 kernels see aligned base pointers. Beyond the
// whole-buffer handle there are zero-copy views:
//
//   t.Reshaped(shape)   same elements, different shape
//   t.Row(i)            row i of a rank>=2 tensor (drops the leading dim)
//   t.Slice(b, e)       rows [b, e) along the leading dim
//
// Views alias the parent's buffer — shares_storage() is true between any
// two of them — and keep it alive. Tensor::Empty skips the zero-fill of
// the ordinary constructor; use it only when every element is overwritten
// before being read.
//
// Supported ranks are 0..3, which covers everything the two-tower model
// needs: scalars (losses), [B] vectors, [B, d] matrices and [B, L, d]
// sequence batches.

#ifndef UNIMATCH_TENSOR_TENSOR_H_
#define UNIMATCH_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/storage.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace unimatch {

/// Tensor shape: a small vector of dimension sizes.
using Shape = std::vector<int64_t>;

/// Returns the number of elements of a shape (1 for rank-0).
int64_t ShapeNumel(const Shape& shape);

/// "[2, 3, 16]"
std::string ShapeToString(const Shape& shape);

class Tensor {
 public:
  /// An empty (rank-0, single element, zero) tensor.
  Tensor() : Tensor(Shape{}) {}

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape with explicit contents (size must match).
  Tensor(Shape shape, std::vector<float> values);

  /// ----- factory helpers -----
  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  /// Uninitialized tensor: pooled storage, contents unspecified. Only for
  /// outputs whose every element is written before it is read — backward
  /// closures that accumulate into fresh tensors need Zeros/Tensor(shape).
  static Tensor Empty(Shape shape);
  /// Zero-initialized tensor whose storage bypasses the BufferPool — for
  /// long-lived parameters that would otherwise pin pool size classes.
  static Tensor ZerosUnpooled(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Ones(Shape shape) { return Full(std::move(shape), 1.0f); }
  /// Scalar tensor.
  static Tensor Scalar(float value) { return Full({}, value); }
  /// i.i.d. N(0, stddev^2) entries.
  static Tensor Randn(Shape shape, float stddev, Rng* rng);
  /// i.i.d. U[lo, hi) entries.
  static Tensor Uniform(Shape shape, float lo, float hi, Rng* rng);

  /// ----- shape accessors -----
  const Shape& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const {
    UM_CHECK_GE(i, 0);
    UM_CHECK_LT(i, rank());
    return shape_[i];
  }
  int64_t numel() const { return numel_; }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// ----- element access -----
  float* data() { return storage_.data(); }
  const float* data() const { return storage_.data(); }

  float& at(int64_t i) {
    UM_CHECK_GE(i, 0);
    UM_CHECK_LT(i, numel_);
    return storage_.data()[i];
  }
  float at(int64_t i) const {
    UM_CHECK_GE(i, 0);
    UM_CHECK_LT(i, numel_);
    return storage_.data()[i];
  }
  float& at(int64_t i, int64_t j) {
    UM_CHECK_EQ(rank(), 2);
    UM_CHECK_GE(i, 0);
    UM_CHECK_LT(i, shape_[0]);
    UM_CHECK_GE(j, 0);
    UM_CHECK_LT(j, shape_[1]);
    return storage_.data()[i * shape_[1] + j];
  }
  float at(int64_t i, int64_t j) const {
    UM_CHECK_EQ(rank(), 2);
    UM_CHECK_GE(i, 0);
    UM_CHECK_LT(i, shape_[0]);
    UM_CHECK_GE(j, 0);
    UM_CHECK_LT(j, shape_[1]);
    return storage_.data()[i * shape_[1] + j];
  }
  float& at(int64_t i, int64_t j, int64_t k) {
    UM_CHECK_EQ(rank(), 3);
    UM_CHECK_GE(i, 0);
    UM_CHECK_LT(i, shape_[0]);
    UM_CHECK_GE(j, 0);
    UM_CHECK_LT(j, shape_[1]);
    UM_CHECK_GE(k, 0);
    UM_CHECK_LT(k, shape_[2]);
    return storage_.data()[(i * shape_[1] + j) * shape_[2] + k];
  }
  float at(int64_t i, int64_t j, int64_t k) const {
    UM_CHECK_EQ(rank(), 3);
    UM_CHECK_GE(i, 0);
    UM_CHECK_LT(i, shape_[0]);
    UM_CHECK_GE(j, 0);
    UM_CHECK_LT(j, shape_[1]);
    UM_CHECK_GE(k, 0);
    UM_CHECK_LT(k, shape_[2]);
    return storage_.data()[(i * shape_[1] + j) * shape_[2] + k];
  }

  /// Scalar value of a one-element tensor.
  float item() const {
    UM_CHECK_EQ(numel_, 1);
    return storage_.data()[0];
  }

  /// ----- mutation -----
  void Fill(float value);
  void SetZero() { Fill(0.0f); }
  /// Copies `other`'s elements into this tensor (shapes must match). No
  /// allocation — the workhorse for workspace reuse.
  void CopyFrom(const Tensor& other);

  /// Deep copy with fresh storage.
  Tensor Clone() const;

  /// Returns a tensor sharing this storage but with a different shape of the
  /// same element count.
  Tensor Reshaped(Shape new_shape) const;

  /// Zero-copy view of index `i` along the leading dimension: shape is this
  /// shape without dim 0 (a [B, d] matrix yields the [d] row, a [B, L, d]
  /// batch yields the [L, d] sequence). Requires rank >= 1.
  Tensor Row(int64_t i) const;

  /// Zero-copy view of rows [begin, end) along the leading dimension.
  /// Requires rank >= 1.
  Tensor Slice(int64_t begin, int64_t end) const;

  /// True if both tensors alias the same underlying buffer (views of one
  /// tensor share storage even when their element windows are disjoint).
  bool shares_storage(const Tensor& other) const {
    return storage_.SharesBufferWith(other.storage_);
  }

  /// True when this handle (and its views) are the only reference to the
  /// buffer — gradient accumulation moves instead of copying in that case.
  bool storage_unique() const { return storage_.unique(); }

  /// ----- in-place arithmetic (used by optimizers) -----
  void AddInPlace(const Tensor& other, float alpha = 1.0f);  // this += a*other
  void ScaleInPlace(float alpha);                            // this *= a

  /// Sum / mean / min / max over all elements.
  double Sum() const;
  double Mean() const;
  float Min() const;
  float Max() const;
  /// sqrt(sum of squares).
  double L2Norm() const;

  /// Human-readable preview (truncated for large tensors).
  std::string ToString(int64_t max_elems = 32) const;

 private:
  // Internal: skip the allocation of the public default constructor when
  // the caller sets shape_/numel_/storage_ itself (views, factories).
  struct NoAllocTag {};
  explicit Tensor(NoAllocTag) {}

  Shape shape_;
  int64_t numel_ = 1;
  Storage storage_;
};

/// True if every pair of elements differs by at most atol + rtol*|b|.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace unimatch

#endif  // UNIMATCH_TENSOR_TENSOR_H_

#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "src/tensor/kernels.h"
#include "src/util/parallel.h"

namespace unimatch {

int64_t ShapeNumel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    UM_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      numel_(ShapeNumel(shape_)),
      storage_(Storage::Allocate(numel_)) {
  std::memset(storage_.data(), 0, static_cast<size_t>(numel_) * sizeof(float));
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), numel_(ShapeNumel(shape_)) {
  UM_CHECK_EQ(numel_, static_cast<int64_t>(values.size()));
  storage_ = Storage::Allocate(numel_);
  std::memcpy(storage_.data(), values.data(),
              static_cast<size_t>(numel_) * sizeof(float));
}

Tensor Tensor::Empty(Shape shape) {
  Tensor t{NoAllocTag{}};
  t.shape_ = std::move(shape);
  t.numel_ = ShapeNumel(t.shape_);
  t.storage_ = Storage::Allocate(t.numel_);
  return t;
}

Tensor Tensor::ZerosUnpooled(Shape shape) {
  Tensor t{NoAllocTag{}};
  t.shape_ = std::move(shape);
  t.numel_ = ShapeNumel(t.shape_);
  t.storage_ = Storage::AllocateUnpooled(t.numel_);
  std::memset(t.storage_.data(), 0,
              static_cast<size_t>(t.numel_) * sizeof(float));
  return t;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Empty(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Randn(Shape shape, float stddev, Rng* rng) {
  Tensor t = Empty(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng->Gaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::Uniform(Shape shape, float lo, float hi, Rng* rng) {
  Tensor t = Empty(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng->UniformDouble(lo, hi));
  }
  return t;
}

void Tensor::Fill(float value) {
  float* p = data();
  std::fill(p, p + numel_, value);
}

void Tensor::CopyFrom(const Tensor& other) {
  UM_CHECK(same_shape(other));
  std::memmove(data(), other.data(),
               static_cast<size_t>(numel_) * sizeof(float));
}

Tensor Tensor::Clone() const {
  Tensor t = Empty(shape_);
  std::memcpy(t.data(), data(), static_cast<size_t>(numel_) * sizeof(float));
  return t;
}

Tensor Tensor::Reshaped(Shape new_shape) const {
  UM_CHECK_EQ(ShapeNumel(new_shape), numel_);
  Tensor t{NoAllocTag{}};
  t.shape_ = std::move(new_shape);
  t.numel_ = numel_;
  t.storage_ = storage_;
  return t;
}

Tensor Tensor::Row(int64_t i) const {
  UM_CHECK_GE(rank(), 1);
  UM_CHECK_GE(i, 0);
  UM_CHECK_LT(i, shape_[0]);
  Shape row_shape(shape_.begin() + 1, shape_.end());
  const int64_t stride = ShapeNumel(row_shape);
  Tensor t{NoAllocTag{}};
  t.shape_ = std::move(row_shape);
  t.numel_ = stride;
  t.storage_ = storage_.View(i * stride, stride);
  return t;
}

Tensor Tensor::Slice(int64_t begin, int64_t end) const {
  UM_CHECK_GE(rank(), 1);
  UM_CHECK_GE(begin, 0);
  UM_CHECK_LE(begin, end);
  UM_CHECK_LE(end, shape_[0]);
  Shape slice_shape = shape_;
  slice_shape[0] = end - begin;
  const int64_t stride = shape_[0] == 0 ? 0 : numel_ / shape_[0];
  Tensor t{NoAllocTag{}};
  t.shape_ = std::move(slice_shape);
  t.numel_ = (end - begin) * stride;
  t.storage_ = storage_.View(begin * stride, t.numel_);
  return t;
}

void Tensor::AddInPlace(const Tensor& other, float alpha) {
  UM_CHECK(same_shape(other));
  // Elementwise with disjoint ranges: region sharding is bitwise-exact.
  RegionParallelForRange(0, numel_, [&](int64_t lo, int64_t hi) {
    kernels::AxpyF32(hi - lo, alpha, other.data() + lo, data() + lo);
  });
}

void Tensor::ScaleInPlace(float alpha) {
  RegionParallelForRange(0, numel_, [&](int64_t lo, int64_t hi) {
    kernels::ScaleAddF32(hi - lo, 0.0f, data() + lo, alpha, data() + lo);
  });
}

double Tensor::Sum() const {
  double s = 0.0;
  const float* p = data();
  for (int64_t i = 0; i < numel_; ++i) s += p[i];
  return s;
}

double Tensor::Mean() const { return numel_ == 0 ? 0.0 : Sum() / numel_; }

float Tensor::Min() const {
  UM_CHECK_GT(numel_, 0);
  const float* p = data();
  return *std::min_element(p, p + numel_);
}

float Tensor::Max() const {
  UM_CHECK_GT(numel_, 0);
  const float* p = data();
  return *std::max_element(p, p + numel_);
}

double Tensor::L2Norm() const {
  double s = 0.0;
  const float* p = data();
  for (int64_t i = 0; i < numel_; ++i) s += static_cast<double>(p[i]) * p[i];
  return std::sqrt(s);
}

std::string Tensor::ToString(int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t n = std::min(numel_, max_elems);
  const float* p = data();
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << p[i];
  }
  if (n < numel_) os << ", ...";
  os << '}';
  return os.str();
}

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.same_shape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float tol = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

}  // namespace unimatch

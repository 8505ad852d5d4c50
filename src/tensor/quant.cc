#include "src/tensor/quant.h"

#include <algorithm>
#include <cmath>

#include "src/obs/obs.h"
#include "src/tensor/kernels.h"
#include "src/util/contract.h"

namespace unimatch {

namespace {

// Floats needed to back `bytes` bytes in a Storage buffer.
int64_t FloatsForBytes(int64_t bytes) {
  return (bytes + static_cast<int64_t>(sizeof(float)) - 1) /
         static_cast<int64_t>(sizeof(float));
}

}  // namespace

const char* ScalarTypeName(ScalarType type) {
  switch (type) {
    case ScalarType::kF32:
      return "f32";
    case ScalarType::kF16:
      return "f16";
    case ScalarType::kI8:
      return "i8";
  }
  return "unknown";
}

int64_t ScalarTypeBytes(ScalarType type) {
  switch (type) {
    case ScalarType::kF32:
      return 4;
    case ScalarType::kF16:
      return 2;
    case ScalarType::kI8:
      return 1;
  }
  return 4;
}

QuantizedMatrix QuantizedMatrix::Quantize(const Tensor& m, ScalarType type) {
  UM_CHECK_EQ(m.rank(), 2) << "QuantizedMatrix expects a [N, d] matrix";
  UM_CHECK_FINITE(m) << "QuantizedMatrix::Quantize input";
  UM_SCOPED_TIMER("tensor.quant.quantize.ms");
  const int64_t rows = m.dim(0), cols = m.dim(1);
  UM_COUNTER_ADD("tensor.quant.rows_quantized", rows);

  QuantizedMatrix q;
  q.type_ = type;
  q.rows_ = rows;
  q.cols_ = cols;
  switch (type) {
    case ScalarType::kF32:
      q.f32_ = m;  // refcounted alias, no copy
      break;
    case ScalarType::kF16: {
      q.codes_ = Storage::Allocate(FloatsForBytes(rows * cols * 2));
      uint16_t* dst = reinterpret_cast<uint16_t*>(q.codes_.data());
      kernels::F32ToF16(rows * cols, m.data(), dst);
      break;
    }
    case ScalarType::kI8: {
      q.codes_ = Storage::Allocate(FloatsForBytes(rows * cols));
      q.scales_ = Storage::Allocate(rows);
      int8_t* dst = reinterpret_cast<int8_t*>(q.codes_.data());
      float* scales = q.scales_.data();
      const float* src = m.data();
      for (int64_t r = 0; r < rows; ++r) {
        const float* row = src + r * cols;
        float maxabs = 0.0f;
        for (int64_t j = 0; j < cols; ++j) {
          maxabs = std::max(maxabs, std::fabs(row[j]));
        }
        int8_t* out = dst + r * cols;
        if (maxabs == 0.0f) {
          // All-zero row: scale 0 round-trips to exact zeros.
          scales[r] = 0.0f;
          std::fill(out, out + cols, static_cast<int8_t>(0));
          continue;
        }
        const float scale = maxabs / 127.0f;
        const float inv = 127.0f / maxabs;
        scales[r] = scale;
        for (int64_t j = 0; j < cols; ++j) {
          const long code = std::lroundf(row[j] * inv);
          out[j] = static_cast<int8_t>(
              std::clamp<long>(code, -127, 127));
        }
      }
      break;
    }
  }
  UM_GAUGE_SET("tensor.quant.bytes_per_row", q.bytes_per_row());
  return q;
}

Tensor QuantizedMatrix::Dequantize() const {
  UM_CHECK(valid()) << "Dequantize on an empty QuantizedMatrix";
  if (type_ == ScalarType::kF32) return f32_;
  Tensor out = Tensor::Empty({rows_, cols_});
  for (int64_t r = 0; r < rows_; ++r) {
    DequantizeRow(r, out.data() + r * cols_);
  }
  return out;
}

void QuantizedMatrix::DequantizeRow(int64_t row, float* out) const {
  UM_CHECK_GE(row, 0);
  UM_CHECK_LT(row, rows_);
  UM_COUNTER_INC("tensor.quant.rows_dequantized");
  switch (type_) {
    case ScalarType::kF32: {
      const float* src = f32_.data() + row * cols_;
      std::copy(src, src + cols_, out);
      return;
    }
    case ScalarType::kF16:
      kernels::F16ToF32(cols_, f16_row(row), out);
      return;
    case ScalarType::kI8: {
      const int8_t* codes = i8_row(row);
      const float s = scales_.data()[row];
      for (int64_t j = 0; j < cols_; ++j) {
        out[j] = s * static_cast<float>(codes[j]);
      }
      return;
    }
  }
}

void QuantizedMatrix::DequantizeRows(int64_t r0, int64_t r1,
                                     float* out) const {
  UM_CHECK(valid()) << "DequantizeRows on an empty QuantizedMatrix";
  UM_CHECK_GE(r0, 0);
  UM_CHECK_LE(r0, r1);
  UM_CHECK_LE(r1, rows_);
  const int64_t rows = r1 - r0;
  if (rows == 0) return;
  UM_COUNTER_ADD("tensor.quant.rows_dequantized", rows);
  switch (type_) {
    case ScalarType::kF32: {
      const float* src = f32_.data() + r0 * cols_;
      std::copy(src, src + rows * cols_, out);
      return;
    }
    case ScalarType::kF16:
      // Rows are packed, so the block is one contiguous run of halves.
      kernels::F16ToF32(rows * cols_, f16_row(r0), out);
      return;
    case ScalarType::kI8:
      kernels::DequantRowsI8(rows, cols_, i8_row(r0), cols_,
                             scales_.data() + r0, out);
      return;
  }
}

float QuantizedMatrix::Score(int64_t row, const float* query) const {
  UM_CHECK_GE(row, 0);
  UM_CHECK_LT(row, rows_);
  switch (type_) {
    case ScalarType::kF32:
      return kernels::DotF32(query, f32_.data() + row * cols_, cols_);
    case ScalarType::kF16:
      return kernels::DotF32F16(query, f16_row(row), cols_);
    case ScalarType::kI8:
      return scales_.data()[row] *
             kernels::DotF32I8(query, i8_row(row), cols_);
  }
  return 0.0f;
}

float QuantizedMatrix::scale(int64_t row) const {
  UM_CHECK_GE(row, 0);
  UM_CHECK_LT(row, rows_);
  return type_ == ScalarType::kI8 ? scales_.data()[row] : 1.0f;
}

const int8_t* QuantizedMatrix::i8_row(int64_t row) const {
  UM_CHECK(type_ == ScalarType::kI8);
  UM_CHECK_GE(row, 0);
  UM_CHECK_LT(row, rows_);
  return reinterpret_cast<const int8_t*>(codes_.data()) + row * cols_;
}

const uint16_t* QuantizedMatrix::f16_row(int64_t row) const {
  UM_CHECK(type_ == ScalarType::kF16);
  UM_CHECK_GE(row, 0);
  UM_CHECK_LT(row, rows_);
  return reinterpret_cast<const uint16_t*>(codes_.data()) + row * cols_;
}

const float* QuantizedMatrix::f32_row(int64_t row) const {
  UM_CHECK(type_ == ScalarType::kF32);
  UM_CHECK_GE(row, 0);
  UM_CHECK_LT(row, rows_);
  return f32_.data() + row * cols_;
}

int64_t QuantizedMatrix::payload_bytes() const {
  switch (type_) {
    case ScalarType::kF32:
      return rows_ * cols_ * 4;
    case ScalarType::kF16:
      return rows_ * cols_ * 2;
    case ScalarType::kI8:
      return rows_ * cols_ + rows_ * static_cast<int64_t>(sizeof(float));
  }
  return 0;
}

double QuantizedMatrix::bytes_per_row() const {
  return rows_ == 0 ? 0.0
                    : static_cast<double>(payload_bytes()) /
                          static_cast<double>(rows_);
}

}  // namespace unimatch

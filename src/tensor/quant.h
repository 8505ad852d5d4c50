// Quantized embedding-table storage — the memory-compression layer under
// the serving stack.
//
// At deployment scale the embedding tables dominate the memory bill:
// hundreds of millions of users times d float32 lanes. A QuantizedMatrix
// stores the same [N, d] matrix in one of three layouts:
//
//   kF32  the float Tensor itself (refcounted alias, zero conversion) —
//         the uniform-API passthrough;
//   kF16  IEEE-754 binary16 codes, 2 bytes/lane (~2x smaller, ~2^-11
//         relative error — negligible for l2-normalized embeddings);
//   kI8   per-row-scaled int8 codes, 1 byte/lane + one float scale per row
//         (~3-4x smaller at the repo's dims; the row scale is
//         max|x|/127, so a row round-trips within scale/2 per lane).
//
// Codes live in pool-backed Storage buffers (src/tensor/storage.h), so the
// base pointer is 64-byte aligned for the SIMD kernels and the buffers
// recycle through the same BufferPool as every other tensor; rows are
// packed (stride = d codes) because compression, not per-row alignment, is
// the point — the int8/f16 kernels use unaligned loads.
//
// Scoring is asymmetric: queries stay float32 and are scored directly
// against the codes (kernels::DotF32I8 / DotF32F16), so there is no query
// quantization error. Pointer access to rows goes through the typed
// i8_row/f16_row accessors — reinterpret_casting between quantized and
// float row pointers outside src/tensor is a lint error (quant-cast rule,
// tools/lint.py).
//
// Thread safety: a QuantizedMatrix is immutable after Quantize; concurrent
// reads need no synchronization (same rules as a const Tensor).

#ifndef UNIMATCH_TENSOR_QUANT_H_
#define UNIMATCH_TENSOR_QUANT_H_

#include <cstdint>
#include <string>

#include "src/tensor/storage.h"
#include "src/tensor/tensor.h"

namespace unimatch {

/// Storage element type of an embedding table (or quantized index).
enum class ScalarType {
  kF32 = 0,
  kF16 = 1,
  kI8 = 2,
};

/// "f32", "f16" or "i8".
const char* ScalarTypeName(ScalarType type);

/// Bytes per lane of a scalar type (4, 2, 1).
int64_t ScalarTypeBytes(ScalarType type);

/// Immutable quantized view of a [N, d] float matrix.
class QuantizedMatrix {
 public:
  /// Invalid (empty) matrix; Quantize is the only way to a valid one.
  QuantizedMatrix() = default;

  /// Quantizes `m` ([N, d], finite) into `type` storage. kF32 aliases the
  /// tensor without copying; kF16/kI8 allocate pooled code buffers.
  static QuantizedMatrix Quantize(const Tensor& m, ScalarType type);

  bool valid() const { return rows_ > 0; }
  ScalarType type() const { return type_; }
  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  /// Full decompression back to float32 (tests, parity checks).
  Tensor Dequantize() const;

  /// Decompresses one row into `out` (`cols()` floats).
  void DequantizeRow(int64_t row, float* out) const;

  /// Decompresses rows [r0, r1) into `out` (packed, (r1 - r0) * cols()
  /// floats). Row-for-row identical to DequantizeRow — the blocked-decode
  /// path behind batched quantized search, which dequantizes each catalog
  /// block once and scores the whole query batch against the floats.
  void DequantizeRows(int64_t r0, int64_t r1, float* out) const;

  /// Inner product of the float query (`cols()` floats) against row `row`,
  /// dequantization folded into the kernel (one multiply by the row scale).
  float Score(int64_t row, const float* query) const;

  /// Per-row int8 scale (kI8 only; an all-zero row has scale 0). kF32/kF16
  /// rows report 1.
  float scale(int64_t row) const;

  /// Typed row pointers. Only the accessor matching type() is valid.
  const int8_t* i8_row(int64_t row) const;
  const uint16_t* f16_row(int64_t row) const;
  const float* f32_row(int64_t row) const;

  /// Total payload: codes plus per-row scales (excludes the handle itself).
  int64_t payload_bytes() const;

  /// payload_bytes() / rows — the bytes-per-user figure of BENCH_quant.json.
  double bytes_per_row() const;

 private:
  ScalarType type_ = ScalarType::kF32;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  Tensor f32_;        // kF32: refcounted alias of the source matrix
  Storage codes_;     // kF16/kI8: packed codes, reinterpreted per type
  Storage scales_;    // kI8: one float scale per row
};

}  // namespace unimatch

#endif  // UNIMATCH_TENSOR_QUANT_H_

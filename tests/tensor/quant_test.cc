#include "src/tensor/quant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/tensor/kernels.h"
#include "src/tensor/tensor.h"
#include "src/util/random.h"

namespace unimatch {
namespace {

using kernels::Backend;

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  return v;
}

Tensor RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor m({rows, cols});
  for (int64_t i = 0; i < m.numel(); ++i) {
    m.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return m;
}

// Sizes hitting every tail path of the 16-wide int8 kernel and the 8-wide
// f16 kernel.
const int64_t kSizes[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};

// ---------------------------------------------------------------------------
// IEEE binary16 conversion semantics (reference path).
// ---------------------------------------------------------------------------

TEST(F16ReferenceTest, SpecialValues) {
  EXPECT_EQ(kernels::F32ToF16Reference(0.0f), 0x0000u);
  EXPECT_EQ(kernels::F32ToF16Reference(-0.0f), 0x8000u);
  EXPECT_EQ(kernels::F32ToF16Reference(1.0f), 0x3c00u);
  EXPECT_EQ(kernels::F32ToF16Reference(-2.0f), 0xc000u);
  EXPECT_EQ(kernels::F32ToF16Reference(65504.0f), 0x7bffu);  // max finite
  // Overflow saturates to infinity.
  EXPECT_EQ(kernels::F32ToF16Reference(65520.0f), 0x7c00u);
  EXPECT_EQ(kernels::F32ToF16Reference(1e30f), 0x7c00u);
  EXPECT_EQ(kernels::F32ToF16Reference(-1e30f), 0xfc00u);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(kernels::F32ToF16Reference(inf), 0x7c00u);
  EXPECT_EQ(kernels::F32ToF16Reference(-inf), 0xfc00u);
  // NaN stays NaN.
  const uint16_t nan_half =
      kernels::F32ToF16Reference(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(kernels::F16ToF32Reference(nan_half)));
  // Smallest positive subnormal and smallest normal.
  EXPECT_FLOAT_EQ(kernels::F16ToF32Reference(0x0001u), 5.9604645e-8f);
  EXPECT_FLOAT_EQ(kernels::F16ToF32Reference(0x0400u), 6.103515625e-5f);
}

TEST(F16ReferenceTest, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half; RNE keeps
  // the even mantissa (1.0). 1 + 3*2^-11 rounds up to 1 + 2^-10 * 2.
  EXPECT_EQ(kernels::F32ToF16Reference(1.0f + 0x1p-11f), 0x3c00u);
  EXPECT_EQ(kernels::F32ToF16Reference(1.0f + 3 * 0x1p-11f), 0x3c02u);
  // Just above halfway rounds up.
  EXPECT_EQ(kernels::F32ToF16Reference(1.0f + 0x1.1p-11f), 0x3c01u);
}

TEST(F16ReferenceTest, AllHalfPatternsRoundTrip) {
  // Every binary16 value is exactly representable as a float32, so
  // half -> float -> half must be the identity for every non-NaN pattern.
  for (uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const uint16_t half = static_cast<uint16_t>(bits);
    const float f = kernels::F16ToF32Reference(half);
    if (std::isnan(f)) {
      // NaN payloads need not be preserved bit-for-bit; NaN-ness must be.
      EXPECT_TRUE(std::isnan(kernels::F16ToF32Reference(
          kernels::F32ToF16Reference(f))))
          << "bits=" << bits;
      continue;
    }
    EXPECT_EQ(kernels::F32ToF16Reference(f), half) << "bits=" << bits;
  }
}

// ---------------------------------------------------------------------------
// Dispatched kernels vs the frozen references, on every available backend.
// ---------------------------------------------------------------------------

class QuantKernelsBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kAvx2 &&
        kernels::ActiveBackend() != Backend::kAvx2) {
      GTEST_SKIP() << "CPU lacks AVX2/FMA/F16C";
    }
    kernels::SetBackendForTest(GetParam());
  }
  void TearDown() override { kernels::ResetBackendForTest(); }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, QuantKernelsBackendTest,
                         ::testing::Values(Backend::kPortable, Backend::kAvx2),
                         [](const auto& info) {
                           return std::string(
                               kernels::BackendName(info.param));
                         });

TEST_P(QuantKernelsBackendTest, F16ConversionMatchesReferenceBitwise) {
  for (int64_t n : kSizes) {
    auto src = RandomVec(n, 40 + n);
    std::vector<uint16_t> got(n, 0xdead), want(n, 0xbeef);
    kernels::F32ToF16(n, src.data(), got.data());
    for (int64_t i = 0; i < n; ++i) {
      want[i] = kernels::F32ToF16Reference(src[i]);
    }
    EXPECT_EQ(got, want) << "n=" << n;

    std::vector<float> back(n), back_want(n);
    kernels::F16ToF32(n, got.data(), back.data());
    for (int64_t i = 0; i < n; ++i) {
      back_want[i] = kernels::F16ToF32Reference(want[i]);
    }
    EXPECT_EQ(back, back_want) << "n=" << n;
  }
}

TEST_P(QuantKernelsBackendTest, DotF32I8MatchesReference) {
  for (int64_t n : kSizes) {
    auto a = RandomVec(n, 50 + n);
    Rng rng(60 + n);
    std::vector<int8_t> codes(n);
    for (auto& c : codes) {
      c = static_cast<int8_t>(rng.UniformRange(-127, 127));
    }
    const float want = kernels::DotF32I8Reference(a.data(), codes.data(), n);
    const float got = kernels::DotF32I8(a.data(), codes.data(), n);
    EXPECT_NEAR(got, want, 1e-3f * (1.0f + std::fabs(want))) << "n=" << n;
  }
}

TEST_P(QuantKernelsBackendTest, DotF32F16MatchesReference) {
  for (int64_t n : kSizes) {
    auto a = RandomVec(n, 70 + n);
    auto b = RandomVec(n, 80 + n);
    std::vector<uint16_t> half(n);
    kernels::F32ToF16(n, b.data(), half.data());
    const float want = kernels::DotF32F16Reference(a.data(), half.data(), n);
    const float got = kernels::DotF32F16(a.data(), half.data(), n);
    EXPECT_NEAR(got, want, 1e-3f * (1.0f + std::fabs(want))) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// QuantizedMatrix storage semantics.
// ---------------------------------------------------------------------------

TEST(QuantizedMatrixTest, Int8RoundTripWithinHalfScalePerLane) {
  const int64_t rows = 20, cols = 16;
  Tensor m = RandomMatrix(rows, cols, 100);
  QuantizedMatrix q = QuantizedMatrix::Quantize(m, ScalarType::kI8);
  ASSERT_TRUE(q.valid());
  std::vector<float> row(cols);
  for (int64_t r = 0; r < rows; ++r) {
    q.DequantizeRow(r, row.data());
    const float bound = 0.5f * q.scale(r) * 1.001f;  // half-code + slack
    for (int64_t j = 0; j < cols; ++j) {
      EXPECT_NEAR(row[j], m.data()[r * cols + j], bound)
          << "row " << r << " lane " << j;
    }
  }
}

TEST(QuantizedMatrixTest, ZeroRowRoundTripsExactly) {
  Tensor m({2, 8});  // zero-initialized
  m.data()[8] = 1.5f;  // second row non-zero
  QuantizedMatrix q = QuantizedMatrix::Quantize(m, ScalarType::kI8);
  EXPECT_EQ(q.scale(0), 0.0f);
  std::vector<float> row(8, -1.0f);
  q.DequantizeRow(0, row.data());
  for (float v : row) EXPECT_EQ(v, 0.0f);
  // A zero row scores exactly zero against any query.
  auto query = RandomVec(8, 101);
  EXPECT_EQ(q.Score(0, query.data()), 0.0f);
}

TEST(QuantizedMatrixTest, ConstantRowRoundTripsToMaxCode) {
  const int64_t cols = 8;
  Tensor m({1, cols});
  for (int64_t j = 0; j < cols; ++j) m.data()[j] = 0.375f;
  QuantizedMatrix q = QuantizedMatrix::Quantize(m, ScalarType::kI8);
  // Every lane is the row max, so every code is +127 and dequantization
  // returns scale * 127 == maxabs up to one float rounding.
  for (int64_t j = 0; j < cols; ++j) {
    EXPECT_EQ(q.i8_row(0)[j], 127);
  }
  std::vector<float> row(cols);
  q.DequantizeRow(0, row.data());
  for (float v : row) EXPECT_NEAR(v, 0.375f, 1e-6f);
}

TEST(QuantizedMatrixTest, F32PassthroughAliasesWithoutCopy) {
  Tensor m = RandomMatrix(4, 8, 102);
  QuantizedMatrix q = QuantizedMatrix::Quantize(m, ScalarType::kF32);
  EXPECT_EQ(q.f32_row(0), m.data());  // same buffer, not a copy
  Tensor back = q.Dequantize();
  EXPECT_EQ(back.data(), m.data());
}

TEST(QuantizedMatrixTest, PayloadBytesAndCompression) {
  const int64_t rows = 100, cols = 16;
  Tensor m = RandomMatrix(rows, cols, 103);
  const auto f32 = QuantizedMatrix::Quantize(m, ScalarType::kF32);
  const auto f16 = QuantizedMatrix::Quantize(m, ScalarType::kF16);
  const auto i8 = QuantizedMatrix::Quantize(m, ScalarType::kI8);
  EXPECT_EQ(f32.payload_bytes(), rows * cols * 4);
  EXPECT_EQ(f16.payload_bytes(), rows * cols * 2);
  EXPECT_EQ(i8.payload_bytes(), rows * cols + rows * 4);
  // The compression the CI gate asserts: >= 3x for int8 at d = 16.
  EXPECT_GE(static_cast<double>(f32.payload_bytes()) /
                static_cast<double>(i8.payload_bytes()),
            3.0);
}

TEST(QuantizedMatrixTest, F16ScoreMatchesDequantizedDot) {
  const int64_t rows = 10, cols = 24;
  Tensor m = RandomMatrix(rows, cols, 104);
  QuantizedMatrix q = QuantizedMatrix::Quantize(m, ScalarType::kF16);
  auto query = RandomVec(cols, 105);
  std::vector<float> row(cols);
  for (int64_t r = 0; r < rows; ++r) {
    q.DequantizeRow(r, row.data());
    double want = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      want += static_cast<double>(query[j]) * row[j];
    }
    EXPECT_NEAR(q.Score(r, query.data()), want,
                1e-4 * (1.0 + std::abs(want)))
        << "row " << r;
  }
}

TEST(QuantizedMatrixTest, ScalarTypeNamesAndBytes) {
  EXPECT_STREQ(ScalarTypeName(ScalarType::kF32), "f32");
  EXPECT_STREQ(ScalarTypeName(ScalarType::kF16), "f16");
  EXPECT_STREQ(ScalarTypeName(ScalarType::kI8), "i8");
  EXPECT_EQ(ScalarTypeBytes(ScalarType::kF32), 4);
  EXPECT_EQ(ScalarTypeBytes(ScalarType::kF16), 2);
  EXPECT_EQ(ScalarTypeBytes(ScalarType::kI8), 1);
}

}  // namespace
}  // namespace unimatch

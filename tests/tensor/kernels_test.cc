#include "src/tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/random.h"

namespace unimatch::kernels {
namespace {

// Sizes chosen to hit every tail path of the vector kernels: below one
// 8-lane vector, exactly one, the 16-wide main step, and odd remainders.
const int64_t kSizes[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  return v;
}

void ExpectAllClose(const std::vector<float>& got,
                    const std::vector<float>& want, float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "at index " << i;
  }
}

// Runs every test body once per available backend. On machines without
// AVX2/FMA only the portable backend is exercised (and the suite still
// passes — the AVX2 path simply is not reachable there).
class KernelsBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kAvx2 && ActiveBackend() != Backend::kAvx2) {
      GTEST_SKIP() << "CPU lacks AVX2/FMA";
    }
    SetBackendForTest(GetParam());
  }
  void TearDown() override { ResetBackendForTest(); }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, KernelsBackendTest,
                         ::testing::Values(Backend::kPortable, Backend::kAvx2),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

TEST_P(KernelsBackendTest, DotMatchesScalarReference) {
  for (int64_t n : kSizes) {
    auto a = RandomVec(n, 10 + n);
    auto b = RandomVec(n, 20 + n);
    double want = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      want += static_cast<double>(a[i]) * b[i];
    }
    const float got = DotF32(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, 1e-3 * (1.0 + std::abs(want))) << "n=" << n;
  }
}

TEST_P(KernelsBackendTest, DotHandlesUnalignedPointers) {
  // Offset the start of both operands so the vector loads are unaligned.
  const int64_t n = 67;
  auto a = RandomVec(n + 3, 1);
  auto b = RandomVec(n + 3, 2);
  for (int64_t off = 0; off < 3; ++off) {
    double want = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      want += static_cast<double>(a[off + i]) * b[off + i];
    }
    EXPECT_NEAR(DotF32(a.data() + off, b.data() + off, n), want, 1e-3)
        << "offset=" << off;
  }
}

TEST_P(KernelsBackendTest, AxpyMatchesScalarReference) {
  for (int64_t n : kSizes) {
    for (float alpha : {0.0f, 1.0f, -0.75f}) {
      auto x = RandomVec(n, 30 + n);
      auto y = RandomVec(n, 40 + n);
      auto want = y;
      for (int64_t i = 0; i < n; ++i) want[i] += alpha * x[i];
      AxpyF32(n, alpha, x.data(), y.data());
      ExpectAllClose(y, want, 1e-5f);
    }
  }
}

TEST_P(KernelsBackendTest, ScaleAddMatchesScalarReference) {
  for (int64_t n : kSizes) {
    for (float alpha : {0.0f, 0.5f, -2.0f}) {
      for (float beta : {0.0f, 1.0f, 0.25f}) {
        auto x = RandomVec(n, 50 + n);
        auto y = RandomVec(n, 60 + n);
        auto want = y;
        for (int64_t i = 0; i < n; ++i) want[i] = alpha * x[i] + beta * y[i];
        ScaleAddF32(n, alpha, x.data(), beta, y.data());
        ExpectAllClose(y, want, 1e-5f);
      }
    }
  }
}

TEST_P(KernelsBackendTest, ScaleAddAllowsExactAliasing) {
  auto x = RandomVec(33, 7);
  auto want = x;
  for (auto& v : want) v = 0.5f * v + 0.25f * v;
  ScaleAddF32(33, 0.5f, x.data(), 0.25f, x.data());
  ExpectAllClose(x, want, 1e-6f);
}

TEST_P(KernelsBackendTest, L2NormalizeMatchesScalarReference) {
  for (int64_t n : kSizes) {
    if (n == 0) continue;
    auto x = RandomVec(n, 70 + n);
    double ss = 0.0;
    for (float v : x) ss += static_cast<double>(v) * v;
    const float want_norm = static_cast<float>(std::sqrt(ss));
    std::vector<float> y(n, std::nanf(""));  // must be fully overwritten
    const float norm = L2NormalizeF32(n, x.data(), y.data(), 1e-12f);
    EXPECT_NEAR(norm, want_norm, 1e-4f * (1.0f + want_norm)) << "n=" << n;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i], x[i] / want_norm, 1e-4f) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(KernelsBackendTest, L2NormalizeClampsTinyNormsToEps) {
  std::vector<float> x(5, 0.0f);
  std::vector<float> y(5, 1.0f);
  const float norm = L2NormalizeF32(5, x.data(), y.data(), 0.5f);
  EXPECT_EQ(norm, 0.5f);
  for (float v : y) EXPECT_EQ(v, 0.0f);
}

TEST_P(KernelsBackendTest, L2NormalizeAllowsExactAliasing) {
  auto x = RandomVec(19, 3);
  auto expect = x;
  double ss = 0.0;
  for (float v : expect) ss += static_cast<double>(v) * v;
  const float norm = static_cast<float>(std::sqrt(ss));
  for (auto& v : expect) v /= norm;
  L2NormalizeF32(19, x.data(), x.data(), 1e-12f);
  ExpectAllClose(x, expect, 1e-4f);
}

// ---------------------------------------------------------------------------
// AdamUpdateF32: bitwise equal, on both backends, to the loop Adam::Step ran
// before the kernel existed.
// ---------------------------------------------------------------------------

// Frozen verbatim copy of that loop (names included). Do not "improve" it:
// its value is being the fixed yardstick.
void AdamLoopReference(int64_t n, float lr_, float beta1_, float beta2_,
                       float eps_, float bc1, float bc2, const float* g,
                       float* m, float* v, float* w) {
  for (int64_t j = 0; j < n; ++j) {
    m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
    v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST_P(KernelsBackendTest, AdamUpdateIsBitwiseTheScalarLoop) {
  const float lr = 0.01f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  for (int64_t n : {0, 1, 7, 8, 9, 16, 33, 1000, 48001}) {
    for (bool null_grad : {false, true}) {
      auto m = RandomVec(n, 500 + n);
      auto v = RandomVec(n, 600 + n);
      auto w = RandomVec(n, 700 + n);
      auto g = RandomVec(n, 800 + n);
      for (int64_t i = 0; i < n; ++i) {
        v[i] = std::fabs(v[i]);
        // Signed zeros: g = +0 must still round a -0 moment to +0.
        if (i % 5 == 0) m[i] = -0.0f;
        if (i % 7 == 0) v[i] = 0.0f;
        if (i % 3 == 0) g[i] = 0.0f;
      }
      if (null_grad) std::fill(g.begin(), g.end(), 0.0f);
      auto m_ref = m, v_ref = v, w_ref = w;
      for (int t : {1, 2, 3, 5, 10, 25, 43}) {
        const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
        const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
        const AdamStepF32 step{lr, beta1, beta2, eps, bc1, bc2};
        AdamUpdateF32(n, step, null_grad ? nullptr : g.data(), m.data(),
                      v.data(), w.data());
        AdamLoopReference(n, lr, beta1, beta2, eps, bc1, bc2, g.data(),
                          m_ref.data(), v_ref.data(), w_ref.data());
        ASSERT_TRUE(BitwiseEqual(m, m_ref)) << "n=" << n << " t=" << t
                                            << " null_grad=" << null_grad;
        ASSERT_TRUE(BitwiseEqual(v, v_ref)) << "n=" << n << " t=" << t;
        ASSERT_TRUE(BitwiseEqual(w, w_ref)) << "n=" << n << " t=" << t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Gemm equivalence: the vectorized row kernels (through the public Gemm
// dispatcher, so threading is exercised too) against the frozen scalar
// GemmReference, over every transpose/alpha/beta combination and odd shapes.
// ---------------------------------------------------------------------------

struct GemmCase {
  int64_t m, n, k;
};

void CheckGemmEquivalence(const GemmCase& shape) {
  const auto [m, n, k] = shape;
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      for (float alpha : {1.0f, -0.5f}) {
        for (float beta : {0.0f, 1.0f, 0.7f}) {
          auto a = RandomVec(m * k, 100 + m + 31 * k);
          auto b = RandomVec(k * n, 200 + k + 17 * n);
          auto c0 = RandomVec(m * n, 300 + m + 7 * n);
          auto want = c0;
          auto got = c0;
          GemmReference(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(),
                        beta, want.data());
          Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta,
               got.data());
          const float tol = 1e-4f * (1.0f + static_cast<float>(k));
          for (int64_t i = 0; i < m * n; ++i) {
            ASSERT_NEAR(got[i], want[i], tol)
                << "m=" << m << " n=" << n << " k=" << k
                << " trans_a=" << trans_a << " trans_b=" << trans_b
                << " alpha=" << alpha << " beta=" << beta << " index=" << i;
          }
        }
      }
    }
  }
}

TEST_P(KernelsBackendTest, GemmMatchesReferenceOnTileAlignedShapes) {
  CheckGemmEquivalence({8, 16, 8});
  CheckGemmEquivalence({16, 32, 16});
}

TEST_P(KernelsBackendTest, GemmMatchesReferenceOnOddShapes) {
  CheckGemmEquivalence({1, 1, 1});
  CheckGemmEquivalence({3, 5, 7});
  CheckGemmEquivalence({5, 17, 9});
  CheckGemmEquivalence({7, 19, 33});
}

TEST_P(KernelsBackendTest, GemmMatchesReferenceAboveParallelThreshold) {
  // 2 * 40*48*40 = 153k madds < threshold, 96*48*96 > threshold: cover both
  // the serial and the row-block-parallel dispatch.
  CheckGemmEquivalence({40, 48, 40});
  CheckGemmEquivalence({96, 48, 96});
}

TEST_P(KernelsBackendTest, GemmRowKernelsHonorRowRanges) {
  // Running [0, 2) and [2, 5) separately must equal one [0, 5) call.
  const int64_t m = 5, n = 13, k = 11;
  auto a = RandomVec(m * k, 1);
  auto b = RandomVec(k * n, 2);
  auto whole = RandomVec(m * n, 3);
  auto split = whole;
  GemmRowsAxpy(0, m, n, k, 1.25f, a.data(), k, 1, b.data(), 0.5f,
               whole.data());
  GemmRowsAxpy(0, 2, n, k, 1.25f, a.data(), k, 1, b.data(), 0.5f,
               split.data());
  GemmRowsAxpy(2, m, n, k, 1.25f, a.data(), k, 1, b.data(), 0.5f,
               split.data());
  ExpectAllClose(split, whole, 0.0f);  // identical call sequence per row
}

TEST_P(KernelsBackendTest, GemmZeroSizedDimsAreNoOps) {
  std::vector<float> c = {1.0f, 2.0f};
  Gemm(false, false, 0, 0, 4, 1.0f, nullptr, nullptr, 0.0f, nullptr);
  Gemm(false, false, 1, 2, 0, 1.0f, nullptr, nullptr, 1.0f, c.data());
  EXPECT_EQ(c[0], 1.0f);  // beta == 1, k == 0: C must be untouched
  EXPECT_EQ(c[1], 2.0f);
}

// The two implementations must agree with each other (not only with the
// reference): run the dispatched path and the forced-portable path on the
// same inputs and compare.
TEST(KernelsDispatchTest, PortableAndDispatchedPathsMatch) {
  const int64_t m = 9, n = 21, k = 17;
  auto a = RandomVec(m * k, 11);
  auto b = RandomVec(k * n, 12);
  auto c_dispatched = RandomVec(m * n, 13);
  auto c_portable = c_dispatched;

  ResetBackendForTest();  // dispatched = whatever env/CPUID resolves
  Gemm(false, false, m, n, k, 0.9f, a.data(), b.data(), 0.3f,
       c_dispatched.data());
  const float dot_dispatched = DotF32(a.data(), b.data(), m * k);

  SetBackendForTest(Backend::kPortable);
  Gemm(false, false, m, n, k, 0.9f, a.data(), b.data(), 0.3f,
       c_portable.data());
  const float dot_portable = DotF32(a.data(), b.data(), m * k);
  ResetBackendForTest();

  for (int64_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c_dispatched[i], c_portable[i], 1e-4f) << "index " << i;
  }
  EXPECT_NEAR(dot_dispatched, dot_portable, 1e-3f);
}

TEST(KernelsDispatchTest, BackendNamesAreStable) {
  EXPECT_STREQ(BackendName(Backend::kPortable), "portable");
  EXPECT_STREQ(BackendName(Backend::kAvx2), "avx2");
}

#if !defined(UNIMATCH_CONTRACTS_DISABLED)

using KernelsDeathTest = ::testing::Test;

TEST(KernelsDeathTest, NegativeLengthIsRejected) {
  float a = 0.0f, b = 0.0f;
  EXPECT_DEATH(DotF32(&a, &b, -1), "Contract violated.*DotF32");
  EXPECT_DEATH(AxpyF32(-2, 1.0f, &a, &b), "Contract violated.*AxpyF32");
  EXPECT_DEATH(ScaleAddF32(-3, 1.0f, &a, 0.0f, &b),
               "Contract violated.*ScaleAddF32");
}

TEST(KernelsDeathTest, NullOperandsAreRejected) {
  float a = 0.0f;
  EXPECT_DEATH(DotF32(nullptr, &a, 4), "Contract violated.*DotF32");
  EXPECT_DEATH(AxpyF32(4, 1.0f, &a, nullptr), "Contract violated.*AxpyF32");
  EXPECT_DEATH(GemmRowsAxpy(0, 2, 3, 3, 1.0f, nullptr, 3, 1, &a, 0.0f, &a),
               "Contract violated.*null operand");
}

TEST(KernelsDeathTest, InvalidRowRangeIsRejected) {
  float a = 0.0f;
  EXPECT_DEATH(GemmRowsAxpy(3, 1, 2, 2, 1.0f, &a, 2, 1, &a, 0.0f, &a),
               "Contract violated.*row range");
  EXPECT_DEATH(GemmRowsDot(-1, 1, 2, 2, 1.0f, &a, 2, 1, &a, 0.0f, &a),
               "Contract violated.*row range");
}

TEST(KernelsDeathTest, NonPositiveEpsIsRejected) {
  float x = 1.0f, y = 0.0f;
  EXPECT_DEATH(L2NormalizeF32(1, &x, &y, 0.0f),
               "Contract violated.*L2NormalizeF32 eps");
}

TEST(KernelsDeathTest, MismatchedGemmShapeThroughMatMulIsRejected) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  EXPECT_DEATH(MatMul(a, b), "Contract violated.*MatMul inner dimensions");
}

#endif  // !UNIMATCH_CONTRACTS_DISABLED

}  // namespace
}  // namespace unimatch::kernels

#include "src/tensor/tensor_ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/util/random.h"

namespace unimatch {
namespace {

// Naive reference gemm used to validate the optimized kernel.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const int64_t m = ta ? a.dim(1) : a.dim(0);
  const int64_t k = ta ? a.dim(0) : a.dim(1);
  const int64_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

class MatMulTransposeTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MatMulTransposeTest, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  Rng rng(42);
  const int64_t m = 7, k = 5, n = 6;
  Tensor a = Tensor::Randn(ta ? Shape{k, m} : Shape{m, k}, 1.0f, &rng);
  Tensor b = Tensor::Randn(tb ? Shape{n, k} : Shape{k, n}, 1.0f, &rng);
  Tensor got = MatMul(a, b, ta, tb);
  Tensor want = NaiveMatMul(a, b, ta, tb);
  EXPECT_TRUE(AllClose(got, want, 1e-4f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, MatMulTransposeTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(MatMulTest, IdentityPreserves) {
  Rng rng(1);
  Tensor a = Tensor::Randn({4, 4}, 1.0f, &rng);
  Tensor eye({4, 4});
  for (int i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  EXPECT_TRUE(AllClose(MatMul(a, eye), a));
  EXPECT_TRUE(AllClose(MatMul(eye, a), a));
}

TEST(MatMulTest, LargeMatrixThreadedPathMatches) {
  Rng rng(2);
  Tensor a = Tensor::Randn({300, 64}, 0.5f, &rng);
  Tensor b = Tensor::Randn({64, 128}, 0.5f, &rng);
  Tensor got = MatMul(a, b);
  Tensor want = NaiveMatMul(a, b, false, false);
  EXPECT_TRUE(AllClose(got, want, 1e-3f, 1e-4f));
}

TEST(GemmTest, BetaAccumulates) {
  Tensor a({2, 2}, {1, 0, 0, 1});
  Tensor b({2, 2}, {1, 2, 3, 4});
  Tensor c({2, 2}, {10, 10, 10, 10});
  Gemm(false, false, 2, 2, 2, 1.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 14.0f);
}

TEST(GemmTest, AlphaScales) {
  Tensor a({1, 1}, {3});
  Tensor b({1, 1}, {4});
  Tensor c({1, 1});
  Gemm(false, false, 1, 1, 1, 2.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c.at(0), 24.0f);
}

TEST(BatchMatMulTest, PerBatchIndependent) {
  Rng rng(3);
  Tensor a = Tensor::Randn({3, 4, 5}, 1.0f, &rng);
  Tensor b = Tensor::Randn({3, 5, 2}, 1.0f, &rng);
  Tensor c = BatchMatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{3, 4, 2}));
  for (int64_t batch = 0; batch < 3; ++batch) {
    Tensor a2({4, 5});
    Tensor b2({5, 2});
    std::copy(a.data() + batch * 20, a.data() + (batch + 1) * 20, a2.data());
    std::copy(b.data() + batch * 10, b.data() + (batch + 1) * 10, b2.data());
    Tensor want = NaiveMatMul(a2, b2, false, false);
    for (int64_t i = 0; i < 4; ++i) {
      for (int64_t j = 0; j < 2; ++j) {
        EXPECT_NEAR(c.at(batch, i, j), want.at(i, j), 1e-4f);
      }
    }
  }
}

TEST(BatchMatMulTest, TransposeB) {
  Rng rng(4);
  Tensor a = Tensor::Randn({2, 3, 4}, 1.0f, &rng);
  Tensor b = Tensor::Randn({2, 5, 4}, 1.0f, &rng);
  Tensor c = BatchMatMul(a, b, false, true);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 5}));
  // Spot check one entry.
  double acc = 0.0;
  for (int64_t p = 0; p < 4; ++p) acc += a.at(1, 2, p) * b.at(1, 3, p);
  EXPECT_NEAR(c.at(1, 2, 3), acc, 1e-4);
}

// Runs a softmax row primitive over each row of an [m, n] matrix.
Tensor EachRow(const Tensor& x, void (*row)(int64_t, const float*, float*)) {
  const int64_t m = x.dim(0), n = x.dim(1);
  Tensor y(x.shape());
  for (int64_t i = 0; i < m; ++i) row(n, x.data() + i * n, y.data() + i * n);
  return y;
}

TEST(SoftmaxRowsTest, RowsSumToOne) {
  Rng rng(5);
  Tensor x = Tensor::Randn({6, 9}, 3.0f, &rng);
  Tensor y = EachRow(x, SoftmaxRow);
  for (int64_t i = 0; i < 6; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 9; ++j) {
      EXPECT_GT(y.at(i, j), 0.0f);
      s += y.at(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(SoftmaxRowsTest, StableUnderLargeLogits) {
  Tensor x({1, 3}, {1000.0f, 1000.0f, 999.0f});
  Tensor y = EachRow(x, SoftmaxRow);
  EXPECT_FALSE(std::isnan(y.at(0, 0)));
  EXPECT_NEAR(y.at(0, 0), y.at(0, 1), 1e-6);
  EXPECT_LT(y.at(0, 2), y.at(0, 0));
}

TEST(LogSoftmaxRowsTest, MatchesLogOfSoftmax) {
  Rng rng(6);
  Tensor x = Tensor::Randn({4, 7}, 2.0f, &rng);
  Tensor sm = EachRow(x, SoftmaxRow);
  Tensor lsm = EachRow(x, LogSoftmaxRow);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(lsm.at(i), std::log(sm.at(i)), 1e-5);
  }
}

TEST(L2NormalizeRowsTest, UnitNorms) {
  Rng rng(7);
  Tensor x = Tensor::Randn({5, 8}, 2.0f, &rng);
  Tensor y(x.shape());
  Tensor norms({5});
  L2NormalizeRows(x, &y, &norms);
  for (int64_t i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 8; ++j) s += y.at(i, j) * y.at(i, j);
    EXPECT_NEAR(s, 1.0, 1e-5);
    EXPECT_GT(norms.at(i), 0.0f);
  }
}

TEST(L2NormalizeRowsTest, ZeroRowStaysZero) {
  Tensor x({2, 3});
  x.at(1, 0) = 3.0f;
  Tensor y(x.shape());
  L2NormalizeRows(x, &y, nullptr);
  EXPECT_EQ(y.at(0, 0), 0.0f);
  EXPECT_EQ(y.at(0, 1), 0.0f);
  EXPECT_NEAR(y.at(1, 0), 1.0f, 1e-6);
}

TEST(ReduceTest, SumRowsAndCols) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor cols({3});
  ReduceSumCols(x, &cols);
  EXPECT_FLOAT_EQ(cols.at(0), 5.0f);
  EXPECT_FLOAT_EQ(cols.at(1), 7.0f);
  EXPECT_FLOAT_EQ(cols.at(2), 9.0f);
}

}  // namespace
}  // namespace unimatch

// Finite-difference validation of every dense-op gradient in src/nn/ops.h.

#include <gtest/gtest.h>

#include "src/nn/ops.h"
#include "tests/nn/gradcheck.h"

namespace unimatch::nn {
namespace {

Variable Param(Shape shape, uint64_t seed, float stddev = 0.8f) {
  Rng rng(seed);
  return Variable(Tensor::Randn(std::move(shape), stddev, &rng),
                  /*requires_grad=*/true);
}

// Reduce any tensor to a scalar in a gradient-rich way (weighted sum).
Variable ToScalar(const Variable& v) {
  Rng rng(777);
  Tensor w = Tensor::Randn(v.shape(), 1.0f, &rng);
  return Sum(Mul(v, Constant(w)));
}

TEST(GradCheckOps, Add) {
  auto a = Param({3, 4}, 1), b = Param({3, 4}, 2);
  CheckGradients({a, b}, [&] { return ToScalar(Add(a, b)); });
}

TEST(GradCheckOps, Sub) {
  auto a = Param({2, 5}, 3), b = Param({2, 5}, 4);
  CheckGradients({a, b}, [&] { return ToScalar(Sub(a, b)); });
}

TEST(GradCheckOps, Mul) {
  auto a = Param({4}, 5), b = Param({4}, 6);
  CheckGradients({a, b}, [&] { return ToScalar(Mul(a, b)); });
}

TEST(GradCheckOps, NegAndScalarMul) {
  auto a = Param({3, 3}, 7);
  CheckGradients({a}, [&] { return ToScalar(ScalarMul(Neg(a), 2.5f)); });
}

TEST(GradCheckOps, ScalarAdd) {
  auto a = Param({6}, 8);
  CheckGradients({a}, [&] { return ToScalar(ScalarAdd(a, -1.2f)); });
}

TEST(GradCheckOps, Sigmoid) {
  auto a = Param({3, 4}, 9);
  CheckGradients({a}, [&] { return ToScalar(Sigmoid(a)); });
}

TEST(GradCheckOps, Tanh) {
  auto a = Param({3, 4}, 10);
  CheckGradients({a}, [&] { return ToScalar(Tanh(a)); });
}

TEST(GradCheckOps, Relu) {
  // Keep values away from the kink at 0.
  auto a = Param({10}, 11, 1.0f);
  float* w = a.mutable_value().data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(w[i]) < 0.2f) w[i] = w[i] < 0 ? -0.5f : 0.5f;
  }
  CheckGradients({a}, [&] { return ToScalar(Relu(a)); });
}

TEST(GradCheckOps, SumAndMean) {
  auto a = Param({4, 2}, 14);
  CheckGradients({a}, [&] { return Sum(a); });
  CheckGradients({a}, [&] { return Mean(a); });
}

TEST(GradCheckOps, Reshape) {
  auto a = Param({2, 6}, 15);
  CheckGradients({a}, [&] { return ToScalar(Reshape(a, {3, 4})); });
}

TEST(GradCheckOps, Transpose) {
  auto a = Param({3, 5}, 16);
  CheckGradients({a}, [&] { return ToScalar(Transpose(a)); });
}

TEST(GradCheckOps, ConcatCols) {
  auto a = Param({3, 2}, 17), b = Param({3, 4}, 18);
  CheckGradients({a, b}, [&] { return ToScalar(ConcatCols(a, b)); });
}

class MatMulGradTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MatMulGradTest, AllTransposeCombos) {
  const auto [ta, tb] = GetParam();
  auto a = Param(ta ? Shape{4, 3} : Shape{3, 4}, 21);
  auto b = Param(tb ? Shape{5, 4} : Shape{4, 5}, 22);
  CheckGradients({a, b}, [&] { return ToScalar(MatMul(a, b, ta, tb)); });
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, MatMulGradTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(GradCheckOps, AddRowVector) {
  auto x = Param({4, 3}, 23);
  auto v = Param({3}, 24);
  CheckGradients({x, v}, [&] { return ToScalar(AddRowVector(x, v)); });
}

TEST(GradCheckOps, TakeDiagonal) {
  auto a = Param({5, 5}, 27);
  CheckGradients({a}, [&] { return ToScalar(TakeDiagonal(a)); });
}

TEST(GradCheckOps, TakeColumn) {
  auto a = Param({4, 6}, 28);
  CheckGradients({a}, [&] { return ToScalar(TakeColumn(a, 2)); });
}

TEST(GradCheckOps, RowwiseDot) {
  auto a = Param({4, 3}, 29), b = Param({4, 3}, 30);
  CheckGradients({a, b}, [&] { return ToScalar(RowwiseDot(a, b)); });
}

TEST(GradCheckOps, L2NormalizeRows) {
  auto a = Param({4, 5}, 31, 1.0f);
  CheckGradients({a}, [&] { return ToScalar(L2NormalizeRows(a)); });
}

TEST(GradCheckOps, LogSoftmax) {
  auto a = Param({4, 6}, 33);
  CheckGradients({a}, [&] { return ToScalar(LogSoftmax(a)); });
}

TEST(GradCheckOps, LayerNorm) {
  auto x = Param({3, 6}, 34, 1.0f);
  auto gain = Param({6}, 35, 0.3f);
  auto bias = Param({6}, 36, 0.3f);
  // Move gain away from zero so the test is informative.
  for (int64_t i = 0; i < 6; ++i) gain.mutable_value().at(i) += 1.0f;
  CheckGradients({x, gain, bias},
                 [&] { return ToScalar(LayerNorm(x, gain, bias)); });
}

TEST(GradCheckOps, BCEWithLogits) {
  auto logits = Param({8}, 37);
  Tensor labels({8});
  for (int i = 0; i < 8; ++i) labels.at(i) = i % 2 ? 1.0f : 0.0f;
  CheckGradients({logits}, [&] { return BCEWithLogits(logits, labels); });
}

TEST(GradCheckOps, DeepComposition) {
  // A small multi-layer expression stressing graph traversal.
  auto w1 = Param({4, 8}, 38);
  auto w2 = Param({8, 3}, 39);
  auto x = Param({5, 4}, 40);
  CheckGradients({w1, w2, x}, [&] {
    Variable h = Tanh(MatMul(x, w1));
    Variable y = Sigmoid(MatMul(h, w2));
    return Mean(Mul(y, y));
  });
}

TEST(GradCheckOps, SharedInputUsedTwice) {
  // Diamond dependency: gradient must accumulate over both paths.
  auto a = Param({3, 3}, 41);
  CheckGradients({a}, [&] { return ToScalar(Add(Tanh(a), Sigmoid(a))); });
}

}  // namespace
}  // namespace unimatch::nn

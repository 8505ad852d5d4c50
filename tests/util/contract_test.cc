#include "src/util/contract.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/loss/losses.h"
#include "src/nn/module.h"
#include "src/nn/ops.h"
#include "src/nn/optimizer.h"
#include "src/tensor/tensor_ops.h"

namespace unimatch {
namespace {

TEST(ContractHelpersTest, FormatDims) {
  EXPECT_EQ(contract::FormatDims({}), "[]");
  EXPECT_EQ(contract::FormatDims({7}), "[7]");
  EXPECT_EQ(contract::FormatDims({2, 3, 16}), "[2, 3, 16]");
}

TEST(ContractHelpersTest, ShapeOfWorksOnTensorVariableAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(contract::ShapeOf(t), "[2, 3]");
  nn::Variable v(Tensor({4}));
  EXPECT_EQ(contract::ShapeOf(v), "[4]");
  EXPECT_EQ(contract::ShapeOf(Shape{5, 6}), "[5, 6]");
}

TEST(ContractHelpersTest, FirstNonFinite) {
  Tensor ok({3}, {1.0f, -2.0f, 0.0f});
  EXPECT_EQ(contract::FirstNonFinite(ok), -1);
  EXPECT_TRUE(contract::AllFinite(ok));

  Tensor nan({3}, {1.0f, std::nanf(""), 0.0f});
  EXPECT_EQ(contract::FirstNonFinite(nan), 1);
  EXPECT_FALSE(contract::AllFinite(nan));

  Tensor inf({2}, {std::numeric_limits<float>::infinity(), 0.0f});
  EXPECT_EQ(contract::FirstNonFinite(inf), 0);
}

#if !defined(UNIMATCH_CONTRACTS_DISABLED)

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, MismatchedMatMulReportsBothShapesAndLocation) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  // The abort message must carry file:line and both operand shapes.
  EXPECT_DEATH(MatMul(a, b),
               "tensor_ops.cc:[0-9]+.*Contract violated.*"
               "lhs shape \\[2, 3\\] vs rhs shape \\[4, 5\\].*"
               "MatMul inner dimensions");
}

TEST(ContractDeathTest, MismatchedBatchMatMulDies) {
  Tensor a({2, 3, 4});
  Tensor b({3, 3, 4});  // batch dims differ
  EXPECT_DEATH(BatchMatMul(a, b), "Contract violated.*BatchMatMul");
}

TEST(ContractDeathTest, EmptySoftmaxRowDies) {
  float x = 0.0f, y = 0.0f;
  EXPECT_DEATH(SoftmaxRow(0, &x, &y), "Contract violated.*SoftmaxRow over 0");
}

TEST(ContractDeathTest, ElementwiseAddShapeMismatchDies) {
  nn::Variable a(Tensor({2, 3}));
  nn::Variable b(Tensor({3, 2}));
  EXPECT_DEATH(nn::Add(a, b),
               "lhs shape \\[2, 3\\] vs rhs shape \\[3, 2\\].*Add");
}

TEST(ContractDeathTest, CheckFiniteDiesOnNanTensor) {
  Tensor t({2, 2}, {1.0f, 2.0f, std::nanf(""), 4.0f});
  EXPECT_DEATH(UM_CHECK_FINITE(t) << "unit test",
               "non-finite element at flat index 2, shape \\[2, 2\\]");
}

TEST(ContractDeathTest, OptimizerDiesOnNanGradientWithParamName) {
  nn::Variable w(Tensor({2}, {1.0f, 2.0f}), /*requires_grad=*/true);
  nn::Variable bad =
      nn::Mul(w, nn::Constant(Tensor({2}, {std::nanf(""), 1.0f})));
  nn::Backward(nn::Sum(bad));
  nn::Sgd opt({{"tower/w", w}}, /*lr=*/0.1f);
  EXPECT_DEATH(opt.Step(), "non-finite element.*param tower/w");
}

TEST(ContractDeathTest, TrainerLevelNceLossRejectsNonSquareScores) {
  nn::Variable scores(Tensor({2, 3}));
  Tensor log_pu({2});
  Tensor log_pi({2});
  EXPECT_DEATH(
      loss::NceFamilyLoss(scores, log_pu, log_pi, loss::NceSettings{}),
      "square \\[B, B\\] score matrix");
}

TEST(ContractDeathTest, ContractMacroStreamsExtraContext) {
  const int got = 3;
  EXPECT_DEATH(UM_CONTRACT(got == 4) << "got " << got,
               "Contract violated: got == 4.*got 3");
}

#endif  // !UNIMATCH_CONTRACTS_DISABLED

}  // namespace
}  // namespace unimatch

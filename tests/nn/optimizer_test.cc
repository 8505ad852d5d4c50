#include "src/nn/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "src/nn/ops.h"
#include "src/nn/seq_ops.h"
#include "src/tensor/kernels.h"

namespace unimatch::nn {
namespace {

// Minimizes f(w) = sum((w - target)^2) and returns the final distance.
double MinimizeQuadratic(Optimizer* opt, Variable w, const Tensor& target,
                         int steps) {
  for (int s = 0; s < steps; ++s) {
    Variable diff = Sub(w, Constant(target.Clone()));
    Variable loss = Sum(Mul(diff, diff));
    Backward(loss);
    opt->Step();
    opt->ZeroGrad();
  }
  double dist = 0.0;
  for (int64_t i = 0; i < w.numel(); ++i) {
    const double d = w.value().at(i) - target.at(i);
    dist += d * d;
  }
  return std::sqrt(dist);
}

class OptimizerConvergenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerConvergenceTest, ConvergesOnQuadratic) {
  Rng rng(5);
  Variable w(Tensor::Randn({8}, 1.0f, &rng), true);
  Tensor target = Tensor::Randn({8}, 1.0f, &rng);
  // Adagrad's effective step decays like 1/sqrt(t); it needs a larger base
  // learning rate to cover the same distance.
  const float lr = GetParam() == "adagrad" ? 0.5f : 0.05f;
  auto opt = MakeOptimizer(GetParam(), {{"w", w}}, lr);
  const double final_dist = MinimizeQuadratic(opt.get(), w, target, 500);
  EXPECT_LT(final_dist, 0.05) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergenceTest,
                         ::testing::Values("sgd", "adagrad", "adam"));

TEST(SgdTest, SingleStepExactUpdate) {
  Variable w(Tensor({2}, {1.0f, 2.0f}), true);
  Sgd sgd({{"w", w}}, 0.1f);
  Backward(Sum(w));  // grad = 1
  sgd.Step();
  EXPECT_FLOAT_EQ(w.value().at(0), 0.9f);
  EXPECT_FLOAT_EQ(w.value().at(1), 1.9f);
}

TEST(OptimizerTest, SkipsParametersWithoutGradient) {
  Variable a(Tensor({2}, {1, 1}), true);
  Variable b(Tensor({2}, {5, 5}), true);
  Sgd sgd({{"a", a}, {"b", b}}, 0.5f);
  Backward(Sum(a));  // only a gets a gradient
  sgd.Step();
  EXPECT_FLOAT_EQ(a.value().at(0), 0.5f);
  EXPECT_FLOAT_EQ(b.value().at(0), 5.0f);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Variable w(Tensor({4}, {0, 0, 0, 0}), true);
  Sgd sgd({{"w", w}}, 1.0f);
  Variable loss = Sum(ScalarMul(w, 10.0f));  // grad = 10 each, norm = 20
  Backward(loss);
  const double pre = sgd.ClipGradNorm(2.0);
  EXPECT_NEAR(pre, 20.0, 1e-4);
  EXPECT_NEAR(w.grad().L2Norm(), 2.0, 1e-4);
}

TEST(OptimizerTest, ClipGradNormNoopBelowThreshold) {
  Variable w(Tensor({4}), true);
  Sgd sgd({{"w", w}}, 1.0f);
  Backward(Sum(w));  // norm = 2
  const double pre = sgd.ClipGradNorm(100.0);
  EXPECT_NEAR(pre, 2.0, 1e-5);
  EXPECT_NEAR(w.grad().L2Norm(), 2.0, 1e-5);
}

TEST(AdamTest, BiasCorrectionMakesFirstStepLrSized) {
  Variable w(Tensor({1}, {0.0f}), true);
  Adam adam({{"w", w}}, 0.1f);
  Backward(Sum(ScalarMul(w, 3.0f)));  // constant grad 3
  adam.Step();
  // With bias correction the first step is ~lr regardless of grad scale.
  EXPECT_NEAR(w.value().at(0), -0.1f, 1e-5);
}

TEST(AdagradTest, StepSizesShrinkOverTime) {
  Variable w(Tensor({1}, {0.0f}), true);
  Adagrad ada({{"w", w}}, 0.5f);
  float prev = 0.0f;
  float first_delta = 0.0f, last_delta = 0.0f;
  for (int s = 0; s < 10; ++s) {
    Backward(Sum(ScalarMul(w, 1.0f)));
    ada.Step();
    ada.ZeroGrad();
    const float delta = std::fabs(w.value().at(0) - prev);
    if (s == 0) first_delta = delta;
    last_delta = delta;
    prev = w.value().at(0);
  }
  EXPECT_LT(last_delta, first_delta);
}

// ---------------------------------------------------------------------------
// Row-sparse gradients: a step from the row form is bitwise the step from the
// same gradient in dense form.
// ---------------------------------------------------------------------------

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

struct SparseDenseCase {
  std::string optimizer;
  bool clip;
  kernels::Backend backend;
};

void PrintTo(const SparseDenseCase& c, std::ostream* os) {
  *os << c.optimizer << (c.clip ? " clip " : " noclip ")
      << kernels::BackendName(c.backend);
}

class SparseDenseStepTest : public ::testing::TestWithParam<SparseDenseCase> {
 protected:
  void SetUp() override {
    if (GetParam().backend == kernels::Backend::kAvx2 &&
        kernels::ActiveBackend() != kernels::Backend::kAvx2) {
      GTEST_SKIP() << "CPU lacks AVX2/FMA";
    }
    kernels::SetBackendForTest(GetParam().backend);
  }
  void TearDown() override { kernels::ResetBackendForTest(); }
};

TEST_P(SparseDenseStepTest, RowSparseStepEqualsDensifiedStep) {
  const SparseDenseCase& c = GetParam();
  constexpr int64_t kRows = 40, kDim = 16;
  Rng rng(17);
  const Tensor table0 = Tensor::Randn({kRows, kDim}, 0.5f, &rng);
  const Tensor bias0 = Tensor::Randn({kDim}, 0.5f, &rng);
  Variable sparse_table(table0.Clone(), true);
  Variable dense_table(table0.Clone(), true);
  Variable sparse_bias(bias0.Clone(), true);
  Variable dense_bias(bias0.Clone(), true);
  auto sparse_opt = MakeOptimizer(
      c.optimizer, {{"table", sparse_table}, {"bias", sparse_bias}}, 0.05f);
  auto dense_opt = MakeOptimizer(
      c.optimizer, {{"table", dense_table}, {"bias", dense_bias}}, 0.05f);
  // Row sets change per step, so Adam's omitted rows decay with state that
  // earlier steps left non-zero.
  const std::vector<std::vector<int64_t>> step_rows = {
      {0, 3, 4, 17, 39}, {1, 3, 20}, {5, 6, 7, 8, 38, 39}};
  for (const auto& rows : step_rows) {
    const Tensor block =
        Tensor::Randn({static_cast<int64_t>(rows.size()), kDim}, 1.0f, &rng);
    const Tensor bias_grad = Tensor::Randn({kDim}, 1.0f, &rng);
    sparse_table.node()->AccumulateRowGrad(rows, block.Clone());
    ASSERT_TRUE(sparse_table.grad_row_sparse());
    dense_table.node()->AccumulateGrad(sparse_table.DenseGrad());
    ASSERT_FALSE(dense_table.grad_row_sparse());
    sparse_bias.node()->AccumulateGrad(bias_grad.Clone());
    dense_bias.node()->AccumulateGrad(bias_grad.Clone());
    if (c.clip) {
      // Norms are ~10 here: 0.5 clips, 1e9 leaves the gradient alone.
      const double sparse_norm = sparse_opt->ClipGradNorm(0.5);
      const double dense_norm = dense_opt->ClipGradNorm(0.5);
      EXPECT_EQ(std::memcmp(&sparse_norm, &dense_norm, sizeof(double)), 0);
    } else {
      EXPECT_EQ(sparse_opt->ClipGradNorm(1e9), dense_opt->ClipGradNorm(1e9));
    }
    sparse_opt->Step();
    dense_opt->Step();
    sparse_opt->ZeroGrad();
    dense_opt->ZeroGrad();
    ASSERT_TRUE(BitwiseEqual(sparse_table.value(), dense_table.value()))
        << c.optimizer;
    ASSERT_TRUE(BitwiseEqual(sparse_bias.value(), dense_bias.value()))
        << c.optimizer;
  }
  EXPECT_FALSE(BitwiseEqual(sparse_table.value(), table0));
}

std::vector<SparseDenseCase> SparseDenseCases() {
  std::vector<SparseDenseCase> cases;
  for (const char* opt : {"sgd", "adagrad", "adam"}) {
    for (bool clip : {false, true}) {
      for (auto backend :
           {kernels::Backend::kPortable, kernels::Backend::kAvx2}) {
        cases.push_back({opt, clip, backend});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOptimizers, SparseDenseStepTest,
    ::testing::ValuesIn(SparseDenseCases()), [](const auto& info) {
      return info.param.optimizer + (info.param.clip ? "_clip_" : "_noclip_") +
             kernels::BackendName(info.param.backend);
    });

TEST(SparseStepTest, RowsOutsideTheGradientStayBitwiseUnchanged) {
  // A 300k-row table: SGD and Adagrad touch only the looked-up rows.
  constexpr int64_t kRows = 300000, kDim = 16;
  Rng rng(23);
  Variable table(Tensor::Randn({kRows, kDim}, 0.1f, &rng), true);
  const std::vector<int64_t> ids = {kPadId, 7, 299999, 7, 150000, 0, kPadId};
  const std::vector<int64_t> touched = {0, 7, 150000, 299999};
  for (const char* name : {"sgd", "adagrad"}) {
    const Tensor before = table.value().Clone();
    auto opt = MakeOptimizer(name, {{"table", table}}, 0.1f);
    Backward(Sum(EmbeddingLookup(table, ids)));
    ASSERT_TRUE(table.grad_row_sparse());
    EXPECT_EQ(table.grad_rows(), touched);
    opt->Step();
    opt->ZeroGrad();
    int64_t changed_rows = 0;
    for (int64_t r = 0; r < kRows; ++r) {
      const bool is_touched =
          std::binary_search(touched.begin(), touched.end(), r);
      const bool same =
          std::memcmp(table.value().data() + r * kDim,
                      before.data() + r * kDim, sizeof(float) * kDim) == 0;
      if (!is_touched) {
        ASSERT_TRUE(same) << name << " changed untouched row " << r;
      } else if (!same) {
        ++changed_rows;
      }
    }
    EXPECT_EQ(changed_rows, static_cast<int64_t>(touched.size())) << name;
  }
}

TEST(MakeOptimizerTest, UnknownNameIsNull) {
  Variable w(Tensor({1}), true);
  EXPECT_EQ(MakeOptimizer("nadam", {{"w", w}}, 0.1f), nullptr);
  EXPECT_EQ(MakeOptimizer("adamw", {}, 0.1f), nullptr);
}

}  // namespace
}  // namespace unimatch::nn

// Semantics of the reverse-mode engine itself (accumulation, graph pruning,
// re-use across steps) — complements the numeric gradcheck tests.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/nn/ops.h"
#include "src/nn/seq_ops.h"
#include "src/nn/variable.h"

namespace unimatch::nn {
namespace {

TEST(VariableTest, LeafDefaults) {
  Variable v(Tensor({2, 2}), true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.grad_defined());
  EXPECT_EQ(v.rank(), 2);
  EXPECT_EQ(v.numel(), 4);
}

TEST(VariableTest, UndefinedByDefault) {
  Variable v;
  EXPECT_FALSE(v.defined());
}

TEST(BackwardTest, SimpleChain) {
  Variable x(Tensor({3}, {1, 2, 3}), true);
  Variable y = Sum(ScalarMul(x, 2.0f));
  Backward(y);
  ASSERT_TRUE(x.grad_defined());
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(x.grad().at(i), 2.0f);
}

TEST(BackwardTest, GradAccumulatesAcrossTwoBackwardCalls) {
  Variable x(Tensor({2}, {1, 1}), true);
  Variable y1 = Sum(x);
  Backward(y1);
  Variable y2 = Sum(ScalarMul(x, 3.0f));
  Backward(y2);
  EXPECT_FLOAT_EQ(x.grad().at(0), 4.0f);  // 1 + 3
}

TEST(BackwardTest, ZeroGradClears) {
  Variable x(Tensor({2}, {1, 1}), true);
  Backward(Sum(x));
  EXPECT_TRUE(x.grad_defined());
  x.ZeroGrad();
  EXPECT_FALSE(x.grad_defined());
  Backward(Sum(x));
  EXPECT_FLOAT_EQ(x.grad().at(0), 1.0f);
}

TEST(BackwardTest, DiamondGraphAccumulates) {
  Variable x(Tensor({2}, {0.5f, -0.5f}), true);
  Variable a = ScalarMul(x, 2.0f);
  Variable y = Sum(Add(a, a));  // d/dx = 4
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad().at(0), 4.0f);
  EXPECT_FLOAT_EQ(x.grad().at(1), 4.0f);
}

TEST(BackwardTest, ConstantsReceiveNoGradient) {
  Variable x(Tensor({2}, {1, 2}), true);
  Variable c = Constant(Tensor({2}, {3, 4}));
  Variable y = Sum(Mul(x, c));
  Backward(y);
  EXPECT_TRUE(x.grad_defined());
  EXPECT_FALSE(c.grad_defined());
  EXPECT_FLOAT_EQ(x.grad().at(0), 3.0f);
}

TEST(BackwardTest, FullyConstantGraphIsNoop) {
  Variable a = Constant(Tensor({2}, {1, 2}));
  Variable y = Sum(a);
  Backward(y);  // must not crash
  EXPECT_FALSE(a.grad_defined());
}

TEST(BackwardTest, GraphPrunedBelowConstants) {
  // Op over constants should not retain inputs (memory behavior).
  Variable a = Constant(Tensor({2}));
  Variable b = Constant(Tensor({2}));
  Variable y = Add(a, b);
  EXPECT_TRUE(y.node()->inputs.empty());
  EXPECT_FALSE(y.requires_grad());
}

TEST(BackwardTest, DeepChainNoStackOverflow) {
  Variable x(Tensor({4}), true);
  Variable h = x;
  for (int i = 0; i < 3000; ++i) h = ScalarAdd(h, 0.001f);
  Backward(Sum(h));
  EXPECT_FLOAT_EQ(x.grad().at(0), 1.0f);
}

TEST(BackwardDeathTest, NonScalarRootChecks) {
  Variable x(Tensor({2, 2}), true);
  Variable y = ScalarMul(x, 1.0f);
  EXPECT_DEATH(Backward(y), "Check failed");
}

TEST(MakeOpVariableTest, RequiresGradPropagates) {
  Variable a(Tensor({2}), true);
  Variable b = Constant(Tensor({2}));
  EXPECT_TRUE(Add(a, b).requires_grad());
  EXPECT_FALSE(Add(b, b).requires_grad());
}

TEST(AccumulateGradTest, ShapeChecked) {
  VarNode node;
  node.value = Tensor({2, 2});
  node.requires_grad = true;
  EXPECT_DEATH(node.AccumulateGrad(Tensor({3})), "Check failed");
}

TEST(AccumulateGradTest, NoopWithoutRequiresGrad) {
  VarNode node;
  node.value = Tensor({2, 2});
  node.AccumulateGrad(Tensor({2, 2}));  // silently skipped
  EXPECT_FALSE(node.grad_defined);
}

// ---------------------------------------------------------------------------
// Row-sparse table gradients from EmbeddingLookup.
// ---------------------------------------------------------------------------

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

// sum_i <lookup(table, ids)[i], coef[i]>: d/d(table row ids[i]) = coef[i].
Variable WeightedLookupSum(const Variable& table,
                           const std::vector<int64_t>& ids,
                           const Tensor& coef) {
  return Sum(Mul(EmbeddingLookup(table, ids), Constant(coef)));
}

// The dense [V, d] scatter the lookup backward used to build.
Tensor DenseScatter(int64_t v, int64_t d, const std::vector<int64_t>& ids,
                    const Tensor& coef) {
  Tensor g({v, d});
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == kPadId) continue;
    for (int64_t j = 0; j < d; ++j) {
      g.data()[ids[i] * d + j] += coef.data()[static_cast<int64_t>(i) * d + j];
    }
  }
  return g;
}

TEST(RowSparseGradTest, SharedTableLookupsSumToTheDenseGradient) {
  // The shared item table: a history lookup and a target lookup, plus an
  // all-pad lookup that touches no row.
  constexpr int64_t kV = 23, kD = 16;
  Rng rng(3);
  Variable table(Tensor::Randn({kV, kD}, 1.0f, &rng), true);
  const std::vector<int64_t> history = {5,  kPadId, 12, 5,      0,
                                        22, kPadId, 12, 5, 5};
  const std::vector<int64_t> targets = {12, 3, 3, 22};
  const std::vector<int64_t> pads = {kPadId, kPadId};
  Tensor ch = Tensor::Randn({10, kD}, 1.0f, &rng);
  // Row 5's four contributions only sum to 1 in id order (1e8 + 1 rounds
  // to 1e8), so any other summation order changes its bits.
  const float row5[] = {1e8f, 1.0f, -1e8f, 1.0f};
  const int64_t row5_positions[] = {0, 3, 8, 9};
  for (int k = 0; k < 4; ++k) {
    for (int64_t j = 0; j < kD; ++j) {
      ch.data()[row5_positions[k] * kD + j] = row5[k];
    }
  }
  const Tensor ct = Tensor::Randn({4, kD}, 1.0f, &rng);
  const Tensor cp = Tensor::Randn({2, kD}, 1.0f, &rng);
  Backward(Add(Add(WeightedLookupSum(table, history, ch),
                   WeightedLookupSum(table, targets, ct)),
               WeightedLookupSum(table, pads, cp)));

  ASSERT_TRUE(table.grad_row_sparse());
  EXPECT_EQ(table.grad_rows(), (std::vector<int64_t>{0, 3, 5, 12, 22}));
  EXPECT_EQ(table.grad().dim(0), 5);
  Tensor want = DenseScatter(kV, kD, history, ch);
  want.AddInPlace(DenseScatter(kV, kD, targets, ct));
  want.AddInPlace(DenseScatter(kV, kD, pads, cp));
  EXPECT_EQ(want.data()[5 * kD], 1.0f);
  EXPECT_TRUE(BitwiseEqual(table.DenseGrad(), want));

  table.ZeroGrad();  // clears the row set
  Backward(WeightedLookupSum(table, {kPadId, 7}, ct.Slice(0, 2)));
  EXPECT_EQ(table.grad_rows(), (std::vector<int64_t>{7}));
}

TEST(RowSparseGradTest, AllPadLookupGivesAnEmptyRowSet) {
  Variable table(Tensor({4, 3}), true);
  Backward(Sum(EmbeddingLookup(table, {kPadId, kPadId})));
  ASSERT_TRUE(table.grad_defined());
  EXPECT_TRUE(table.grad_row_sparse());
  EXPECT_TRUE(table.grad_rows().empty());
  EXPECT_EQ(table.grad().dim(0), 0);
  EXPECT_TRUE(BitwiseEqual(table.DenseGrad(), Tensor({4, 3})));
}

TEST(RowSparseGradTest, DenseContributionDensifies) {
  constexpr int64_t kV = 9, kD = 4;
  Rng rng(4);
  Variable table(Tensor::Randn({kV, kD}, 1.0f, &rng), true);
  const std::vector<int64_t> ids = {2, 8, 2};
  const Tensor coef = Tensor::Randn({3, kD}, 1.0f, &rng);
  const Tensor dense_coef = Tensor::Randn({kV, kD}, 1.0f, &rng);
  Tensor want = DenseScatter(kV, kD, ids, coef);
  want.AddInPlace(dense_coef);

  // Sparse first, then dense.
  Backward(WeightedLookupSum(table, ids, coef));
  ASSERT_TRUE(table.grad_row_sparse());
  Backward(Sum(Mul(table, Constant(dense_coef))));
  EXPECT_FALSE(table.grad_row_sparse());
  EXPECT_TRUE(table.grad_rows().empty());
  EXPECT_TRUE(BitwiseEqual(table.grad(), want));

  // Dense first, then sparse: the gradient stays dense.
  table.ZeroGrad();
  Backward(Sum(Mul(table, Constant(dense_coef))));
  Backward(WeightedLookupSum(table, ids, coef));
  EXPECT_FALSE(table.grad_row_sparse());
  Tensor want_dense_first = dense_coef.Clone();
  want_dense_first.AddInPlace(DenseScatter(kV, kD, ids, coef));
  EXPECT_TRUE(BitwiseEqual(table.grad(), want_dense_first));
}

TEST(RowSparseGradTest, LookupOfAnOpOutputBackpropagatesDensely) {
  // A non-leaf table: its backward closure must see a dense gradient.
  Variable base(Tensor({3, 2}, {1, 2, 3, 4, 5, 6}), true);
  Variable scaled = ScalarMul(base, 2.0f);
  Backward(Sum(EmbeddingLookup(scaled, {1, 1, kPadId})));
  const Tensor want({3, 2}, {0, 0, 4, 4, 0, 0});
  EXPECT_TRUE(BitwiseEqual(base.grad(), want));
}

}  // namespace
}  // namespace unimatch::nn

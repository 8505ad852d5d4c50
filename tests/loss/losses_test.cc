#include "src/loss/losses.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "tests/nn/gradcheck.h"

namespace unimatch::loss {

// Names each NceFamilyGradTest case after its Table II setting.
void PrintTo(LossKind kind, std::ostream* os) { *os << LossKindToString(kind); }

namespace {

TEST(LossKindTest, StringRoundtrip) {
  EXPECT_STREQ(LossKindToString(LossKind::kBbcNce), "bbcNCE");
  EXPECT_STREQ(LossKindToString(LossKind::kSsm), "SSM w. n.");
  EXPECT_EQ(*LossKindFromString("bbcnce"), LossKind::kBbcNce);
  EXPECT_EQ(*LossKindFromString("bce"), LossKind::kBce);
  EXPECT_EQ(*LossKindFromString("row-bcnce"), LossKind::kRowBcNce);
  EXPECT_EQ(*LossKindFromString("row_bcnce"), LossKind::kRowBcNce);
  EXPECT_TRUE(LossKindFromString("bogus").status().IsInvalidArgument());
}

TEST(LossKindTest, MultinomialClassification) {
  EXPECT_FALSE(IsMultinomialLoss(LossKind::kBce));
  EXPECT_TRUE(IsMultinomialLoss(LossKind::kBbcNce));
  EXPECT_TRUE(IsMultinomialLoss(LossKind::kSsm));
  EXPECT_TRUE(IsMultinomialLoss(LossKind::kInfoNce));
}

TEST(SettingsForTest, TableIIMapping) {
  const NceSettings info = SettingsFor(LossKind::kInfoNce);
  EXPECT_EQ(info.alpha, 1.0f);
  EXPECT_EQ(info.beta, 0.0f);
  EXPECT_FALSE(info.delta_alpha);
  EXPECT_FALSE(info.delta_beta);

  const NceSettings simclr = SettingsFor(LossKind::kSimClr);
  EXPECT_EQ(simclr.alpha, 1.0f);
  EXPECT_EQ(simclr.beta, 1.0f);
  EXPECT_FALSE(simclr.delta_alpha);
  EXPECT_FALSE(simclr.delta_beta);

  const NceSettings row = SettingsFor(LossKind::kRowBcNce);
  EXPECT_EQ(row.alpha, 1.0f);
  EXPECT_EQ(row.beta, 0.0f);
  EXPECT_TRUE(row.delta_alpha);
  EXPECT_FALSE(row.delta_beta);

  const NceSettings col = SettingsFor(LossKind::kColBcNce);
  EXPECT_EQ(col.alpha, 0.0f);
  EXPECT_EQ(col.beta, 1.0f);
  EXPECT_FALSE(col.delta_alpha);
  EXPECT_TRUE(col.delta_beta);

  const NceSettings bbc = SettingsFor(LossKind::kBbcNce);
  EXPECT_EQ(bbc.alpha, 1.0f);
  EXPECT_EQ(bbc.beta, 1.0f);
  EXPECT_TRUE(bbc.delta_alpha);
  EXPECT_TRUE(bbc.delta_beta);
}

// Hand-computed InfoNCE on a 2x2 score matrix.
TEST(NceFamilyLossTest, InfoNceHandComputed) {
  nn::Variable scores(Tensor({2, 2}, {2.0f, 0.0f, 1.0f, 3.0f}), true);
  Tensor log_pu({2}), log_pi({2});
  nn::Variable l =
      NceFamilyLoss(scores, log_pu, log_pi, SettingsFor(LossKind::kInfoNce));
  // Row 0: -log softmax([2,0])[0]; row 1: -log softmax([1,3])[1].
  const double r0 = -std::log(std::exp(2.0) / (std::exp(2.0) + 1.0));
  const double r1 =
      -std::log(std::exp(3.0) / (std::exp(1.0) + std::exp(3.0)));
  EXPECT_NEAR(l.value().item(), (r0 + r1) / 2.0, 1e-5);
}

TEST(NceFamilyLossTest, SimClrIsRowPlusColumn) {
  Rng rng(1);
  nn::Variable scores(Tensor::Randn({3, 3}, 1.0f, &rng), true);
  Tensor log_pu({3}), log_pi({3});
  const float simclr =
      NceFamilyLoss(scores, log_pu, log_pi, SettingsFor(LossKind::kSimClr))
          .value()
          .item();
  const float row =
      NceFamilyLoss(scores, log_pu, log_pi, SettingsFor(LossKind::kInfoNce))
          .value()
          .item();
  NceSettings col_only{0.0f, 1.0f, false, false};
  const float col =
      NceFamilyLoss(scores, log_pu, log_pi, col_only).value().item();
  EXPECT_NEAR(simclr, row + col, 1e-5);
}

TEST(NceFamilyLossTest, BiasCorrectionShiftsLogits) {
  // With delta_alpha, adding a constant c to log_pi of one item changes the
  // loss exactly as subtracting c from that item's column of scores.
  Rng rng(2);
  Tensor base = Tensor::Randn({3, 3}, 1.0f, &rng);
  Tensor log_pu({3});
  Tensor log_pi({3}, {-1.0f, -2.0f, -3.0f});

  nn::Variable s1(base.Clone(), true);
  const float with_bias =
      NceFamilyLoss(s1, log_pu, log_pi, SettingsFor(LossKind::kRowBcNce))
          .value()
          .item();

  Tensor shifted = base.Clone();
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 3; ++c) shifted.at(r, c) -= log_pi.at(c);
  }
  nn::Variable s2(shifted, true);
  Tensor zero_pi({3});
  const float manual =
      NceFamilyLoss(s2, log_pu, zero_pi, SettingsFor(LossKind::kRowBcNce))
          .value()
          .item();
  EXPECT_NEAR(with_bias, manual, 1e-5);
}

TEST(NceFamilyLossTest, UserBiasCorrectionShiftsRows) {
  // With delta_beta, adding a constant c to log_pu of one user changes the
  // loss exactly as subtracting c from that user's row of scores.
  Rng rng(4);
  Tensor base = Tensor::Randn({3, 3}, 1.0f, &rng);
  Tensor log_pu({3}, {-1.0f, -2.0f, -3.0f});
  Tensor log_pi({3});
  const float c = 0.75f;

  Tensor raised_pu = log_pu.Clone();
  raised_pu.at(1) += c;
  nn::Variable s1(base.Clone(), true);
  const float with_bias =
      NceFamilyLoss(s1, raised_pu, log_pi, SettingsFor(LossKind::kColBcNce))
          .value()
          .item();

  Tensor shifted = base.Clone();
  for (int64_t col = 0; col < 3; ++col) shifted.at(1, col) -= c;
  nn::Variable s2(shifted, true);
  const float manual =
      NceFamilyLoss(s2, log_pu, log_pi, SettingsFor(LossKind::kColBcNce))
          .value()
          .item();
  EXPECT_NEAR(with_bias, manual, 1e-5);
}

TEST(NceFamilyLossTest, PerfectDiagonalGivesLowLoss) {
  Tensor strong({3, 3});
  for (int i = 0; i < 3; ++i) strong.at(i, i) = 20.0f;
  nn::Variable scores(strong, true);
  Tensor log_pu({3}), log_pi({3});
  const float l =
      NceFamilyLoss(scores, log_pu, log_pi, SettingsFor(LossKind::kBbcNce))
          .value()
          .item();
  EXPECT_LT(l, 1e-3f);
}

TEST(NceFamilyLossTest, GradientFlowsToScores) {
  Rng rng(3);
  nn::Variable scores(Tensor::Randn({4, 4}, 1.0f, &rng), true);
  Tensor log_pu({4}), log_pi({4});
  nn::Variable l =
      NceFamilyLoss(scores, log_pu, log_pi, SettingsFor(LossKind::kBbcNce));
  nn::Backward(l);
  ASSERT_TRUE(scores.grad_defined());
  // Diagonal gradients must be negative (pushing positives up).
  for (int i = 0; i < 4; ++i) EXPECT_LT(scores.grad().at(i, i), 0.0f);
}

// dL/dS against central differences under every Table II setting, with
// nonzero log-marginals so both bias corrections enter the gradient.
class NceFamilyGradTest : public ::testing::TestWithParam<LossKind> {};

TEST_P(NceFamilyGradTest, MatchesFiniteDifferences) {
  Rng rng(40);
  nn::Variable scores(Tensor::Randn({4, 4}, 0.8f, &rng), true);
  Tensor log_pu({4}, {-1.0f, -2.5f, -0.5f, -3.0f});
  Tensor log_pi({4}, {-2.0f, -0.7f, -1.5f, -4.0f});
  nn::CheckGradients({scores}, [&] {
    return NceFamilyLoss(scores, log_pu, log_pi, SettingsFor(GetParam()));
  });
}

INSTANTIATE_TEST_SUITE_P(
    TableII, NceFamilyGradTest,
    ::testing::Values(LossKind::kInfoNce, LossKind::kSimClr,
                      LossKind::kRowBcNce, LossKind::kColBcNce,
                      LossKind::kBbcNce));

TEST(SampledSoftmaxLossTest, HandComputedNoCorrection) {
  nn::Variable pos(Tensor({1}, {2.0f}), true);
  nn::Variable neg(Tensor({1, 2}, {1.0f, 0.0f}), true);
  Tensor lq_pos({1}), lq_neg({2});
  nn::Variable l = SampledSoftmaxLoss(pos, neg, lq_pos, lq_neg);
  const double denom = std::exp(2.0) + std::exp(1.0) + 1.0;
  EXPECT_NEAR(l.value().item(), -std::log(std::exp(2.0) / denom), 1e-5);
}

TEST(SampledSoftmaxLossTest, CorrectionSubtractsLogQ) {
  nn::Variable pos(Tensor({1}, {2.0f}), true);
  nn::Variable neg(Tensor({1, 2}, {1.0f, 0.0f}), true);
  Tensor lq_pos({1}, {0.5f});
  Tensor lq_neg({2}, {1.0f, -1.0f});
  const float corrected =
      SampledSoftmaxLoss(pos, neg, lq_pos, lq_neg).value().item();

  nn::Variable pos2(Tensor({1}, {1.5f}), true);
  nn::Variable neg2(Tensor({1, 2}, {0.0f, 1.0f}), true);
  Tensor z1({1}), z2({2});
  const float manual = SampledSoftmaxLoss(pos2, neg2, z1, z2).value().item();
  EXPECT_NEAR(corrected, manual, 1e-5);
}

TEST(BceLossTest, MatchesManualBinaryCrossEntropy) {
  nn::Variable scores(Tensor({2}, {1.0f, -2.0f}), true);
  Tensor labels({2}, {1.0f, 0.0f});
  const float l = BceLoss(scores, labels).value().item();
  const double l0 = -std::log(1.0 / (1.0 + std::exp(-1.0)));
  const double l1 = -std::log(1.0 - 1.0 / (1.0 + std::exp(2.0)));
  EXPECT_NEAR(l, (l0 + l1) / 2.0, 1e-5);
}

}  // namespace
}  // namespace unimatch::loss

#include "src/train/trainer.h"

#include <gtest/gtest.h>

#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"

namespace unimatch::train {
namespace {

struct Env {
  data::InteractionLog log;
  data::DatasetSplits splits;

  Env() {
    data::SyntheticConfig cfg;
    cfg.num_users = 600;
    cfg.num_items = 100;
    cfg.num_months = 5;
    cfg.target_interactions = 8000;
    cfg.seed = 31;
    log = data::GenerateSynthetic(cfg);
    splits = data::MakeSplits(log, data::SplitConfig{});
  }
};

const Env& env() {
  static const Env* e = new Env();
  return *e;
}

model::TwoTowerConfig SmallModel() {
  model::TwoTowerConfig mc;
  mc.num_items = 100;
  mc.embedding_dim = 8;
  mc.temperature = 0.2f;
  return mc;
}

class TrainerLossKindTest
    : public ::testing::TestWithParam<loss::LossKind> {};

TEST_P(TrainerLossKindTest, LossDecreasesOverEpochs) {
  model::TwoTowerModel model(SmallModel());
  TrainConfig tc;
  tc.loss = GetParam();
  tc.epochs_per_month = 1;
  tc.batch_size = 64;
  tc.seed = 17;
  Trainer trainer(&model, &env().splits, tc);
  const auto all = env().splits.train.AllIndices();
  ASSERT_TRUE(trainer.TrainIndices(all, 1).ok());
  const double first = trainer.last_epoch_loss();
  ASSERT_TRUE(trainer.TrainIndices(all, 3).ok());
  const double later = trainer.last_epoch_loss();
  EXPECT_LT(later, first) << loss::LossKindToString(GetParam());
  EXPECT_GT(trainer.total_steps(), 0);
  EXPECT_GT(trainer.records_processed(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllLosses, TrainerLossKindTest,
    ::testing::Values(loss::LossKind::kBce, loss::LossKind::kSsm,
                      loss::LossKind::kInfoNce, loss::LossKind::kSimClr,
                      loss::LossKind::kRowBcNce, loss::LossKind::kColBcNce,
                      loss::LossKind::kBbcNce),
    [](const ::testing::TestParamInfo<loss::LossKind>& info) {
      std::string name = loss::LossKindToString(info.param);
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(TrainerTest, TrainingImprovesRankingOverUntrained) {
  eval::ProtocolConfig pc;
  pc.num_negatives = 20;
  const eval::EvalProtocol protocol =
      eval::EvalProtocol::Build(env().splits, pc);
  const eval::Evaluator evaluator(&env().splits, &protocol);

  model::TwoTowerModel model(SmallModel());
  const eval::EvalResult before = evaluator.Evaluate(model);

  TrainConfig tc;
  tc.epochs_per_month = 2;
  Trainer trainer(&model, &env().splits, tc);
  ASSERT_TRUE(trainer.TrainMonths(0, env().splits.test_month - 1).ok());
  const eval::EvalResult after = evaluator.Evaluate(model);

  EXPECT_GT(after.ir.ndcg, before.ir.ndcg + 0.1);
  EXPECT_GT(after.ut.ndcg, before.ut.ndcg + 0.1);
}

TEST(TrainerTest, BceProcessesTwiceTheRecords) {
  model::TwoTowerModel m1(SmallModel());
  TrainConfig tc;
  tc.loss = loss::LossKind::kBbcNce;
  Trainer t1(&m1, &env().splits, tc);
  ASSERT_TRUE(t1.TrainIndices(env().splits.train.AllIndices(), 1).ok());

  model::TwoTowerModel m2(SmallModel());
  tc.loss = loss::LossKind::kBce;
  Trainer t2(&m2, &env().splits, tc);
  ASSERT_TRUE(t2.TrainIndices(env().splits.train.AllIndices(), 1).ok());

  // The paper's cost argument: BCE consumes ~2x records per epoch (1:1
  // negatives).
  EXPECT_NEAR(static_cast<double>(t2.records_processed()) /
                  static_cast<double>(t1.records_processed()),
              2.0, 0.1);
}

TEST(TrainerTest, TrainMonthsSkipsEmptyMonths) {
  model::TwoTowerModel model(SmallModel());
  TrainConfig tc;
  Trainer trainer(&model, &env().splits, tc);
  // Months beyond the data: no samples, must be a no-op success.
  EXPECT_TRUE(trainer.TrainMonths(40, 42).ok());
  EXPECT_EQ(trainer.total_steps(), 0);
}

TEST(TrainerDeathTest, UnknownOptimizerFatal) {
  model::TwoTowerModel model(SmallModel());
  TrainConfig tc;
  tc.optimizer = "adamw";
  EXPECT_DEATH(Trainer(&model, &env().splits, tc), "unknown optimizer: adamw");
}

TEST(TrainerTest, TrainIndicesEmptyIsError) {
  model::TwoTowerModel model(SmallModel());
  TrainConfig tc;
  Trainer trainer(&model, &env().splits, tc);
  EXPECT_TRUE(trainer.TrainIndices({}, 1).IsInvalidArgument());
}

TEST(TrainerTest, DeterministicGivenSeed) {
  auto run = [] {
    model::TwoTowerModel model(SmallModel());
    TrainConfig tc;
    tc.seed = 5;
    Trainer trainer(&model, &env().splits, tc);
    Status st = trainer.TrainMonths(0, 1);
    UM_CHECK(st.ok());
    return model.InferItemEmbeddings();
  };
  EXPECT_TRUE(AllClose(run(), run()));
}

TEST(TrainerTest, IncrementalEqualsMonthByMonthCalls) {
  auto a = [] {
    model::TwoTowerModel model(SmallModel());
    TrainConfig tc;
    tc.seed = 6;
    Trainer t(&model, &env().splits, tc);
    UM_CHECK(t.TrainMonths(0, 2).ok());
    return model.InferItemEmbeddings();
  }();
  auto b = [] {
    model::TwoTowerModel model(SmallModel());
    TrainConfig tc;
    tc.seed = 6;
    Trainer t(&model, &env().splits, tc);
    for (int mo = 0; mo <= 2; ++mo) UM_CHECK(t.TrainMonth(mo).ok());
    return model.InferItemEmbeddings();
  }();
  EXPECT_TRUE(AllClose(a, b));
}

}  // namespace
}  // namespace unimatch::train

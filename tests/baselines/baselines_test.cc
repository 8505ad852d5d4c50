#include <gtest/gtest.h>

#include "src/baselines/item_knn.h"
#include "src/baselines/mf.h"
#include "src/baselines/popularity.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"

namespace unimatch::baselines {
namespace {

struct Env {
  data::InteractionLog log;
  data::DatasetSplits splits;
  std::unique_ptr<eval::EvalProtocol> protocol;
  std::unique_ptr<eval::Evaluator> evaluator;

  Env() {
    data::SyntheticConfig cfg;
    cfg.num_users = 1200;
    cfg.num_items = 150;
    cfg.num_months = 6;
    cfg.target_interactions = 15000;
    cfg.seed = 321;
    log = data::GenerateSynthetic(cfg);
    splits = data::MakeSplits(log, data::SplitConfig{});
    eval::ProtocolConfig pc;
    pc.num_negatives = 30;
    protocol = std::make_unique<eval::EvalProtocol>(
        eval::EvalProtocol::Build(splits, pc));
    evaluator = std::make_unique<eval::Evaluator>(&splits, protocol.get());
  }
};

const Env& env() {
  static const Env* e = new Env();
  return *e;
}

double RandomGuessNdcg() {
  // With 1 positive among 31 candidates and top-10, expected NDCG is low
  // (~0.1); use a conservative floor that real signal must clearly beat.
  return 0.15;
}

TEST(PopularityBaselineTest, CountsMatchMarginals) {
  PopularityRecommender pop(env().splits);
  for (data::ItemId i = 0; i < 10; ++i) {
    EXPECT_EQ(pop.item_count(i), env().splits.train_marginals.item_count(i));
  }
}

TEST(PopularityBaselineTest, BeatsRandomOnSkewedData) {
  PopularityRecommender pop(env().splits);
  const auto result = env().evaluator->EvaluateScorer(
      [&](data::UserId u, data::ItemId i) { return pop.Score(u, i); });
  EXPECT_GT(result.ir.ndcg, RandomGuessNdcg());
}

TEST(PopularityBaselineTest, ScoreOrdersByItemCount) {
  PopularityRecommender pop(env().splits);
  data::ItemId hi = 0, lo = 0;
  for (data::ItemId i = 0; i < env().log.num_items(); ++i) {
    if (pop.item_count(i) > pop.item_count(hi)) hi = i;
    if (pop.item_count(i) < pop.item_count(lo)) lo = i;
  }
  EXPECT_GT(pop.Score(0, hi), pop.Score(0, lo));
}

TEST(ItemKnnTest, SimilaritySymmetricAndBounded) {
  ItemKnn knn(env().splits, env().log);
  int checked = 0;
  for (data::ItemId a = 0; a < 20; ++a) {
    for (data::ItemId b = a + 1; b < 20; ++b) {
      const double sab = knn.Similarity(a, b);
      ASSERT_GE(sab, 0.0);
      ASSERT_LE(sab, 1.0);
      if (sab > 0.0) {
        // May be asymmetric only through top-k truncation; check loosely.
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ItemKnnTest, PersonalizationBeatsPopularityOnIr) {
  PopularityRecommender pop(env().splits);
  ItemKnn knn(env().splits, env().log);
  const auto pop_result = env().evaluator->EvaluateScorer(
      [&](data::UserId u, data::ItemId i) { return pop.Score(u, i); });
  const auto knn_result = env().evaluator->EvaluateScorer(
      [&](data::UserId u, data::ItemId i) { return knn.Score(u, i); });
  EXPECT_GT(knn_result.ir.ndcg, pop_result.ir.ndcg);
}

TEST(ItemKnnTest, EmptyHistoryScoresZero) {
  ItemKnn knn(env().splits, env().log);
  for (data::UserId u = 0; u < env().log.num_users(); ++u) {
    if (env().splits.histories[u].empty()) {
      EXPECT_EQ(knn.Score(u, 0), 0.0);
      return;
    }
  }
}

TEST(MatrixFactorizationTest, TrainsAndBeatsRandom) {
  MfConfig cfg;
  cfg.epochs = 4;
  MatrixFactorization mf(env().log.num_users(), env().log.num_items(), cfg);
  ASSERT_TRUE(mf.Train(env().splits).ok());
  const auto result = env().evaluator->EvaluateScorer(
      [&](data::UserId u, data::ItemId i) { return mf.Score(u, i); });
  EXPECT_GT(result.ir.ndcg, RandomGuessNdcg());
  EXPECT_GT(result.ut.ndcg, RandomGuessNdcg());
}

TEST(MatrixFactorizationTest, ScoreIsCosineBounded) {
  MfConfig cfg;
  cfg.epochs = 1;
  MatrixFactorization mf(env().log.num_users(), env().log.num_items(), cfg);
  ASSERT_TRUE(mf.Train(env().splits).ok());
  for (int k = 0; k < 50; ++k) {
    const double s = mf.Score(k % env().log.num_users(),
                              k % env().log.num_items());
    EXPECT_GE(s, -1.0 - 1e-6);
    EXPECT_LE(s, 1.0 + 1e-6);
  }
}

TEST(MatrixFactorizationTest, EmptySplitsRejected) {
  MfConfig cfg;
  MatrixFactorization mf(10, 10, cfg);
  data::DatasetSplits empty;
  EXPECT_TRUE(mf.Train(empty).IsInvalidArgument());
}

TEST(EvaluateScorerTest, PerfectScorerScoresPerfectly) {
  // A scorer that knows the answers must reach NDCG = 1 on IR.
  std::unordered_map<data::UserId, data::ItemId> truth;
  for (const auto& c : env().protocol->ir_cases()) {
    truth[c.anchor] = c.positive;
  }
  const auto result = env().evaluator->EvaluateScorer(
      [&](data::UserId u, data::ItemId i) {
        auto it = truth.find(u);
        return it != truth.end() && it->second == i ? 1.0 : 0.0;
      });
  EXPECT_DOUBLE_EQ(result.ir.ndcg, 1.0);
  EXPECT_DOUBLE_EQ(result.ir.recall, 1.0);
}

}  // namespace
}  // namespace unimatch::baselines

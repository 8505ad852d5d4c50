// Equivalence tests for the parallel evaluator: per-case scoring runs on
// the shared pool, but results must be byte-identical across runs — the
// fold into accumulators and output lists happens serially in case order.

#include "src/eval/evaluator.h"

#include <gtest/gtest.h>

#include "src/data/synthetic.h"
#include "src/model/two_tower.h"
#include "src/tensor/kernels.h"

namespace unimatch::eval {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticConfig cfg;
    cfg.num_users = 200;
    cfg.num_items = 60;
    cfg.num_months = 4;
    cfg.target_interactions = 3000;
    cfg.seed = 21;
    log_ = data::GenerateSynthetic(cfg);
    splits_ = data::MakeSplits(log_, data::SplitConfig{});
    ProtocolConfig pc;
    pc.num_negatives = 30;
    protocol_ = EvalProtocol::Build(splits_, pc);

    model::TwoTowerConfig mc;
    mc.num_items = 60;
    mc.embedding_dim = 8;
    model_ = std::make_unique<model::TwoTowerModel>(mc);
  }

  data::InteractionLog log_;
  data::DatasetSplits splits_;
  EvalProtocol protocol_;
  std::unique_ptr<model::TwoTowerModel> model_;
};

TEST_F(EvaluatorTest, RepeatedEvaluationsAreIdentical) {
  const Evaluator evaluator(&splits_, &protocol_);
  RetrievedLists r1, r2;
  PerCaseMetrics p1, p2;
  const EvalResult a = evaluator.Evaluate(*model_, &r1, &p1);
  const EvalResult b = evaluator.Evaluate(*model_, &r2, &p2);
  EXPECT_EQ(a.ir.recall, b.ir.recall);
  EXPECT_EQ(a.ir.ndcg, b.ir.ndcg);
  EXPECT_EQ(a.ut.recall, b.ut.recall);
  EXPECT_EQ(a.ut.ndcg, b.ut.ndcg);
  EXPECT_EQ(p1.ir_ndcg, p2.ir_ndcg);
  EXPECT_EQ(p1.ut_ndcg, p2.ut_ndcg);
  EXPECT_EQ(r1.ir_topn, r2.ir_topn);
  EXPECT_EQ(r1.ut_topn, r2.ut_topn);
}

// Evaluate and EvaluateScorer share one task loop; feeding the scorer the
// same dot products the model path computes pins Evaluate's embedding
// bookkeeping (the needed-user slots, the IR/UT argument order) to the
// plain score(user, item) path.
TEST_F(EvaluatorTest, ParallelEvaluateMatchesSerialScorerPath) {
  const Evaluator evaluator(&splits_, &protocol_);
  const int64_t d = model_->config().embedding_dim;
  std::vector<std::vector<int64_t>> histories;
  for (const auto& h : splits_.histories) histories.push_back(h);
  const Tensor user_emb = model_->InferUserEmbeddings(histories);
  const Tensor item_emb = model_->InferItemEmbeddings();

  RetrievedLists model_retrieved, scorer_retrieved;
  const EvalResult via_model = evaluator.Evaluate(*model_, &model_retrieved);
  const EvalResult via_scorer = evaluator.EvaluateScorer(
      [&](data::UserId u, data::ItemId i) {
        // float -> double -> float round trips exactly, so the scorer sees
        // bitwise the same scores Evaluate computes.
        return static_cast<double>(kernels::DotF32(
            user_emb.Row(u).data(), item_emb.Row(i).data(), d));
      },
      &scorer_retrieved);

  EXPECT_EQ(via_model.ir.recall, via_scorer.ir.recall);
  EXPECT_EQ(via_model.ir.ndcg, via_scorer.ir.ndcg);
  EXPECT_EQ(via_model.ir.num_cases, via_scorer.ir.num_cases);
  EXPECT_EQ(via_model.ut.recall, via_scorer.ut.recall);
  EXPECT_EQ(via_model.ut.ndcg, via_scorer.ut.ndcg);
  EXPECT_EQ(via_model.ut.num_cases, via_scorer.ut.num_cases);
  EXPECT_EQ(model_retrieved.ir_topn, scorer_retrieved.ir_topn);
  EXPECT_EQ(model_retrieved.ut_topn, scorer_retrieved.ut_topn);
}

}  // namespace
}  // namespace unimatch::eval

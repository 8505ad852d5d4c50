// Bit-parity gate for the Table VI evaluation: the protocol's test cases,
// and what Evaluate and EvaluateScorer report on them. A digest covers both
// tasks: the case ids, or the EvalResult bits, every retrieved top-n list
// and every per-case NDCG. Each evaluation runs under each kernel backend
// the machine has, on a model trained under that backend. The AVX2 dot
// product reassociates its sum, so the two could rank a case differently;
// on these inputs they rank every case alike, so their digests agree.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/baselines/mf.h"
#include "src/baselines/popularity.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/train/trainer.h"
#include "tests/util/digest_testing.h"

namespace unimatch::eval {
namespace {

using digest_testing::Digest;
using digest_testing::ExpectDigest;

struct Env {
  data::InteractionLog log;
  data::DatasetSplits splits;
  EvalProtocol protocol;

  Env() {
    data::SyntheticConfig cfg;
    cfg.num_users = 600;
    cfg.num_items = 90;
    cfg.num_months = 5;
    cfg.target_interactions = 9000;
    cfg.seed = 11;
    log = data::GenerateSynthetic(cfg);
    splits = data::MakeSplits(log, data::SplitConfig{});
    ProtocolConfig pc;
    pc.top_n = 10;
    pc.num_negatives = 20;
    pc.seed = 11;
    protocol = EvalProtocol::Build(splits, pc);
  }
};

const Env& env() {
  static const Env* e = new Env();
  return *e;
}

void FeedResult(const EvalResult& r, const RetrievedLists& retrieved,
                Digest* d) {
  for (const TaskResult& t : {r.ir, r.ut}) {
    d->Feed(t.recall);
    d->Feed(t.ndcg);
    d->Feed(t.num_cases);
  }
  d->Feed(retrieved.ir_topn);
  d->Feed(retrieved.ut_topn);
}

// One epoch of bbcNCE over every training sample.
std::unique_ptr<model::TwoTowerModel> TrainedModel(
    model::ContextExtractor extractor) {
  model::TwoTowerConfig mc;
  mc.num_items = env().log.num_items();
  mc.embedding_dim = 8;
  mc.extractor = extractor;
  auto model = std::make_unique<model::TwoTowerModel>(mc);
  train::TrainConfig tc;
  tc.seed = 5;
  train::Trainer trainer(model.get(), &env().splits, tc);
  EXPECT_TRUE(trainer.TrainIndices(env().splits.train.AllIndices(), 1).ok());
  return model;
}

uint64_t ModelDigest(model::ContextExtractor extractor) {
  const auto model = TrainedModel(extractor);
  const Evaluator evaluator(&env().splits, &env().protocol);
  RetrievedLists retrieved;
  PerCaseMetrics per_case;
  const EvalResult r = evaluator.Evaluate(*model, &retrieved, &per_case);
  Digest d;
  FeedResult(r, retrieved, &d);
  d.Feed(per_case.ir_ndcg);
  d.Feed(per_case.ut_ndcg);
  return d.value();
}

uint64_t ScorerDigest() {
  const Evaluator evaluator(&env().splits, &env().protocol);
  Digest d;
  RetrievedLists retrieved;
  const baselines::PopularityRecommender pop(env().splits);
  const EvalResult by_popularity = evaluator.EvaluateScorer(
      [&](data::UserId u, data::ItemId i) { return pop.Score(u, i); },
      &retrieved);
  FeedResult(by_popularity, retrieved, &d);
  baselines::MfConfig mc;
  mc.embedding_dim = 8;
  mc.epochs = 2;
  baselines::MatrixFactorization mf(env().log.num_users(),
                                    env().log.num_items(), mc);
  EXPECT_TRUE(mf.Train(env().splits).ok());
  const EvalResult by_mf = evaluator.EvaluateScorer(
      [&](data::UserId u, data::ItemId i) { return mf.Score(u, i); },
      &retrieved);
  FeedResult(by_mf, retrieved, &d);
  return d.value();
}

TEST(EvalDigestTest, ProtocolCasesMatchRecordedIds) {
  const EvalProtocol& p = env().protocol;
  ASSERT_GT(p.ir_cases().size(), 100u);
  ASSERT_GT(p.ut_cases().size(), 40u);
  Digest d;
  d.Feed(p.item_pool());
  d.Feed(p.user_pool());
  for (const auto* cases : {&p.ir_cases(), &p.ut_cases()}) {
    d.Feed(static_cast<uint64_t>(cases->size()));
    for (const EvalCase& c : *cases) {
      d.Feed(c.anchor);
      d.Feed(c.positive);
      d.Feed(c.negatives);
    }
  }
  ExpectDigest(d.value(), 0xAF521EF3A9DB39CAULL);
}

class EvalBackendDigestTest : public digest_testing::BackendDigestTest {};

TEST_P(EvalBackendDigestTest, EvaluateMatchesRecordedBits) {
  {
    SCOPED_TRACE("no extractor");
    ExpectDigest(ModelDigest(model::ContextExtractor::kNone),
                 ForBackend(0xACE1D82F2BD102CEULL, 0xACE1D82F2BD102CEULL));
  }
  SCOPED_TRACE("GRU");
  ExpectDigest(ModelDigest(model::ContextExtractor::kGru),
               ForBackend(0x3AA9FA9BB1448DFBULL, 0x3AA9FA9BB1448DFBULL));
}

TEST_P(EvalBackendDigestTest, EvaluateScorerMatchesRecordedBits) {
  ExpectDigest(ScorerDigest(),
               ForBackend(0x2F7524264C2E9E70ULL, 0x2F7524264C2E9E70ULL));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EvalBackendDigestTest,
                         ::testing::Values(kernels::Backend::kPortable,
                                           kernels::Backend::kAvx2),
                         digest_testing::BackendParamName);

}  // namespace
}  // namespace unimatch::eval

// The trainer's thread-count contract: num_threads changes how fast a
// model trains, never what it learns. For a fixed seed, training at 2 and 4
// threads must reproduce num_threads = 1 bit for bit, for every tower, loss
// and dropout setting.

#include "src/train/parallel_step.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/train/trainer.h"

namespace unimatch::train {
namespace {

struct Env {
  data::InteractionLog log;
  data::DatasetSplits splits;

  Env() {
    data::SyntheticConfig cfg;
    cfg.num_users = 300;
    cfg.num_items = 80;
    cfg.num_months = 4;
    cfg.target_interactions = 4000;
    cfg.seed = 47;
    log = data::GenerateSynthetic(cfg);
    splits = data::MakeSplits(log, data::SplitConfig{});
  }
};

const Env& env() {
  static const Env* e = new Env();
  return *e;
}

model::TwoTowerConfig BaseModel() {
  model::TwoTowerConfig mc;
  mc.num_items = 80;
  mc.embedding_dim = 8;
  mc.temperature = 0.2f;
  return mc;
}

struct RunOutput {
  std::vector<double> epoch_losses;
  Tensor item_embeddings;
  double ir_ndcg = 0.0;
  double ut_ndcg = 0.0;
};

// Two epochs over every training sample.
RunOutput RunTraining(const model::TwoTowerConfig& mc, loss::LossKind loss,
                      int num_threads) {
  model::TwoTowerModel model(mc);
  TrainConfig tc;
  tc.loss = loss;
  tc.batch_size = 64;
  tc.seed = 12;
  tc.num_threads = num_threads;
  Trainer trainer(&model, &env().splits, tc);
  const auto all = env().splits.train.AllIndices();
  RunOutput out;
  for (int e = 0; e < 2; ++e) {
    UM_CHECK(trainer.TrainIndices(all, 1).ok());
    out.epoch_losses.push_back(trainer.last_epoch_loss());
  }
  out.item_embeddings = model.InferItemEmbeddings();
  eval::ProtocolConfig pc;
  pc.num_negatives = 20;
  const eval::EvalProtocol protocol =
      eval::EvalProtocol::Build(env().splits, pc);
  const eval::Evaluator evaluator(&env().splits, &protocol);
  const eval::EvalResult res = evaluator.Evaluate(model);
  out.ir_ndcg = res.ir.ndcg;
  out.ut_ndcg = res.ut.ndcg;
  return out;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

void ExpectIdenticalRuns(const RunOutput& a, const RunOutput& b,
                         const char* label) {
  ASSERT_EQ(a.epoch_losses.size(), b.epoch_losses.size());
  for (size_t e = 0; e < a.epoch_losses.size(); ++e) {
    EXPECT_EQ(a.epoch_losses[e], b.epoch_losses[e])
        << label << " epoch " << e << " loss diverged";
  }
  EXPECT_TRUE(BitwiseEqual(a.item_embeddings, b.item_embeddings))
      << label << " item embeddings diverged";
  EXPECT_EQ(a.ir_ndcg, b.ir_ndcg) << label;
  EXPECT_EQ(a.ut_ndcg, b.ut_ndcg) << label;
}

// Trains `mc` with `loss` at 1, 2 and 4 threads and requires every run to
// be bitwise the single-threaded one.
void ExpectThreadCountsAgree(const model::TwoTowerConfig& mc,
                             loss::LossKind loss, const char* label) {
  const RunOutput serial = RunTraining(mc, loss, 1);
  for (int nt : {2, 4}) {
    SCOPED_TRACE(testing::Message() << nt << " threads");
    ExpectIdenticalRuns(serial, RunTraining(mc, loss, nt), label);
  }
}

model::TwoTowerConfig Tower(model::ContextExtractor extractor,
                            model::Aggregator aggregator) {
  model::TwoTowerConfig mc = BaseModel();
  mc.extractor = extractor;
  mc.aggregator = aggregator;
  return mc;
}

model::TwoTowerConfig WithDropout() {
  model::TwoTowerConfig mc = BaseModel();
  mc.dropout = 0.3f;
  return mc;
}

// The default backbone (no extractor, mean pooling) under each loss family.
class BitwiseSerialTest : public ::testing::TestWithParam<loss::LossKind> {};

TEST_P(BitwiseSerialTest, ParallelMatchesSerialExactly) {
  ExpectThreadCountsAgree(BaseModel(), GetParam(),
                          loss::LossKindToString(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Losses, BitwiseSerialTest,
    ::testing::Values(loss::LossKind::kBbcNce, loss::LossKind::kSsm,
                      loss::LossKind::kBce),
    [](const ::testing::TestParamInfo<loss::LossKind>& info) {
      std::string name = loss::LossKindToString(info.param);
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Extractor parameters sit in the user tower, whose forward and backward
// run on the stepping thread; only their row-local loops use the pool.
TEST(ParallelStepTest, ExtractorTowersAgreeAcrossThreadCounts) {
  using model::Aggregator;
  using model::ContextExtractor;
  ExpectThreadCountsAgree(Tower(ContextExtractor::kGru, Aggregator::kMean),
                          loss::LossKind::kBbcNce, "gru+mean bbcNCE");
  ExpectThreadCountsAgree(Tower(ContextExtractor::kCnn, Aggregator::kMax),
                          loss::LossKind::kSsm, "cnn+max SSM");
  ExpectThreadCountsAgree(
      Tower(ContextExtractor::kTransformer, Aggregator::kLast),
      loss::LossKind::kBbcNce, "transformer+last bbcNCE");
}

TEST(ParallelStepTest, AttentionTowersAgreeAcrossThreadCounts) {
  ExpectThreadCountsAgree(
      Tower(model::ContextExtractor::kNone, model::Aggregator::kAttention),
      loss::LossKind::kBbcNce, "attention bbcNCE");
}

// Dropout masks are drawn from the trainer RNG on the stepping thread, in
// the same order at every thread count.
TEST(ParallelStepTest, DropoutRunsAgreeAcrossThreadCounts) {
  ExpectThreadCountsAgree(WithDropout(), loss::LossKind::kBbcNce,
                          "dropout bbcNCE");
}

// BCE with dropout also turns batch prefetching off: the producer draws
// its negatives from the RNG the masks use.
TEST(ParallelStepTest, BceDropoutRunsAgreeAcrossThreadCounts) {
  ExpectThreadCountsAgree(WithDropout(), loss::LossKind::kBce,
                          "dropout BCE");
}

// The compatibility class perfbench drives must encode exactly what
// EncodeUsers encodes.
TEST(ParallelStepTest, EncodeMatchesSerialForward) {
  model::TwoTowerModel model(BaseModel());
  ShardedUserEncoder encoder(&model, 2);
  const int64_t b = 70, l = 5;
  std::vector<int64_t> ids(b * l, nn::kPadId);
  std::vector<int64_t> lengths(b);
  Rng rng(3);
  for (int64_t r = 0; r < b; ++r) {
    lengths[r] = 1 + static_cast<int64_t>(rng.Uniform(l));
    for (int64_t t = 0; t < lengths[r]; ++t) {
      ids[r * l + t] = static_cast<int64_t>(rng.Uniform(80));
    }
  }
  nn::Variable serial = model.EncodeUsers(ids, lengths);
  nn::Variable parallel = encoder.Encode(ids, lengths, nullptr);
  ASSERT_TRUE(serial.value().same_shape(parallel.value()));
  EXPECT_TRUE(BitwiseEqual(serial.value(), parallel.value()));
}

}  // namespace
}  // namespace unimatch::train

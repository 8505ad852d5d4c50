// Bit-parity gate for training: every loss, each BCE negative sampling,
// dropout on and off, and the MF baseline. A digest covers two epochs'
// losses, the trainer's step and record counts and every trained parameter.
// Each two-tower case runs at num_threads 1 and 2 against one digest, so
// it also pins the prefetch rule: a prefetched batch must be bitwise the
// one the serial path assembles. The towers' matmuls and dot products
// reassociate their sums under AVX2, so each backend has its own digest.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/baselines/mf.h"
#include "src/data/synthetic.h"
#include "src/train/trainer.h"
#include "tests/util/digest_testing.h"

namespace unimatch::train {
namespace {

using data::NegSampling;
using digest_testing::Digest;
using digest_testing::ExpectDigest;
using loss::LossKind;

struct Env {
  data::InteractionLog log;
  data::DatasetSplits splits;

  Env() {
    data::SyntheticConfig cfg;
    cfg.num_users = 300;
    cfg.num_items = 80;
    cfg.num_months = 4;
    cfg.target_interactions = 4000;
    cfg.seed = 5;
    log = data::GenerateSynthetic(cfg);
    splits = data::MakeSplits(log, data::SplitConfig{});
  }
};

const Env& env() {
  static const Env* e = new Env();
  return *e;
}

struct TrainCase {
  const char* name;
  LossKind loss;
  NegSampling sampling;
  float dropout;
  uint64_t portable;
  uint64_t avx2;
};

uint64_t TrainDigest(const TrainCase& c, int num_threads) {
  model::TwoTowerConfig mc;
  mc.num_items = env().log.num_items();
  mc.embedding_dim = 8;
  mc.dropout = c.dropout;
  model::TwoTowerModel model(mc);
  TrainConfig tc;
  tc.loss = c.loss;
  tc.bce_sampling = c.sampling;
  tc.batch_size = 64;
  tc.ssm_num_negatives = 20;
  tc.seed = 12;
  tc.num_threads = num_threads;
  Trainer trainer(&model, &env().splits, tc);
  const auto all = env().splits.train.AllIndices();
  Digest d;
  for (int e = 0; e < 2; ++e) {
    EXPECT_TRUE(trainer.TrainIndices(all, 1).ok());
    d.Feed(trainer.last_epoch_loss());
  }
  d.Feed(trainer.total_steps());
  d.Feed(trainer.records_processed());
  d.Feed(model);
  return d.value();
}

uint64_t MfDigest(LossKind loss) {
  baselines::MfConfig mc;
  mc.embedding_dim = 8;
  mc.epochs = 3;
  mc.loss = loss;
  baselines::MatrixFactorization mf(env().log.num_users(),
                                    env().log.num_items(), mc);
  EXPECT_TRUE(mf.Train(env().splits).ok());
  Digest d;
  d.Feed(mf);
  return d.value();
}

constexpr TrainCase kCases[] = {
    {"InfoNCE", LossKind::kInfoNce, NegSampling::kUniform, 0.0f,
     0x81143FC8235E792BULL, 0xD9081D17888DF3A9ULL},
    {"SimCLR", LossKind::kSimClr, NegSampling::kUniform, 0.0f,
     0x85942E08F109EB52ULL, 0x3F254928144A9FBFULL},
    {"row-bcNCE", LossKind::kRowBcNce, NegSampling::kUniform, 0.0f,
     0xEB6099F1B4675446ULL, 0x78FF3D4CB4AF90F8ULL},
    {"col-bcNCE", LossKind::kColBcNce, NegSampling::kUniform, 0.0f,
     0xBC55AE6E1D03D568ULL, 0x42C7BEE0CE3E10CFULL},
    {"bbcNCE", LossKind::kBbcNce, NegSampling::kUniform, 0.0f,
     0x5FE73147EDA61526ULL, 0x47ED8BCD81D52B7BULL},
    {"bbcNCE dropout", LossKind::kBbcNce, NegSampling::kUniform, 0.2f,
     0xE38848FB77C921F4ULL, 0x8509A22E960F6D25ULL},
    {"SSM", LossKind::kSsm, NegSampling::kUniform, 0.0f,
     0xA11B5B74B27B2573ULL, 0x2B6CEF727D040AD1ULL},
    {"SSM dropout", LossKind::kSsm, NegSampling::kUniform, 0.2f,
     0x26C242F572C4F71FULL, 0x22C9EA747FBDEA56ULL},
    {"BCE user-freq", LossKind::kBce, NegSampling::kUserFreq, 0.0f,
     0xE41A9AA5B4A0254CULL, 0xBFF62F7C2FBCDD44ULL},
    {"BCE item-freq", LossKind::kBce, NegSampling::kItemFreq, 0.0f,
     0xA4B815045C3FD4BAULL, 0x591E1BC27594FF07ULL},
    {"BCE user-item-freq", LossKind::kBce, NegSampling::kUserItemFreq, 0.0f,
     0x0A951DCAAC3CD64BULL, 0xDBD1E7D78A5CD67AULL},
    {"BCE uniform", LossKind::kBce, NegSampling::kUniform, 0.0f,
     0xD1CA20283607F4C2ULL, 0x8E5752B799B4BA3DULL},
    {"BCE user-freq dropout", LossKind::kBce, NegSampling::kUserFreq, 0.2f,
     0xDAEB7D728105BAB4ULL, 0x004A1E2812F70C63ULL},
    {"BCE item-freq dropout", LossKind::kBce, NegSampling::kItemFreq, 0.2f,
     0x78A2AFE3A214D1B2ULL, 0xB5FEA777109B409CULL},
    {"BCE user-item-freq dropout", LossKind::kBce,
     NegSampling::kUserItemFreq, 0.2f, 0xAD6ADC76E68BA46BULL,
     0xE0A3544B56083178ULL},
    {"BCE uniform dropout", LossKind::kBce, NegSampling::kUniform, 0.2f,
     0x0B3A45FFE9D45C14ULL, 0xDC1FCF650008DE29ULL},
};

struct MfCase {
  LossKind loss;
  uint64_t portable;
  uint64_t avx2;
};

constexpr MfCase kMfCases[] = {
    {LossKind::kBbcNce, 0xB2C2F279190D2623ULL, 0x8FD36571F1B12C90ULL},
    {LossKind::kInfoNce, 0x051741D22AF597BCULL, 0xA3B891DF5CC2DD42ULL},
};

class TrainerDigestTest : public digest_testing::BackendDigestTest {};

TEST_P(TrainerDigestTest, EveryLossMatchesRecordedBits) {
  for (const TrainCase& c : kCases) {
    for (int num_threads : {1, 2}) {
      SCOPED_TRACE(::testing::Message() << c.name << ", " << num_threads
                                        << " threads");
      ExpectDigest(TrainDigest(c, num_threads),
                   ForBackend(c.portable, c.avx2));
    }
  }
}

TEST_P(TrainerDigestTest, MatrixFactorizationMatchesRecordedBits) {
  for (const MfCase& c : kMfCases) {
    SCOPED_TRACE(loss::LossKindToString(c.loss));
    ExpectDigest(MfDigest(c.loss), ForBackend(c.portable, c.avx2));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TrainerDigestTest,
                         ::testing::Values(kernels::Backend::kPortable,
                                           kernels::Backend::kAvx2),
                         digest_testing::BackendParamName);

}  // namespace
}  // namespace unimatch::train

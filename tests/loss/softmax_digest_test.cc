// Bit-parity gate for every softmax in training. A change that must keep
// the trained bits (a reworked softmax kernel, another way to take Eq. 10's
// column term) has to leave every digest below unchanged; a change that
// alters them on purpose records new digests and says so.
//
// A digest is FNV-1a over the bit patterns of a case's outputs: the loss,
// the gradients, or the epoch losses and item embeddings of a short
// training run. The loss and op inputs come from an integer hash. "Grid"
// inputs sit on a 1/8 grid, so rows tie at their maximum and zeros come out
// as -0.0f; "fine" inputs are 24-bit slices. Every case runs under each
// kernel backend the machine has, and the loss cases run both outside any
// parallel region and inside a 2-thread one. exp and log come from the C
// library, so the digests hold for the libm they were recorded with (glibc
// on x86-64).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/data/synthetic.h"
#include "src/loss/losses.h"
#include "src/nn/seq_ops.h"
#include "src/tensor/kernels.h"
#include "src/train/trainer.h"
#include "src/util/parallel.h"
#include "src/util/threadpool.h"
#include "tests/util/digest_testing.h"

namespace unimatch {
namespace {

using digest_testing::Digest;
using digest_testing::ExpectDigest;
using kernels::Backend;
using loss::LossKind;

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Element i of a hashed input. Grid values are k/8 for k in [-16, 16);
// half of the grid's zeros are -0.0f. Fine values are 24-bit slices
// scaled into [-2, 2).
float HashedValue(uint64_t seed, int64_t i, bool grid) {
  const uint64_t h = SplitMix(seed ^ SplitMix(static_cast<uint64_t>(i)));
  if (grid) {
    const int64_t k = static_cast<int64_t>(h >> 59) - 16;
    if (k == 0 && (h & 1) != 0) return -0.0f;
    return static_cast<float>(k) / 8.0f;
  }
  const int64_t slice = static_cast<int64_t>(h >> 40) - (1 << 23);
  return static_cast<float>(slice) / static_cast<float>(1 << 22);
}

Tensor HashedTensor(Shape shape, uint64_t seed, bool grid) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = HashedValue(seed, i, grid);
  }
  return t;
}

// Nonzero log-marginals in (-6, -2].
Tensor HashedLogMarginals(int64_t n, uint64_t seed) {
  Tensor t({n});
  for (int64_t i = 0; i < n; ++i) {
    t.data()[i] = -4.0f - HashedValue(seed, i, /*grid=*/false);
  }
  return t;
}

// Eq. 10 under one Table II setting: loss and dL/dS bits at B = 1, 2, 7 and
// 256, on grid and fine scores with nonzero log-marginals.
uint64_t NceDigest(LossKind kind) {
  Digest d;
  for (int64_t b : {1, 2, 7, 256}) {
    for (bool grid : {true, false}) {
      const uint64_t seed = static_cast<uint64_t>(b) * 4 + (grid ? 1 : 2);
      nn::Variable scores(HashedTensor({b, b}, seed, grid), true);
      nn::Variable l = loss::NceFamilyLoss(
          scores, HashedLogMarginals(b, seed + 100),
          HashedLogMarginals(b, seed + 200), loss::SettingsFor(kind));
      nn::Backward(l);
      d.Feed(l.value());
      d.Feed(scores.grad());
    }
  }
  return d.value();
}

// Sampled softmax: loss and both score gradients over (B, S) shapes.
uint64_t SsmDigest() {
  Digest d;
  const int64_t shapes[][2] = {{1, 1}, {7, 5}, {64, 33}};
  for (const auto& shape : shapes) {
    const int64_t b = shape[0], s = shape[1];
    for (bool grid : {true, false}) {
      const uint64_t seed = static_cast<uint64_t>(b * 100 + s) * 2 + grid;
      nn::Variable pos(HashedTensor({b}, seed, grid), true);
      nn::Variable neg(HashedTensor({b, s}, seed + 1, grid), true);
      nn::Variable l = loss::SampledSoftmaxLoss(
          pos, neg, HashedLogMarginals(b, seed + 2),
          HashedLogMarginals(s, seed + 3));
      nn::Backward(l);
      d.Feed(l.value());
      d.Feed(pos.grad());
      d.Feed(neg.grad());
    }
  }
  return d.value();
}

// Feeds `out` and the gradient of sum(out * w) for hashed weights w.
void FeedForwardBackward(const nn::Variable& in, const nn::Variable& out,
                         uint64_t seed, Digest* d) {
  nn::Backward(nn::Sum(nn::Mul(
      out, nn::Constant(HashedTensor(out.shape(), seed, /*grid=*/false)))));
  d->Feed(out.value());
  d->Feed(in.grad());
}

// Both masked softmax ops, forward and backward, with rows of length 0, 1,
// partial and full.
uint64_t MaskedDigest() {
  Digest d;
  for (bool grid : {true, false}) {
    const uint64_t seed = grid ? 11 : 12;
    nn::Variable seq(HashedTensor({6, 5}, seed, grid), true);
    FeedForwardBackward(
        seq, nn::MaskedSoftmaxSeq(seq, {0, 1, 3, 5, 2, 5}), seed + 1, &d);
    nn::Variable last(HashedTensor({5, 3, 4}, seed + 2, grid), true);
    FeedForwardBackward(
        last, nn::MaskedSoftmaxLastDim(last, {0, 1, 2, 4, 3}), seed + 3, &d);
  }
  return d.value();
}

struct Env {
  data::DatasetSplits splits;

  Env() {
    data::SyntheticConfig cfg;
    cfg.num_users = 300;
    cfg.num_items = 80;
    cfg.num_months = 4;
    cfg.target_interactions = 4000;
    cfg.seed = 47;
    splits = data::MakeSplits(data::GenerateSynthetic(cfg),
                              data::SplitConfig{});
  }
};

const Env& env() {
  static const Env* e = new Env();
  return *e;
}

// Epoch-loss and item-embedding bits after two epochs over every training
// sample.
uint64_t TrainingDigest(model::ContextExtractor extractor,
                        model::Aggregator aggregator, LossKind kind,
                        int num_threads) {
  model::TwoTowerConfig mc;
  mc.num_items = 80;
  mc.embedding_dim = 8;
  mc.temperature = 0.2f;
  mc.extractor = extractor;
  mc.aggregator = aggregator;
  model::TwoTowerModel model(mc);
  train::TrainConfig tc;
  tc.loss = kind;
  tc.batch_size = 64;
  tc.seed = 12;
  tc.num_threads = num_threads;
  train::Trainer trainer(&model, &env().splits, tc);
  const auto all = env().splits.train.AllIndices();
  Digest d;
  for (int e = 0; e < 2; ++e) {
    EXPECT_TRUE(trainer.TrainIndices(all, 1).ok());
    d.Feed(trainer.last_epoch_loss());
  }
  d.Feed(model.InferItemEmbeddings());
  return d.value();
}

// Neither the losses nor the masked ops reach a vectorized kernel, so one
// digest serves both backends.
struct NceCase {
  LossKind kind;
  uint64_t digest;
};

constexpr NceCase kNceCases[] = {
    {LossKind::kInfoNce, 0xC9B21972CD44B31EULL},
    {LossKind::kSimClr, 0x3E5F7791E39A867DULL},
    {LossKind::kRowBcNce, 0xF9BD7E1C3684656BULL},
    {LossKind::kColBcNce, 0x24787F10D66E0E22ULL},
    {LossKind::kBbcNce, 0xEF822E22A300C43EULL},
};

constexpr uint64_t kSsmDigest = 0x888DCE85A1B22411ULL;
constexpr uint64_t kMaskedDigest = 0xE645D28F45717F25ULL;

// Training runs the towers' matmuls and dot products, whose AVX2 forms
// reassociate their sums, so each backend has its own digest.
struct TrainingCase {
  const char* name;
  model::ContextExtractor extractor;
  model::Aggregator aggregator;
  LossKind kind;
  uint64_t portable;
  uint64_t avx2;
};

constexpr TrainingCase kTrainingCases[] = {
    {"bbcNCE base tower", model::ContextExtractor::kNone,
     model::Aggregator::kMean, LossKind::kBbcNce, 0x214C0A215A3F407CULL,
     0x2A7F2F3BC6EED81FULL},
    {"SSM base tower", model::ContextExtractor::kNone,
     model::Aggregator::kMean, LossKind::kSsm, 0xB1E7BCAF1592964EULL,
     0x42AE459C756C9441ULL},
    {"transformer + attention bbcNCE", model::ContextExtractor::kTransformer,
     model::Aggregator::kAttention, LossKind::kBbcNce, 0x03C2F0A50C1B7044ULL,
     0x64F9DD3F267F1965ULL},
};

class SoftmaxDigestTest : public digest_testing::BackendDigestTest {};

TEST_P(SoftmaxDigestTest, LossesMatchRecordedBits) {
  ThreadPool pool(2);
  for (ThreadPool* region_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(region_pool == nullptr ? "no region" : "2-thread region");
    ScopedParallelRegion region(region_pool);
    for (const NceCase& c : kNceCases) {
      SCOPED_TRACE(loss::LossKindToString(c.kind));
      ExpectDigest(NceDigest(c.kind), c.digest);
    }
    SCOPED_TRACE("SSM");
    ExpectDigest(SsmDigest(), kSsmDigest);
  }
}

TEST_P(SoftmaxDigestTest, MaskedSoftmaxOpsMatchRecordedBits) {
  ExpectDigest(MaskedDigest(), kMaskedDigest);
}

TEST_P(SoftmaxDigestTest, TrainingMatchesRecordedBits) {
  for (const TrainingCase& c : kTrainingCases) {
    for (int num_threads : {1, 2}) {
      SCOPED_TRACE(testing::Message() << c.name << ", " << num_threads
                                      << " threads");
      ExpectDigest(
          TrainingDigest(c.extractor, c.aggregator, c.kind, num_threads),
          ForBackend(c.portable, c.avx2));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SoftmaxDigestTest,
                         ::testing::Values(Backend::kPortable,
                                           Backend::kAvx2),
                         digest_testing::BackendParamName);

}  // namespace
}  // namespace unimatch

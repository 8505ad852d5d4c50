// Allocation gate for the training hot path. Before the pooled storage,
// every tensor buffer a step acquired was a heap allocation, so pool
// acquires per step count the allocations the pool saves, and pool misses
// per step count the heap allocations left. Pool counters are
// deterministic deltas, not timings, so the ratio is a hard bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/data/synthetic.h"
#include "src/tensor/storage.h"
#include "src/train/trainer.h"

namespace unimatch::train {
namespace {

// The books preset scaled to 450 users and 5,000 interactions, trained with
// bbcNCE at batch 64 on a 16-d mean-pooling model.
TEST(TrainerAllocationTest, SteadyStateStepsAcquireTenTimesMoreThanTheyAllocate) {
  Result<data::SyntheticConfig> cfg = data::PresetByName("books");
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  cfg->num_users = 450;
  cfg->target_interactions = 5000;
  const data::InteractionLog log = data::GenerateSynthetic(*cfg);
  data::SplitConfig split;
  split.window.max_seq_len = 20;
  const data::DatasetSplits splits = data::MakeSplits(log, split);

  model::TwoTowerConfig mc;
  mc.num_items = log.num_items();
  mc.embedding_dim = 16;
  mc.extractor = model::ContextExtractor::kNone;
  mc.aggregator = model::Aggregator::kMean;
  mc.temperature = 0.1667f;
  model::TwoTowerModel model(mc);
  TrainConfig tc;
  tc.loss = loss::LossKind::kBbcNce;
  tc.batch_size = 64;
  Trainer trainer(&model, &splits, tc);
  const std::vector<int64_t> indices =
      splits.train.IndicesOfMonthRange(0, splits.test_month - 1);
  ASSERT_FALSE(indices.empty());

  // The warm-up epoch parks a buffer of every hot-path size class.
  ASSERT_TRUE(trainer.TrainIndices(indices, 1).ok());
  BufferPool* pool = BufferPool::Global();
  const BufferPool::Stats before = pool->stats();
  const int64_t steps_before = trainer.total_steps();
  ASSERT_TRUE(trainer.TrainIndices(indices, 1).ok());
  const BufferPool::Stats after = pool->stats();
  const int64_t steps = trainer.total_steps() - steps_before;
  ASSERT_GT(steps, 0);

  const double acquires_per_step =
      static_cast<double>(after.acquires - before.acquires) / steps;
  const double heap_allocs_per_step =
      static_cast<double>(after.misses - before.misses) / steps;
  // An allocation-free steady state counts as one heap allocation in the
  // whole epoch, so the ratio stays finite.
  const double ratio =
      acquires_per_step /
      std::max(heap_allocs_per_step, 1.0 / static_cast<double>(steps));
  EXPECT_GE(ratio, 10.0) << acquires_per_step << " pool acquires/step, "
                         << heap_allocs_per_step << " heap allocs/step over "
                         << steps << " steps";
}

}  // namespace
}  // namespace unimatch::train

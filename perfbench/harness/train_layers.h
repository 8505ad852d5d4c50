// The traced training run. Trainer::TrainMonths is one call, so this
// re-drives the same steps (same config, data and seed) through each
// layer's public call, with a span around each one.

#ifndef PERFBENCH_HARNESS_TRAIN_LAYERS_H_
#define PERFBENCH_HARNESS_TRAIN_LAYERS_H_

#include <memory>

#include "harness/trace.h"
#include "src/data/splits.h"
#include "src/model/two_tower.h"
#include "src/train/trainer.h"

namespace perfbench {

struct TrainLayers {
  int64_t steps = 0;
  int64_t records = 0;
  int64_t failed_steps = 0;     // non-finite loss
  double seconds = 0.0;         // wall time of the re-driven months
  bool all_months = false;      // false when the time budget cut it short
  double item_grad_rows = 0.0;  // rows of the item-table gradient
  double pool_acquires_per_step = 0.0;
  double prefetch_hit_pct = 0.0;
  std::unique_ptr<unimatch::model::TwoTowerModel> model;
};

/// Trains a fresh model month by month over [0, test_month) the way
/// Trainer does with num_threads > 1 (sharded user tower, prefetched
/// batches, ScopedParallelRegion on the encoder's pool), stopping after the
/// month in which `budget_s` runs out. Spans: train.step, data.batch_wait,
/// model.user_tower, model.item_tower, loss.forward, nn.backward,
/// train.shard_backward, nn.optimizer.
TrainLayers RunTracedTraining(const unimatch::data::DatasetSplits& splits,
                              const unimatch::model::TwoTowerConfig& model_config,
                              const unimatch::train::TrainConfig& train_config,
                              double budget_s, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRAIN_LAYERS_H_

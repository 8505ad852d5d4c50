// Training driver: wires batches, the selected loss, the optimizer, and the
// paper's month-by-month incremental schedule.

#ifndef UNIMATCH_TRAIN_TRAINER_H_
#define UNIMATCH_TRAIN_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/data/negative_sampler.h"
#include "src/data/splits.h"
#include "src/loss/losses.h"
#include "src/model/two_tower.h"
#include "src/nn/optimizer.h"

namespace unimatch {
class ThreadPool;
}  // namespace unimatch

namespace unimatch::train {

struct TrainConfig {
  loss::LossKind loss = loss::LossKind::kBbcNce;
  /// Only used when loss == kBce (Table I strategies).
  data::NegSampling bce_sampling = data::NegSampling::kUniform;
  /// "sgd" | "adagrad" | "adam".
  std::string optimizer = "adam";
  float learning_rate = 0.005f;
  int batch_size = 64;
  /// Paper Table VII: multinomial losses converge in 2-3 epochs, BCE needs
  /// 6-10.
  int epochs_per_month = 2;
  /// Global gradient-norm clip (<= 0 disables).
  float grad_clip = 5.0f;
  /// Multiplies the learning rate after each trained month (1 = constant).
  /// Useful for long incremental schedules where late months should nudge,
  /// not overwrite, the model.
  float lr_decay_per_month = 1.0f;
  /// Shared sampled negatives per batch for SSM.
  int ssm_num_negatives = 100;
  /// Training threads (>= 1). N > 1 prefetches batches on a background
  /// thread and runs row-local loops on an N-thread pool. Results are
  /// bitwise those of N = 1 for every tower, loss and dropout setting.
  int num_threads = 1;
  uint64_t seed = 99;
  bool verbose = false;
};

class Trainer {
 public:
  /// `model` and `splits` must outlive the trainer.
  Trainer(model::TwoTowerModel* model, const data::DatasetSplits* splits,
          TrainConfig config);
  ~Trainer();

  /// Incremental training: feeds each target month in [first, last]
  /// chronologically, `epochs_per_month` epochs each (Sec. III-B3).
  Status TrainMonths(int32_t first_month, int32_t last_month);

  /// One month of the incremental schedule.
  Status TrainMonth(int32_t month);

  /// Non-incremental baseline: all given sample indices shuffled, for
  /// `epochs` epochs.
  Status TrainIndices(const std::vector<int64_t>& indices, int epochs);

  /// Trains up to `max_epochs`, calling `validation_metric` (higher =
  /// better) after each epoch; stops after `patience` epochs without an
  /// improvement of at least `min_delta` and restores the best parameters.
  /// Returns the number of epochs actually run via `epochs_run` (optional).
  Status TrainWithEarlyStopping(
      const std::vector<int64_t>& indices, int max_epochs, int patience,
      const std::function<double()>& validation_metric,
      double min_delta = 0.0, int* epochs_run = nullptr);

  double last_epoch_loss() const { return last_epoch_loss_; }
  int64_t total_steps() const { return total_steps_; }
  /// Forward-pass records consumed (BCE counts its sampled negatives, which
  /// is the paper's 2x data multiplier).
  int64_t records_processed() const { return records_processed_; }

  const TrainConfig& config() const { return config_; }

 private:
  Status RunEpoch(const std::vector<int64_t>& indices);
  void EnsureBceSampler();
  void EnsureSsmSampler();

  model::TwoTowerModel* model_;
  const data::DatasetSplits* splits_;
  TrainConfig config_;
  Rng rng_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  std::unique_ptr<data::BceNegativeSampler> bce_sampler_;
  /// The step's ScopedParallelRegion pool; null when num_threads is 1.
  std::unique_ptr<ThreadPool> step_pool_;

  // SSM proposal distribution (item unigram over training targets).
  AliasSampler ssm_sampler_;
  std::vector<data::ItemId> ssm_items_;
  std::vector<float> ssm_log_q_;  // aligned with ssm_items_

  double last_epoch_loss_ = 0.0;
  int64_t total_steps_ = 0;
  int64_t records_processed_ = 0;
};

}  // namespace unimatch::train

#endif  // UNIMATCH_TRAIN_TRAINER_H_

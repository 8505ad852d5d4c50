#include "src/train/trainer.h"

#include <cmath>

#include "src/data/batcher.h"
#include "src/data/prefetcher.h"
#include "src/nn/serialize.h"
#include "src/obs/obs.h"
#include "src/tensor/storage.h"
#include "src/util/contract.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/threadpool.h"

namespace unimatch::train {

Trainer::Trainer(model::TwoTowerModel* model,
                 const data::DatasetSplits* splits, TrainConfig config)
    : model_(model),
      splits_(splits),
      config_(std::move(config)),
      rng_(config_.seed) {
  UM_CONTRACT(config_.num_threads >= 1)
      << "num_threads must be >= 1, got " << config_.num_threads;
  optimizer_ = nn::MakeOptimizer(config_.optimizer, model_->Parameters(),
                                 config_.learning_rate);
  UM_CHECK(optimizer_ != nullptr)
      << "unknown optimizer: " << config_.optimizer;
  if (config_.num_threads > 1) {
    step_pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
}

Trainer::~Trainer() = default;

void Trainer::EnsureBceSampler() {
  if (bce_sampler_) return;
  // Canonical pseudo-users as of the end of the training window.
  bce_sampler_ = std::make_unique<data::BceNegativeSampler>(
      splits_->train, splits_->train_marginals, splits_->histories,
      config_.bce_sampling);
}

void Trainer::EnsureSsmSampler() {
  if (!ssm_items_.empty()) return;
  const auto& marg = splits_->train_marginals;
  std::vector<double> freq;
  double total = 0.0;
  for (data::ItemId i = 0; i < marg.num_items(); ++i) {
    if (marg.item_count(i) > 0) {
      ssm_items_.push_back(i);
      freq.push_back(static_cast<double>(marg.item_count(i)));
      total += freq.back();
    }
  }
  UM_CHECK(!ssm_items_.empty());
  ssm_sampler_.Build(freq);
  ssm_log_q_.resize(ssm_items_.size());
  for (size_t k = 0; k < ssm_items_.size(); ++k) {
    ssm_log_q_[k] = static_cast<float>(std::log(freq[k] / total));
  }
}

Status Trainer::TrainMonths(int32_t first_month, int32_t last_month) {
  for (int32_t mo = first_month; mo <= last_month; ++mo) {
    UNIMATCH_RETURN_IF_ERROR(TrainMonth(mo));
  }
  return Status::OK();
}

Status Trainer::TrainMonth(int32_t month) {
  const auto indices = splits_->train.IndicesOfMonth(month);
  if (indices.empty()) return Status::OK();
  UM_TRACE_SPAN("train.month");
  UM_SCOPED_TIMER("train.month.ms");
  UM_COUNTER_INC("train.months");
  UM_GAUGE_SET("train.month.last", month);
  UNIMATCH_RETURN_IF_ERROR(TrainIndices(indices, config_.epochs_per_month));
  if (config_.lr_decay_per_month != 1.0f) {
    optimizer_->SetLearningRate(optimizer_->learning_rate() *
                                config_.lr_decay_per_month);
  }
  return Status::OK();
}

Status Trainer::TrainIndices(const std::vector<int64_t>& indices,
                             int epochs) {
  if (indices.empty()) {
    return Status::InvalidArgument("no training samples given");
  }
  for (int e = 0; e < epochs; ++e) {
    UNIMATCH_RETURN_IF_ERROR(RunEpoch(indices));
    if (config_.verbose) {
      UM_LOG(INFO) << loss::LossKindToString(config_.loss) << " epoch "
                   << (e + 1) << "/" << epochs << " over " << indices.size()
                   << " samples, avg loss " << last_epoch_loss_;
    }
  }
  return Status::OK();
}

Status Trainer::TrainWithEarlyStopping(
    const std::vector<int64_t>& indices, int max_epochs, int patience,
    const std::function<double()>& validation_metric, double min_delta,
    int* epochs_run) {
  if (indices.empty()) {
    return Status::InvalidArgument("no training samples given");
  }
  UM_CHECK_GE(patience, 1);
  auto params = model_->Parameters();
  double best = validation_metric();
  auto best_snapshot = nn::SnapshotParameters(params);
  int since_best = 0;
  int epoch = 0;
  for (; epoch < max_epochs; ++epoch) {
    UNIMATCH_RETURN_IF_ERROR(RunEpoch(indices));
    const double metric = validation_metric();
    if (metric > best + min_delta) {
      best = metric;
      best_snapshot = nn::SnapshotParameters(params);
      since_best = 0;
    } else if (++since_best >= patience) {
      ++epoch;
      break;
    }
  }
  if (epochs_run != nullptr) *epochs_run = epoch;
  return nn::RestoreParameters(best_snapshot, &params);
}

Status Trainer::RunEpoch(const std::vector<int64_t>& indices) {
  UM_TRACE_SPAN("train.epoch");
  UM_SCOPED_TIMER("train.epoch.ms");
  UM_COUNTER_INC("train.epochs");
  const int max_len = splits_->config.window.max_seq_len;
  const bool bce = config_.loss == loss::LossKind::kBce;
  const bool ssm = config_.loss == loss::LossKind::kSsm;
  [[maybe_unused]] const int64_t records_before = records_processed_;
  double loss_sum = 0.0;
  int64_t loss_count = 0;
  [[maybe_unused]] const BufferPool::Stats pool_before =
      BufferPool::Global()->stats();

  const bool parallel = step_pool_ != nullptr;
  // Routes the row-local op loops (softmax, normalize, optimizer updates)
  // through the step pool for the duration of the epoch. A null region is
  // the plain serial behavior; either way every loop is bitwise the same.
  ScopedParallelRegion region(step_pool_.get());
  if (parallel) {
    UM_GAUGE_SET("train.pipeline.threads", config_.num_threads);
  }
  if (bce) EnsureBceSampler();
  if (ssm) EnsureSsmSampler();

  // One shuffled pass over the indices; the shuffle is the iterator's only
  // draw from rng_.
  data::BatchIterator it(&splits_->train, &splits_->train_marginals, indices,
                         config_.batch_size, max_len, &rng_);
  // BCE doubles each chunk with freshly drawn negatives (1:1 per the
  // paper) and labels the rows; the in-batch losses take the chunk as is.
  auto produce = [&](data::Batch* b, Tensor* labels) {
    if (!it.NextChunk()) return false;
    if (bce) {
      data::AssembleBceBatchInto(splits_->train, it.chunk(),
                                 splits_->train_marginals, max_len,
                                 *bce_sampler_, &rng_, b, labels);
    } else {
      data::AssembleBatchInto(splits_->train, it.chunk(),
                              splits_->train_marginals, max_len, b);
    }
    return true;
  };
  // A prefetched batch is produced on a background thread while the step
  // runs, so the two must not share rng_. Only BCE's producer draws from
  // it, and only dropout draws from it in BCE's step. num_threads = 1
  // starts no thread.
  std::unique_ptr<data::BatchPrefetcher> prefetch;
  if (parallel && !(bce && model_->config().dropout != 0.0f)) {
    prefetch = std::make_unique<data::BatchPrefetcher>(produce);
  }

  // SSM's per-step workspace, reused across every step of the epoch:
  // steady state allocates nothing here (the last, smaller batch reshapes
  // once).
  const int s = config_.ssm_num_negatives;
  std::vector<int64_t> neg_ids(ssm ? s : 0);
  Tensor log_q_neg = ssm ? Tensor::Empty({s}) : Tensor();
  Tensor log_q_pos;
  data::Batch batch;
  Tensor labels;
  while (prefetch ? prefetch->Next(&batch, &labels)
                  : produce(&batch, &labels)) {
    UM_SCOPED_TIMER("train.step.ms");
    nn::Variable users =
        model_->EncodeUsers(batch.history_ids, batch.lengths, &rng_);
    nn::Variable items = model_->EncodeItems(batch.targets);
    nn::Variable loss_var;
    if (bce) {
      loss_var = loss::BceLoss(model_->ScorePairs(users, items), labels);
      records_processed_ += batch.batch_size;
    } else if (ssm) {
      for (int k = 0; k < s; ++k) {
        const int64_t slot = ssm_sampler_.Sample(&rng_);
        neg_ids[k] = ssm_items_[slot];
        log_q_neg.at(k) = ssm_log_q_[slot];
      }
      if (log_q_pos.numel() != batch.batch_size || log_q_pos.rank() != 1) {
        log_q_pos = Tensor::Empty({batch.batch_size});
      }
      for (int64_t r = 0; r < batch.batch_size; ++r) {
        // The positive's proposal probability under the unigram q is its
        // empirical marginal.
        log_q_pos.at(r) = batch.log_pi.at(r);
      }
      nn::Variable neg_items = model_->EncodeItems(neg_ids);
      nn::Variable pos_scores = model_->ScorePairs(users, items);
      nn::Variable neg_scores = model_->ScoreMatrix(users, neg_items);
      loss_var = loss::SampledSoftmaxLoss(pos_scores, neg_scores, log_q_pos,
                                          log_q_neg);
      records_processed_ += batch.batch_size + s;
    } else {
      nn::Variable scores = model_->ScoreMatrix(users, items);
      loss_var = loss::NceFamilyLoss(scores, batch.log_pu, batch.log_pi,
                                     loss::SettingsFor(config_.loss));
      records_processed_ += batch.batch_size;
    }
    UM_CHECK_FINITE(loss_var.value())
        << loss::LossKindToString(config_.loss) << " loss at step "
        << total_steps_;
    nn::Backward(loss_var);
    if (config_.grad_clip > 0.0f) {
      optimizer_->ClipGradNorm(config_.grad_clip);
    }
    optimizer_->Step();
    optimizer_->ZeroGrad();
    loss_sum += loss_var.value().item();
    ++loss_count;
    ++total_steps_;
  }
  last_epoch_loss_ = loss_count > 0 ? loss_sum / loss_count : 0.0;
  UM_COUNTER_ADD("train.steps", loss_count);
  UM_COUNTER_ADD("train.records", records_processed_ - records_before);
  UM_GAUGE_SET("train.epoch.loss", last_epoch_loss_);
  if (loss_count > 0) {
    // Allocation pressure of this epoch, normalized per step: pool acquires
    // approximate what the pre-pool code paid in heap allocations; misses
    // are the allocations that actually reached the heap.
    [[maybe_unused]] const BufferPool::Stats pool_after =
        BufferPool::Global()->stats();
    UM_GAUGE_SET("train.pool.acquires_per_step",
                 static_cast<double>(pool_after.acquires -
                                     pool_before.acquires) /
                     static_cast<double>(loss_count));
    UM_GAUGE_SET("train.pool.heap_allocs_per_step",
                 static_cast<double>(pool_after.misses - pool_before.misses) /
                     static_cast<double>(loss_count));
  }
  return Status::OK();
}

}  // namespace unimatch::train

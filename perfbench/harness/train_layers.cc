#include "harness/train_layers.h"

#include <cmath>

#include "src/data/batcher.h"
#include "src/data/prefetcher.h"
#include "src/loss/losses.h"
#include "src/nn/optimizer.h"
#include "src/obs/metrics.h"
#include "src/tensor/storage.h"
#include "src/train/parallel_step.h"
#include "src/util/contract.h"
#include "src/util/parallel.h"

namespace perfbench {

namespace um = unimatch;

namespace {

int64_t CounterValue(const char* name) {
  const um::obs::Counter* c = um::obs::MetricRegistry::Global()->FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

}  // namespace

TrainLayers RunTracedTraining(const um::data::DatasetSplits& splits,
                              const um::model::TwoTowerConfig& model_config,
                              const um::train::TrainConfig& tc,
                              double budget_s, Tracer* tracer) {
  UM_CHECK(um::loss::IsMultinomialLoss(tc.loss) &&
           tc.loss != um::loss::LossKind::kSsm)
      << "the traced step mirrors the in-batch NCE-family path";
  UM_CHECK_GT(tc.num_threads, 1) << "the traced step mirrors the sharded path";
  TrainLayers out;
  out.model = std::make_unique<um::model::TwoTowerModel>(model_config);
  um::model::TwoTowerModel& model = *out.model;
  auto optimizer = um::nn::MakeOptimizer(tc.optimizer, model.Parameters(),
                                         tc.learning_rate);
  um::Rng rng(tc.seed);
  um::train::ShardedUserEncoder encoder(&model, tc.num_threads);
  const um::nn::Variable* item_table = nullptr;
  const auto params = model.Parameters();
  for (const auto& p : params) {
    if (p.name == "item_embeddings") item_table = &p.variable;
  }
  UM_CHECK(item_table != nullptr);
  const um::loss::NceSettings settings = um::loss::SettingsFor(tc.loss);
  const int max_len = splits.config.window.max_seq_len;

  const int64_t hits0 = CounterValue("train.pipeline.prefetch_hit");
  const int64_t misses0 = CounterValue("train.pipeline.prefetch_miss");
  const int64_t acquires0 = um::BufferPool::Global()->stats().acquires;
  double grad_rows_sum = 0.0;
  const Clock::time_point start = Clock::now();
  out.all_months = true;
  for (int32_t month = 0; month < splits.test_month; ++month) {
    if (MsBetween(start, Clock::now()) > 1000.0 * budget_s) {
      out.all_months = false;
      break;
    }
    const auto indices = splits.train.IndicesOfMonth(month);
    if (indices.empty()) continue;
    for (int epoch = 0; epoch < tc.epochs_per_month; ++epoch) {
      um::ScopedParallelRegion region(encoder.pool());
      um::data::BatchIterator it(&splits.train, &splits.train_marginals,
                                 indices, tc.batch_size, max_len, &rng);
      um::data::BatchPrefetcher prefetch(
          [&it](um::data::Batch* b, um::Tensor* /*labels*/) {
            return it.Next(b);
          });
      um::data::Batch batch;
      for (;;) {
        const Clock::time_point step_start = Clock::now();
        bool more = false;
        {
          ScopedSpan span(tracer, "data.batch_wait");
          more = prefetch.Next(&batch);
        }
        if (!more) break;
        um::nn::Variable users;
        {
          ScopedSpan span(tracer, "model.user_tower");
          users = encoder.Encode(batch.history_ids, batch.lengths, &rng);
        }
        um::nn::Variable items;
        {
          ScopedSpan span(tracer, "model.item_tower");
          items = model.EncodeItems(batch.targets);
        }
        um::nn::Variable loss;
        {
          ScopedSpan span(tracer, "loss.forward");
          const um::nn::Variable scores = model.ScoreMatrix(users, items);
          loss = um::loss::NceFamilyLoss(scores, batch.log_pu, batch.log_pi,
                                         settings);
        }
        if (!std::isfinite(loss.value().item())) ++out.failed_steps;
        {
          ScopedSpan span(tracer, "nn.backward");
          um::nn::Backward(loss);
        }
        {
          ScopedSpan span(tracer, "train.shard_backward");
          encoder.FinishBackward();
        }
        if (item_table->grad_defined()) {
          grad_rows_sum += static_cast<double>(item_table->grad().dim(0));
        }
        {
          ScopedSpan span(tracer, "nn.optimizer");
          if (tc.grad_clip > 0.0f) optimizer->ClipGradNorm(tc.grad_clip);
          optimizer->Step();
          optimizer->ZeroGrad();
        }
        tracer->Record("train.step", step_start, Clock::now());
        ++out.steps;
        out.records += batch.batch_size;
      }
    }
  }
  out.seconds = MsBetween(start, Clock::now()) / 1000.0;
  if (out.steps > 0) {
    const auto steps = static_cast<double>(out.steps);
    out.item_grad_rows = grad_rows_sum / steps;
    out.pool_acquires_per_step =
        static_cast<double>(um::BufferPool::Global()->stats().acquires -
                            acquires0) /
        steps;
    const int64_t hits = CounterValue("train.pipeline.prefetch_hit") - hits0;
    const int64_t misses =
        CounterValue("train.pipeline.prefetch_miss") - misses0;
    if (hits + misses > 0) {
      out.prefetch_hit_pct = 100.0 * static_cast<double>(hits) /
                             static_cast<double>(hits + misses);
    }
  }
  return out;
}

}  // namespace perfbench

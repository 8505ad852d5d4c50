// Allocation-pressure benchmark for the training hot path.
//
// Measures how many buffers a steady-state training step acquires from the
// tensor BufferPool and how many of those acquisitions actually reach the
// heap (pool misses). Before the pooled-storage refactor every acquire WAS
// a heap allocation (each Tensor constructed a fresh std::vector<float>),
// so acquires/step is the pre-refactor allocation counter and misses/step
// is the post-refactor one; their ratio is the headline reduction factor.
//
// Writes BENCH_alloc.json (working directory, or UNIMATCH_METRICS_DIR):
//
// {
//   "bench": "alloc",
//   "smoke": false,
//   "loss": "bbcNCE",
//   "steps": 420,
//   "acquires_per_step": 913.2,     // == pre-refactor heap allocs/step
//   "heap_allocs_per_step": 0.4,    // pool misses/step after warmup
//   "pool_hit_rate": 0.9995,
//   "reduction_factor": 2283.0,     // acquires / max(misses, 1 buffer)
//   "step_ms_mean": 1.84,           // steady-state step latency
//   "batcher_acquires_per_batch": 0.0,    // AssembleBatchInto reuse epoch
//   "batcher_heap_allocs_per_batch": 0.0,
//   "pool_bytes_live": 1234567,
//   "pool_bytes_pooled": 7654321
// }
//
// Set UNIMATCH_BENCH_SMOKE=1 for the CI-sized run (scale 0.05, one epoch of
// measurement); see docs/PERFORMANCE.md for how the numbers are gated.

#include <cstdlib>
#include <sstream>
#include <string>

#include "bench/common.h"
#include "src/data/batcher.h"
#include "src/tensor/storage.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace unimatch {
namespace {

int Run(int argc, char** argv) {
  const bool smoke = bench::SmokeMode();
  double scale = bench::ParseScale(argc, argv);
  if (smoke) scale = std::min(scale, 0.05);

  auto env = bench::MakeEnv("books", scale);
  const loss::LossKind loss = loss::LossKind::kBbcNce;
  const bench::Hyperparams hp = bench::HyperparamsFor(env->name, true);
  train::TrainConfig tc;
  tc.loss = loss;
  tc.batch_size = hp.batch_size;
  tc.epochs_per_month = hp.epochs;
  model::TwoTowerConfig mc = bench::DefaultModelConfig(*env, true);
  model::TwoTowerModel model(mc);
  train::Trainer trainer(&model, &env->splits, tc);

  const auto train_indices =
      env->splits.train.IndicesOfMonthRange(0, env->splits.test_month - 1);
  UM_CHECK(!train_indices.empty());

  // Warmup epoch: builds the graph shapes once so the pool's free lists
  // hold every hot-path size class before measurement starts.
  Status st = trainer.TrainIndices(train_indices, 1);
  UM_CHECK(st.ok()) << st.ToString();

  BufferPool* pool = BufferPool::Global();
  const BufferPool::Stats before = pool->stats();
  const int64_t steps_before = trainer.total_steps();
  const int epochs = smoke ? 1 : 3;
  WallTimer timer;
  st = trainer.TrainIndices(train_indices, epochs);
  const double elapsed_ms = timer.ElapsedMillis();
  UM_CHECK(st.ok()) << st.ToString();
  const BufferPool::Stats after = pool->stats();
  const int64_t steps = trainer.total_steps() - steps_before;
  UM_CHECK_GT(steps, 0);

  const double acquires_per_step =
      static_cast<double>(after.acquires - before.acquires) / steps;
  const double misses_per_step =
      static_cast<double>(after.misses - before.misses) / steps;
  const double hit_rate =
      after.acquires == before.acquires
          ? 0.0
          : static_cast<double>(after.hits - before.hits) /
                static_cast<double>(after.acquires - before.acquires);
  // Guard against a perfectly allocation-free steady state: credit at most
  // one heap allocation per measured run so the ratio stays finite.
  const double reduction =
      acquires_per_step /
      std::max(misses_per_step, 1.0 / static_cast<double>(steps));
  const double step_ms_mean = elapsed_ms / static_cast<double>(steps);

  // Batch-assembly workspace reuse, measured in isolation: AssembleBatchInto
  // overwrites one Batch in place, so steady-state epochs should acquire
  // (almost) no pool buffers per batch, where the value-returning
  // AssembleBatch path acquires fresh tensors every time.
  const int max_len = env->splits.config.window.max_seq_len;
  Rng batch_rng(7);
  data::BatchIterator it(&env->splits.train, &env->splits.train_marginals,
                         train_indices, tc.batch_size, max_len, &batch_rng);
  data::Batch reuse_batch;
  // One warmup epoch sizes the workspace; then measure a full reused epoch.
  int64_t batches = 0;
  while (it.Next(&reuse_batch)) ++batches;
  UM_CHECK_GT(batches, 0);
  it.Reset();
  const BufferPool::Stats reuse_before = pool->stats();
  while (it.Next(&reuse_batch)) {
  }
  const BufferPool::Stats reuse_after = pool->stats();
  const double batcher_acquires_per_batch =
      static_cast<double>(reuse_after.acquires - reuse_before.acquires) /
      static_cast<double>(batches);
  const double batcher_heap_allocs_per_batch =
      static_cast<double>(reuse_after.misses - reuse_before.misses) /
      static_cast<double>(batches);

  std::string dir = ".";
  if (const char* d = std::getenv("UNIMATCH_METRICS_DIR")) {
    if (d[0] != '\0') dir = d;
  }
  const std::string path = dir + "/BENCH_alloc.json";
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"alloc\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"loss\": \""
      << bench::JsonEscape(loss::LossKindToString(loss)) << "\",\n"
      << "  \"steps\": " << steps << ",\n"
      << "  \"acquires_per_step\": " << acquires_per_step << ",\n"
      << "  \"heap_allocs_per_step\": " << misses_per_step << ",\n"
      << "  \"pool_hit_rate\": " << hit_rate << ",\n"
      << "  \"reduction_factor\": " << reduction << ",\n"
      << "  \"step_ms_mean\": " << step_ms_mean << ",\n"
      << "  \"batcher_acquires_per_batch\": " << batcher_acquires_per_batch
      << ",\n"
      << "  \"batcher_heap_allocs_per_batch\": "
      << batcher_heap_allocs_per_batch << ",\n"
      << "  \"pool_bytes_live\": " << after.bytes_live << ",\n"
      << "  \"pool_bytes_pooled\": " << after.bytes_pooled << "\n"
      << "}\n";
  if (const Status wst = bench::WriteFileAtomic(path, out.str()); !wst.ok()) {
    UM_LOG(WARNING) << "cannot write " << path << ": " << wst.ToString();
    return 1;
  }
  UM_LOG(INFO) << "BENCH_alloc: " << steps << " steps, "
               << acquires_per_step << " pool acquires/step, "
               << misses_per_step << " heap allocs/step ("
               << reduction << "x reduction), step "
               << step_ms_mean << " ms";
  return 0;
}

}  // namespace
}  // namespace unimatch

int main(int argc, char** argv) {
  unimatch::bench::MetricsDumper metrics_dumper("alloc");
  return unimatch::Run(argc, argv);
}

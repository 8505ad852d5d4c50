// Parallel-pipeline benchmark: serial vs multi-threaded training epochs.
//
// Trains the same model configuration from the same seed once per thread
// count and reports epoch wall-clock, speedup over the serial run, and —
// the hard gate — metric parity: the default backbone (no context
// extractor, no dropout) must produce bit-identical training losses and
// evaluation metrics at every thread count, because the sharded step's
// partition and reduction order are thread-count independent. A parity
// mismatch exits non-zero; speedup is recorded but never gated, since CI
// runners (and this container) may expose a single core.
//
// Writes BENCH_train_pipeline.json (working directory, or
// UNIMATCH_METRICS_DIR):
//
// {
//   "bench": "train_pipeline",
//   "smoke": false,
//   "loss": "bbcNCE",
//   "epochs": 2,
//   "batch_size": 256,
//   "hardware_concurrency": 8,
//   "parity_ok": true,
//   "runs": [
//     {"threads": 1, "epoch_ms": 812.0, "speedup": 1.0, "parity": true,
//      "final_loss": 1.9731, "ir_ndcg": 0.4211, "ut_ndcg": 0.3987,
//      "prefetch_hit_rate": 0.0},
//     ...
//   ]
// }
//
// Set UNIMATCH_BENCH_SMOKE=1 for the CI-sized run (scale 0.05, one epoch,
// thread counts {1, 2, 4}); see docs/PERFORMANCE.md section 7.

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace unimatch {
namespace {

int64_t CounterValue(const char* name) {
  const obs::Counter* c = obs::MetricRegistry::Global()->FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

struct Run {
  int threads = 0;
  double epoch_ms = 0.0;
  double speedup = 1.0;
  bool parity = true;
  double final_loss = 0.0;
  double ir_ndcg = 0.0;
  double ir_recall = 0.0;
  double ut_ndcg = 0.0;
  double ut_recall = 0.0;
  double prefetch_hit_rate = 0.0;
};

int Main(int argc, char** argv) {
  const bool smoke = bench::SmokeMode();
  double scale = bench::ParseScale(argc, argv);
  if (smoke) scale = std::min(scale, 0.05);

  auto env = bench::MakeEnv("books", scale);
  const loss::LossKind loss = loss::LossKind::kBbcNce;
  const int epochs = smoke ? 1 : 2;
  const int batch_size = 256;
  // The default backbone has no context extractor and no dropout, so every
  // thread count must reproduce the serial run bit for bit.
  const model::TwoTowerConfig mc = bench::DefaultModelConfig(*env, true);

  const auto train_indices =
      env->splits.train.IndicesOfMonthRange(0, env->splits.test_month - 1);
  UM_CHECK(!train_indices.empty());

  std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  std::vector<Run> runs;
  for (int nt : thread_counts) {
    model::TwoTowerModel model(mc);
    train::TrainConfig tc;
    tc.loss = loss;
    tc.batch_size = batch_size;
    tc.seed = 4242;
    tc.num_threads = nt;
    train::Trainer trainer(&model, &env->splits, tc);

    const int64_t hits_before = CounterValue("train.pipeline.prefetch_hit");
    const int64_t misses_before = CounterValue("train.pipeline.prefetch_miss");
    WallTimer timer;
    const Status st = trainer.TrainIndices(train_indices, epochs);
    const double elapsed_ms = timer.ElapsedMillis();
    UM_CHECK(st.ok()) << st.ToString();
    const int64_t hits = CounterValue("train.pipeline.prefetch_hit") -
                         hits_before;
    const int64_t misses = CounterValue("train.pipeline.prefetch_miss") -
                           misses_before;

    const eval::EvalResult res = env->evaluator->Evaluate(model);
    Run run;
    run.threads = nt;
    run.epoch_ms = elapsed_ms / epochs;
    run.final_loss = trainer.last_epoch_loss();
    run.ir_ndcg = res.ir.ndcg;
    run.ir_recall = res.ir.recall;
    run.ut_ndcg = res.ut.ndcg;
    run.ut_recall = res.ut.recall;
    run.prefetch_hit_rate =
        (hits + misses) == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    runs.push_back(run);
  }

  bool parity_ok = true;
  const Run& serial = runs.front();
  for (Run& run : runs) {
    run.speedup = run.epoch_ms > 0.0 ? serial.epoch_ms / run.epoch_ms : 1.0;
    // Exact equality on purpose: these thread counts are specified to be
    // bitwise-identical for this model family, not merely close.
    run.parity = run.final_loss == serial.final_loss &&
                 run.ir_ndcg == serial.ir_ndcg &&
                 run.ir_recall == serial.ir_recall &&
                 run.ut_ndcg == serial.ut_ndcg &&
                 run.ut_recall == serial.ut_recall;
    parity_ok = parity_ok && run.parity;
    UM_LOG(INFO) << "threads=" << run.threads << " epoch_ms=" << run.epoch_ms
                 << " speedup=" << run.speedup
                 << " prefetch_hit_rate=" << run.prefetch_hit_rate
                 << (run.parity ? " parity=ok" : " parity=MISMATCH");
  }

  std::string dir = ".";
  if (const char* d = std::getenv("UNIMATCH_METRICS_DIR")) {
    if (d[0] != '\0') dir = d;
  }
  const std::string path = dir + "/BENCH_train_pipeline.json";
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"train_pipeline\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"loss\": \""
      << bench::JsonEscape(loss::LossKindToString(loss)) << "\",\n"
      << "  \"epochs\": " << epochs << ",\n"
      << "  \"batch_size\": " << batch_size << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"parity_ok\": " << (parity_ok ? "true" : "false") << ",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    out << "    {\"threads\": " << run.threads
        << ", \"epoch_ms\": " << run.epoch_ms
        << ", \"speedup\": " << run.speedup
        << ", \"parity\": " << (run.parity ? "true" : "false")
        << ", \"final_loss\": " << run.final_loss
        << ", \"ir_ndcg\": " << run.ir_ndcg
        << ", \"ir_recall\": " << run.ir_recall
        << ", \"ut_ndcg\": " << run.ut_ndcg
        << ", \"ut_recall\": " << run.ut_recall
        << ", \"prefetch_hit_rate\": " << run.prefetch_hit_rate << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (const Status wst = bench::WriteFileAtomic(path, out.str()); !wst.ok()) {
    UM_LOG(WARNING) << "cannot write " << path << ": " << wst.ToString();
    return 1;
  }

  if (!parity_ok) {
    UM_LOG(ERROR) << "BENCH_train_pipeline: metric parity FAILED";
    return 1;
  }
  UM_LOG(INFO) << "BENCH_train_pipeline: parity ok across "
               << runs.size() << " thread counts; wrote " << path;
  return 0;
}

}  // namespace
}  // namespace unimatch

int main(int argc, char** argv) {
  unimatch::bench::MetricsDumper metrics_dumper("train_pipeline");
  return unimatch::Main(argc, argv);
}

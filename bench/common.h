// Shared plumbing for the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper on the
// synthetic stand-ins for the four datasets. This header provides the
// dataset environments (log + splits + evaluation protocol per Table VI
// conventions), per-dataset hyperparameters mirroring Table VII's structure,
// and a TrainAndEvaluate driver used by most benches.

#ifndef UNIMATCH_BENCH_COMMON_H_
#define UNIMATCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/eval/popularity.h"
#include "src/train/trainer.h"
#include "src/util/string_util.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

namespace unimatch::bench {

/// One fully prepared dataset environment.
struct Env {
  std::string name;
  data::SyntheticConfig data_config;
  data::InteractionLog log;
  data::DatasetSplits splits;
  eval::ProtocolConfig protocol_config;
  std::unique_ptr<eval::EvalProtocol> protocol;
  std::unique_ptr<eval::Evaluator> evaluator;
};

/// Builds the environment for a preset name ("books", "electronics",
/// "e_comp", "w_comp"). `scale` multiplies users/interactions (for fast
/// smoke runs set < 1).
std::unique_ptr<Env> MakeEnv(const std::string& preset, double scale = 1.0);

/// All four dataset names, in the paper's column order.
const std::vector<std::string>& DatasetNames();

/// Per-dataset hyperparameters in the structure of Table VII. `multinomial`
/// selects between the Bernoulli(BCE) column and the multinomial column.
struct Hyperparams {
  int batch_size = 64;
  float temperature = 0.15f;
  int epochs = 2;
};
Hyperparams HyperparamsFor(const std::string& dataset, bool multinomial);

/// The default backbone of the paper: YoutubeDNN (no context extractor)
/// with mean pooling, d = 16.
model::TwoTowerConfig DefaultModelConfig(const Env& env, bool multinomial);

struct RunResult {
  eval::EvalResult metrics;
  eval::RetrievedLists retrieved;
  double train_seconds = 0.0;
  int64_t records_processed = 0;
  int64_t steps = 0;
};

/// Trains a fresh model (incremental, month-by-month over all training
/// months) and evaluates on the test month.
RunResult TrainAndEvaluate(const Env& env, const train::TrainConfig& tc,
                           const model::TwoTowerConfig& mc,
                           bool collect_retrieved = false);

/// Convenience: builds configs for `loss` from the per-dataset hyperparams
/// and runs. `bce_sampling` only applies to LossKind::kBce.
RunResult RunLoss(const Env& env, loss::LossKind loss,
                  data::NegSampling bce_sampling = data::NegSampling::kUniform,
                  bool collect_retrieved = false);

/// The six multinomial-scope losses of Tables IX/X in paper order.
const std::vector<loss::LossKind>& MultinomialLosses();

/// Renders a Tables IX/X-style comparison (6 losses x Recall/NDCG x IR/UT)
/// over the given datasets and prints shape verdicts. Returns 0 on success.
int RunLossComparisonTable(const std::vector<std::string>& datasets,
                           const std::string& title, double scale);

/// The q-quantile (q in [0, 1]) of ascending `sorted`, interpolating
/// linearly between neighbours; 0 when empty.
double Percentile(const std::vector<double>& sorted, double q);

/// Percent formatting helper ("57.20").
inline std::string Pct(double v) { return FixedDigits(100.0 * v, 2); }

/// Reads a scale override from argv ("--scale=0.25") or the UNIMATCH_SCALE
/// environment variable; defaults to 1.
double ParseScale(int argc, char** argv);

/// True when UNIMATCH_BENCH_SMOKE is set to anything but "" or "0": the
/// benches that honour it switch to their quick smoke configuration.
bool SmokeMode();

/// Escapes `s` for use inside a JSON string literal: backslash, double
/// quote, and control characters (as \uXXXX). Every string value a bench
/// interpolates into a BENCH_*.json must pass through here — dataset names
/// and error strings are not guaranteed quote-free.
std::string JsonEscape(const std::string& s);

/// Declared first thing in a bench's main(), dumps the observability
/// registry (src/obs) to `BENCH_<name>_metrics.json` when the bench exits —
/// next to the bench's other outputs, so successive runs leave a perf
/// trajectory. The directory defaults to the working directory and can be
/// overridden with UNIMATCH_METRICS_DIR; UNIMATCH_METRICS=0 (or building
/// with UNIMATCH_METRICS=OFF) suppresses the dump entirely.
class MetricsDumper {
 public:
  explicit MetricsDumper(std::string bench_name);
  ~MetricsDumper();

  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

  /// The path the dump will be written to.
  std::string path() const;

 private:
  std::string bench_name_;
};

}  // namespace unimatch::bench

#endif  // UNIMATCH_BENCH_COMMON_H_

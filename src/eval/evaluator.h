// Runs the IR and UT evaluation protocols against a trained two-tower model.

#ifndef UNIMATCH_EVAL_EVALUATOR_H_
#define UNIMATCH_EVAL_EVALUATOR_H_

#include <functional>
#include <vector>

#include "src/eval/metrics.h"
#include "src/eval/protocol.h"
#include "src/model/two_tower.h"

namespace unimatch::eval {

struct TaskResult {
  double recall = 0.0;
  double ndcg = 0.0;
  int64_t num_cases = 0;
};

struct EvalResult {
  TaskResult ir;
  TaskResult ut;

  double avg_recall() const { return (ir.recall + ut.recall) / 2.0; }
  double avg_ndcg() const { return (ir.ndcg + ut.ndcg) / 2.0; }
};

/// Top-n retrieved ids per test case (inputs to the Table XI popularity
/// analysis).
struct RetrievedLists {
  std::vector<std::vector<data::ItemId>> ir_topn;
  std::vector<std::vector<data::UserId>> ut_topn;
};

/// Per-test-case NDCG values, aligned with the protocol's case vectors.
/// Used for stratified analyses (e.g. cold vs warm items).
struct PerCaseMetrics {
  std::vector<double> ir_ndcg;
  std::vector<double> ut_ndcg;
};

class Evaluator {
 public:
  /// Both referents must outlive the evaluator.
  Evaluator(const data::DatasetSplits* splits, const EvalProtocol* protocol);

  /// Scores every test case with the model's embeddings. `retrieved` is
  /// optional.
  EvalResult Evaluate(const model::TwoTowerModel& model,
                      RetrievedLists* retrieved = nullptr,
                      PerCaseMetrics* per_case = nullptr) const;

  /// Runs the same protocol against an arbitrary scoring function
  /// score(user, item) — used for the non-neural baselines (popularity,
  /// item-kNN, classic MF). `score` is called from the shared pool's
  /// threads, so it must be safe to call concurrently (a read-only scorer
  /// is).
  EvalResult EvaluateScorer(
      const std::function<double(data::UserId, data::ItemId)>& score,
      RetrievedLists* retrieved = nullptr) const;

 private:
  const data::DatasetSplits* splits_;
  const EvalProtocol* protocol_;
};

}  // namespace unimatch::eval

#endif  // UNIMATCH_EVAL_EVALUATOR_H_

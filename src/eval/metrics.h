// Ranking metrics (Eqs. 14-15 of the paper).

#ifndef UNIMATCH_EVAL_METRICS_H_
#define UNIMATCH_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

namespace unimatch::eval {

/// Recall@N for one test case with candidate scores and the ground-truth
/// flags: fraction of positives ranked in the top N, normalized by
/// min(#positives, N). With one positive this equals HitRate@N.
double RecallAtN(const std::vector<float>& scores,
                 const std::vector<bool>& is_positive, int n);

/// NDCG@N: DCG of the predicted ranking over the ideal DCG.
double NdcgAtN(const std::vector<float>& scores,
               const std::vector<bool>& is_positive, int n);

/// Indices of the top-n scores, descending.
std::vector<int64_t> TopN(const std::vector<float>& scores, int n);

/// Running mean aggregate for a task.
struct MetricAccumulator {
  double recall_sum = 0.0;
  double ndcg_sum = 0.0;
  int64_t count = 0;

  void Add(double recall, double ndcg) {
    recall_sum += recall;
    ndcg_sum += ndcg;
    ++count;
  }
  double recall() const { return count ? recall_sum / count : 0.0; }
  double ndcg() const { return count ? ndcg_sum / count : 0.0; }
};

}  // namespace unimatch::eval

#endif  // UNIMATCH_EVAL_METRICS_H_

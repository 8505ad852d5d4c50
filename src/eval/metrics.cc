#include "src/eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/contract.h"
#include "src/util/logging.h"

namespace unimatch::eval {

namespace {

// The first min(k, size) indices in ranking order: score descending, index
// ascending on ties — a strict total order, so the bounded selection
// (nth_element + sorting only the winning prefix) returns exactly the
// prefix a full stable_sort by descending score would. Per-user candidate
// lists are much longer than the metric cutoffs, so selecting beats the
// previous full sort.
std::vector<int64_t> TopIndices(const std::vector<float>& scores, int64_t k) {
  std::vector<int64_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  const auto better = [&](int64_t a, int64_t b) {
    return scores[a] > scores[b] || (scores[a] == scores[b] && a < b);
  };
  if (k < static_cast<int64_t>(idx.size())) {
    std::nth_element(idx.begin(), idx.begin() + k, idx.end(), better);
    idx.resize(k);
  }
  std::sort(idx.begin(), idx.end(), better);
  return idx;
}

}  // namespace

double RecallAtN(const std::vector<float>& scores,
                 const std::vector<bool>& is_positive, int n) {
  UM_CHECK_EQ(scores.size(), is_positive.size());
  UM_CONTRACT(n > 0) << "RecallAtN cutoff, got n=" << n;
  const int64_t num_pos =
      std::count(is_positive.begin(), is_positive.end(), true);
  if (num_pos == 0) return 0.0;
  auto idx = TopIndices(scores, n);
  int64_t hits = 0;
  const int64_t top = static_cast<int64_t>(idx.size());
  for (int64_t r = 0; r < top; ++r) {
    if (is_positive[idx[r]]) ++hits;
  }
  return static_cast<double>(hits) /
         static_cast<double>(std::min<int64_t>(num_pos, n));
}

double NdcgAtN(const std::vector<float>& scores,
               const std::vector<bool>& is_positive, int n) {
  UM_CHECK_EQ(scores.size(), is_positive.size());
  UM_CONTRACT(n > 0) << "NdcgAtN cutoff, got n=" << n;
  const int64_t num_pos =
      std::count(is_positive.begin(), is_positive.end(), true);
  if (num_pos == 0) return 0.0;
  auto idx = TopIndices(scores, n);
  const int64_t top = static_cast<int64_t>(idx.size());
  double dcg = 0.0;
  for (int64_t r = 0; r < top; ++r) {
    if (is_positive[idx[r]]) dcg += 1.0 / std::log2(static_cast<double>(r) + 2);
  }
  double ideal = 0.0;
  const int64_t ideal_top = std::min<int64_t>(num_pos, n);
  for (int64_t r = 0; r < ideal_top; ++r) {
    ideal += 1.0 / std::log2(static_cast<double>(r) + 2);
  }
  return dcg / ideal;
}

std::vector<int64_t> TopN(const std::vector<float>& scores, int n) {
  UM_CONTRACT(n > 0) << "TopN cutoff, got n=" << n;
  return TopIndices(scores, n);
}

}  // namespace unimatch::eval

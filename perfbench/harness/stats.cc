#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {

namespace {

int64_t NearestRank(int64_t n, double p) {
  const auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(sorted.size());
  return sorted[NearestRank(n, p) - 1];
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  return n - NearestRank(n, p);
}

TailEstimate HighestSupportedPercentile(const std::vector<double>& sorted,
                                        int64_t min_beyond) {
  static constexpr double kCandidates[] = {99.999, 99.99, 99.9, 99.0, 90.0};
  const int64_t n = static_cast<int64_t>(sorted.size());
  TailEstimate tail;
  tail.samples = n;
  tail.percentile = 50.0;
  for (const double p : kCandidates) {
    if (SamplesBeyond(n, p) >= min_beyond) {
      tail.percentile = p;
      break;
    }
  }
  tail.value = PercentileSorted(sorted, tail.percentile);
  tail.beyond = SamplesBeyond(n, tail.percentile);
  return tail;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SloPercent(const std::vector<RequestOutcome>& sent, double limit_ms) {
  if (sent.empty()) return 0.0;
  int64_t met = 0;
  for (const RequestOutcome& r : sent) {
    if (r.answered && r.correct && r.latency_ms <= limit_ms) ++met;
  }
  return 100.0 * static_cast<double>(met) / static_cast<double>(sent.size());
}

double RecallAgainstKey(const std::vector<ScoredId>& answer,
                        const std::vector<ScoredId>& key) {
  if (key.empty()) return 1.0;
  std::unordered_set<int64_t> key_ids;
  float cut = key.front().score;
  for (const ScoredId& s : key) {
    key_ids.insert(s.id);
    cut = std::min(cut, s.score);
  }
  std::unordered_set<int64_t> seen;
  int64_t hits = 0;
  for (const ScoredId& s : answer) {
    if (!seen.insert(s.id).second) continue;
    if (key_ids.count(s.id) > 0 || s.score == cut) ++hits;
  }
  hits = std::min<int64_t>(hits, static_cast<int64_t>(key.size()));
  return static_cast<double>(hits) / static_cast<double>(key.size());
}

}  // namespace perfbench

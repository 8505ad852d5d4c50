// The benchmark's own arithmetic: percentiles, the serving latency-limit
// share and recall against an exact key. Everything here is a pure
// function of its inputs, so tests/stats_test.cc pins it down.

#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(p / 100 * n), clamped to [1, n]. 0 for an empty sample.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Number of samples ranked strictly above the p-th percentile's rank.
int64_t SamplesBeyond(int64_t n, double p);

/// A percentile together with the sample size it was taken from.
struct TailEstimate {
  double percentile = 0.0;  // e.g. 99.9
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;  // samples ranked above `value`
};

/// The highest of 50, 90, 99, 99.9, 99.99 and 99.999 whose value still has
/// at least `min_beyond` samples above it; the median when none has.
TailEstimate HighestSupportedPercentile(const std::vector<double>& sorted,
                                        int64_t min_beyond = 10);

double Median(std::vector<double> values);

/// What happened to one request that was sent.
struct RequestOutcome {
  bool answered = false;  // admitted and answered with an OK status
  bool correct = true;    // its answer passed the check (if one applies)
  double latency_ms = 0.0;  // due time to response; unset when unanswered
};

/// Percentage of sent requests answered OK and correctly within
/// `limit_ms` of their due time. Shed, failed and wrong requests are
/// misses. 0 when nothing was sent.
double SloPercent(const std::vector<RequestOutcome>& sent, double limit_ms);

struct ScoredId {
  int64_t id = -1;
  float score = 0.0f;
};

/// recall@k of `answer` against the exact top-k `key` (both descending).
/// An answered id counts as a hit when it is in the key, or when its score
/// ties the key's lowest score: with ties at the cut the exact top-k is not
/// unique, and any of the tied ids is a right answer. Duplicated answer ids
/// count once. 1 for an empty key.
double RecallAgainstKey(const std::vector<ScoredId>& answer,
                        const std::vector<ScoredId>& key);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_

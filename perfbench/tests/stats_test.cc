// Tests of the benchmark's own arithmetic (harness/stats.h) and of the
// answer digest the serving checks compare.

#include <gtest/gtest.h>

#include <vector>

#include "harness/stats.h"
#include "harness/traffic.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const auto v = OneTo(100);
  EXPECT_EQ(PercentileSorted(v, 50.0), 50.0);
  EXPECT_EQ(PercentileSorted(v, 99.0), 99.0);
  EXPECT_EQ(PercentileSorted(v, 99.9), 100.0);
  EXPECT_EQ(PercentileSorted(v, 0.0), 1.0);
  EXPECT_EQ(PercentileSorted(v, 100.0), 100.0);
  EXPECT_EQ(PercentileSorted({}, 50.0), 0.0);
  EXPECT_EQ(PercentileSorted({7.0}, 99.0), 7.0);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10);
  EXPECT_EQ(SamplesBeyond(1000, 99.9), 1);
  EXPECT_EQ(SamplesBeyond(100000, 99.99), 10);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0);
}

TEST(PercentileTest, HighestWithTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 above it, p99.9 only 1.
  TailEstimate t = HighestSupportedPercentile(OneTo(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000);
  EXPECT_EQ(t.beyond, 10);
  // 999 samples: p99's rank is 990, leaving 9; p90 is the highest.
  t = HighestSupportedPercentile(OneTo(999));
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 999 - 900);
  // 10000 samples support p99.9 (10 beyond).
  t = HighestSupportedPercentile(OneTo(10000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.value, 9990.0);
  // Too few for any tail: falls back to the median.
  t = HighestSupportedPercentile(OneTo(15));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 8.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SloTest, ShedFailedAndWrongRequestsAreMisses) {
  const std::vector<RequestOutcome> sent = {
      {true, true, 1.0},     // met
      {true, true, 10.0},    // met: the limit is inclusive
      {true, true, 10.5},    // late
      {false, true, 0.0},    // shed or failed
      {true, false, 0.5},    // fast but wrong
  };
  EXPECT_DOUBLE_EQ(SloPercent(sent, 10.0), 40.0);
  EXPECT_EQ(SloPercent({}, 10.0), 0.0);
}

TEST(RecallTest, ExactAndPartial) {
  const std::vector<ScoredId> key = {{1, 0.9f}, {2, 0.8f}, {3, 0.7f}};
  EXPECT_DOUBLE_EQ(RecallAgainstKey(key, key), 1.0);
  EXPECT_DOUBLE_EQ(RecallAgainstKey({{1, 0.9f}, {9, 0.1f}, {8, 0.05f}}, key),
                   1.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAgainstKey({}, key), 0.0);
  EXPECT_DOUBLE_EQ(RecallAgainstKey({{1, 0.9f}}, {}), 1.0);
}

TEST(RecallTest, TiesAtTheCutCountAsHits) {
  // Ids 3 and 4 tie at the cut; the key kept 3, the answer kept 4. Both
  // are an exact top-3.
  const std::vector<ScoredId> key = {{1, 0.9f}, {2, 0.8f}, {3, 0.5f}};
  const std::vector<ScoredId> answer = {{1, 0.9f}, {2, 0.8f}, {4, 0.5f}};
  EXPECT_DOUBLE_EQ(RecallAgainstKey(answer, key), 1.0);
  // A score below the cut is a miss; a repeated id counts once.
  EXPECT_DOUBLE_EQ(
      RecallAgainstKey({{1, 0.9f}, {2, 0.8f}, {5, 0.4f}}, key), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(
      RecallAgainstKey({{1, 0.9f}, {1, 0.9f}, {2, 0.8f}}, key), 2.0 / 3.0);
}

TEST(DigestTest, SensitiveToIdsScoresAndOrder) {
  const std::vector<ScoredId> a = {{1, 0.5f}, {2, 0.25f}};
  EXPECT_EQ(DigestOf(a), DigestOf({{1, 0.5f}, {2, 0.25f}}));
  EXPECT_NE(DigestOf(a), DigestOf({{2, 0.25f}, {1, 0.5f}}));
  EXPECT_NE(DigestOf(a), DigestOf({{1, 0.5f}, {2, 0.2500001f}}));
  EXPECT_NE(DigestOf(a), DigestOf({{1, 0.5f}, {3, 0.25f}}));
  EXPECT_NE(DigestOf(a), DigestOf({{1, 0.5f}}));
}

}  // namespace
}  // namespace perfbench

#include "src/eval/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/random.h"

namespace unimatch::eval {
namespace {

TEST(RecallTest, SinglePositiveHit) {
  // positive (index 0) ranked 2nd of 4.
  std::vector<float> scores = {0.8f, 0.9f, 0.1f, 0.2f};
  std::vector<bool> pos = {true, false, false, false};
  EXPECT_DOUBLE_EQ(RecallAtN(scores, pos, 2), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtN(scores, pos, 1), 0.0);
}

TEST(RecallTest, MultiplePositivesNormalization) {
  std::vector<float> scores = {0.9f, 0.8f, 0.7f, 0.6f};
  std::vector<bool> pos = {true, false, true, true};
  // Top-2 contains 1 of min(3, 2)=2.
  EXPECT_DOUBLE_EQ(RecallAtN(scores, pos, 2), 0.5);
  // Top-4 has all 3 of min(3,4)=3.
  EXPECT_DOUBLE_EQ(RecallAtN(scores, pos, 4), 1.0);
}

TEST(RecallTest, NoPositivesGivesZero) {
  std::vector<float> scores = {1.0f, 2.0f};
  std::vector<bool> pos = {false, false};
  EXPECT_DOUBLE_EQ(RecallAtN(scores, pos, 1), 0.0);
}

TEST(NdcgTest, PositionOneIsPerfect) {
  std::vector<float> scores = {0.9f, 0.1f, 0.2f};
  std::vector<bool> pos = {true, false, false};
  EXPECT_DOUBLE_EQ(NdcgAtN(scores, pos, 3), 1.0);
}

TEST(NdcgTest, LowerRankDiscounted) {
  std::vector<float> scores = {0.5f, 0.9f, 0.7f};
  std::vector<bool> pos = {true, false, false};
  // Positive at rank 3 (0-based 2): DCG = 1/log2(4), ideal = 1.
  EXPECT_NEAR(NdcgAtN(scores, pos, 3), 1.0 / std::log2(4.0), 1e-9);
}

TEST(NdcgTest, OutsideTopNIsZero) {
  std::vector<float> scores = {0.1f, 0.9f, 0.8f, 0.7f};
  std::vector<bool> pos = {true, false, false, false};
  EXPECT_DOUBLE_EQ(NdcgAtN(scores, pos, 2), 0.0);
}

TEST(NdcgTest, MultiplePositivesIdealNormalization) {
  // Both positives ranked top: NDCG = 1.
  std::vector<float> scores = {0.9f, 0.8f, 0.1f};
  std::vector<bool> pos = {true, true, false};
  EXPECT_NEAR(NdcgAtN(scores, pos, 2), 1.0, 1e-9);
  // Positives at ranks 1 and 3 with N=3:
  std::vector<float> scores2 = {0.9f, 0.1f, 0.5f};
  std::vector<bool> pos2 = {true, true, false};
  const double dcg = 1.0 + 1.0 / std::log2(4.0);
  const double ideal = 1.0 + 1.0 / std::log2(3.0);
  EXPECT_NEAR(NdcgAtN(scores2, pos2, 3), dcg / ideal, 1e-9);
}

TEST(TopNTest, ReturnsSortedPrefix) {
  std::vector<float> scores = {0.1f, 0.9f, 0.5f, 0.7f};
  auto top = TopN(scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1);
  EXPECT_EQ(top[1], 3);
  EXPECT_EQ(TopN(scores, 10).size(), 4u);
}

TEST(MetricAccumulatorTest, Averages) {
  MetricAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.recall(), 0.0);
  acc.Add(1.0, 0.5);
  acc.Add(0.0, 0.1);
  EXPECT_DOUBLE_EQ(acc.recall(), 0.5);
  EXPECT_DOUBLE_EQ(acc.ndcg(), 0.3);
  EXPECT_EQ(acc.count, 2);
}

// The paper's observation: HitRate@N == Recall@N with a single positive.
TEST(MetricsPropertyTest, RecallEqualsHitRateWithOnePositive) {
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> scores(50);
    for (auto& s : scores) s = rng.NextFloat();
    std::vector<bool> pos(50, false);
    pos[rng.Uniform(50)] = true;
    const double r = RecallAtN(scores, pos, 10);
    EXPECT_TRUE(r == 0.0 || r == 1.0);
    // NDCG is positive iff recall hit.
    const double n = NdcgAtN(scores, pos, 10);
    EXPECT_EQ(n > 0.0, r == 1.0);
  }
}

// The bounded top-k selection must agree exactly with the stable full sort
// it replaced, including on heavily tied score vectors (ties break toward
// the lower index, which is what stable_sort over iota order produced).
TEST(MetricsPropertyTest, BoundedTopKMatchesStableSortReference) {
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    const int size = 5 + static_cast<int>(rng.Uniform(60));
    std::vector<float> scores(size);
    // Draw from few distinct values so ties dominate.
    for (auto& s : scores) s = static_cast<float>(rng.Uniform(4)) * 0.25f;
    std::vector<bool> pos(size, false);
    for (int p = 0; p < 3; ++p) pos[rng.Uniform(size)] = true;

    std::vector<int64_t> ref(size);
    std::iota(ref.begin(), ref.end(), 0);
    std::stable_sort(ref.begin(), ref.end(), [&](int64_t a, int64_t b) {
      return scores[a] > scores[b];
    });

    for (int n : {1, 3, 10, size, size + 5}) {
      const auto top = TopN(scores, n);
      const int64_t expect = std::min<int64_t>(n, size);
      ASSERT_EQ(static_cast<int64_t>(top.size()), expect);
      for (int64_t r = 0; r < expect; ++r) {
        EXPECT_EQ(top[r], ref[r]) << "trial " << trial << " n=" << n
                                  << " rank " << r;
      }
      // Recall/NDCG over the bounded selection == reference-prefix values.
      int64_t hits = 0;
      double dcg = 0.0;
      for (int64_t r = 0; r < expect; ++r) {
        if (!pos[ref[r]]) continue;
        ++hits;
        dcg += 1.0 / std::log2(static_cast<double>(r) + 2);
      }
      const int64_t num_pos = std::count(pos.begin(), pos.end(), true);
      double ideal = 0.0;
      for (int64_t r = 0; r < std::min<int64_t>(num_pos, n); ++r) {
        ideal += 1.0 / std::log2(static_cast<double>(r) + 2);
      }
      EXPECT_DOUBLE_EQ(
          RecallAtN(scores, pos, n),
          static_cast<double>(hits) /
              static_cast<double>(std::min<int64_t>(num_pos, n)));
      EXPECT_DOUBLE_EQ(NdcgAtN(scores, pos, n), dcg / ideal);
    }
  }
}

TEST(MetricsPropertyTest, NdcgNeverExceedsRecallBound) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> scores(30);
    for (auto& s : scores) s = rng.NextFloat();
    std::vector<bool> pos(30, false);
    for (int p = 0; p < 3; ++p) pos[rng.Uniform(30)] = true;
    const double n = NdcgAtN(scores, pos, 10);
    EXPECT_GE(n, 0.0);
    EXPECT_LE(n, 1.0);
  }
}

}  // namespace
}  // namespace unimatch::eval

#include "src/ann/index.h"

#include <gtest/gtest.h>

#include <cmath>

namespace unimatch::ann {
namespace {

Tensor RandomUnitVectors(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Randn({n, d}, 1.0f, &rng);
  for (int64_t i = 0; i < n; ++i) {
    double norm = 0.0;
    for (int64_t j = 0; j < d; ++j) norm += t.at(i, j) * t.at(i, j);
    const float inv = static_cast<float>(1.0 / std::sqrt(norm));
    for (int64_t j = 0; j < d; ++j) t.at(i, j) *= inv;
  }
  return t;
}

TEST(BruteForceIndexTest, FindsExactNearest) {
  Tensor vecs({4, 2}, {1, 0, 0, 1, -1, 0, 0.9f, 0.1f});
  BruteForceIndex index;
  ASSERT_TRUE(index.Build(vecs).ok());
  const float query[2] = {1.0f, 0.0f};
  auto results = index.Search(query, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 0);
  EXPECT_EQ(results[1].id, 3);
  EXPECT_FLOAT_EQ(results[0].score, 1.0f);
}

TEST(BruteForceIndexTest, ScoresDescending) {
  Tensor vecs = RandomUnitVectors(100, 8, 1);
  BruteForceIndex index;
  ASSERT_TRUE(index.Build(vecs).ok());
  auto results = index.Search(vecs.data(), 10);
  ASSERT_EQ(results.size(), 10u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
  EXPECT_EQ(results[0].id, 0);  // self-match first
}

TEST(BruteForceIndexTest, KLargerThanNReturnsAll) {
  Tensor vecs = RandomUnitVectors(5, 4, 2);
  BruteForceIndex index;
  ASSERT_TRUE(index.Build(vecs).ok());
  EXPECT_EQ(index.Search(vecs.data(), 50).size(), 5u);
}

TEST(BruteForceIndexTest, RejectsNonMatrix) {
  BruteForceIndex index;
  EXPECT_TRUE(index.Build(Tensor({2, 2, 2})).IsInvalidArgument());
}

TEST(BruteForceIndexTest, RejectsEmptyMatrixForEveryStorage) {
  for (const ScalarType storage :
       {ScalarType::kF32, ScalarType::kF16, ScalarType::kI8}) {
    BruteForceIndex index(storage);
    EXPECT_TRUE(index.Build(Tensor({2, 2, 2})).IsInvalidArgument())
        << ScalarTypeName(storage);
    EXPECT_TRUE(index.Build(Tensor({0, 4})).IsInvalidArgument())
        << ScalarTypeName(storage);
  }
}

TEST(BruteForceIndexTest, Int8RecallFloorVsExact) {
  Tensor vecs = RandomUnitVectors(1000, 16, 12);
  BruteForceIndex flat(ScalarType::kI8);
  BruteForceIndex exact;
  ASSERT_TRUE(flat.Build(vecs).ok());
  ASSERT_TRUE(exact.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(50, 16, 13);
  const double recall = MeasureRecallAtK(flat, exact, queries, 10);
  // The CI bench gates >= 0.95 on trained embeddings; random unit vectors
  // are at least as separable.
  EXPECT_GE(recall, 0.95);
  // And the table really is >= 3x smaller than f32 at d = 16.
  EXPECT_GE(1000.0 * 16.0 * 4.0 /
                static_cast<double>(flat.table().payload_bytes()),
            3.0);
}

TEST(BruteForceIndexTest, F16RecallNearPerfect) {
  Tensor vecs = RandomUnitVectors(600, 16, 14);
  BruteForceIndex flat(ScalarType::kF16);
  BruteForceIndex exact;
  ASSERT_TRUE(flat.Build(vecs).ok());
  ASSERT_TRUE(exact.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(40, 16, 15);
  EXPECT_GE(MeasureRecallAtK(flat, exact, queries, 10), 0.99);
}

TEST(IvfIndexTest, BuildsWithDefaults) {
  Tensor vecs = RandomUnitVectors(200, 8, 3);
  IvfIndex index;
  ASSERT_TRUE(index.Build(vecs).ok());
  EXPECT_EQ(index.size(), 200);
  EXPECT_GT(index.config().nlist, 1);
}

TEST(IvfIndexTest, FullProbeIsExact) {
  Tensor vecs = RandomUnitVectors(300, 8, 4);
  IvfConfig cfg;
  cfg.nlist = 16;
  cfg.nprobe = 16;  // probe everything -> must equal brute force
  IvfIndex ivf(cfg);
  ASSERT_TRUE(ivf.Build(vecs).ok());
  BruteForceIndex exact;
  ASSERT_TRUE(exact.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(20, 8, 5);
  EXPECT_DOUBLE_EQ(MeasureRecallAtK(ivf, exact, queries, 10), 1.0);
}

TEST(IvfIndexTest, PartialProbeHighRecall) {
  Tensor vecs = RandomUnitVectors(1000, 16, 6);
  IvfConfig cfg;
  cfg.nlist = 32;
  cfg.nprobe = 8;
  IvfIndex ivf(cfg);
  ASSERT_TRUE(ivf.Build(vecs).ok());
  BruteForceIndex exact;
  ASSERT_TRUE(exact.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(50, 16, 7);
  EXPECT_GT(MeasureRecallAtK(ivf, exact, queries, 10), 0.8);
}

TEST(IvfIndexTest, RecallImprovesWithNprobe) {
  Tensor vecs = RandomUnitVectors(1000, 16, 8);
  BruteForceIndex exact;
  ASSERT_TRUE(exact.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(50, 16, 9);
  double prev = -1.0;
  for (int64_t nprobe : {1, 4, 16, 32}) {
    IvfConfig cfg;
    cfg.nlist = 32;
    cfg.nprobe = nprobe;
    IvfIndex ivf(cfg);
    ASSERT_TRUE(ivf.Build(vecs).ok());
    const double r = MeasureRecallAtK(ivf, exact, queries, 10);
    EXPECT_GE(r, prev - 0.02);  // monotone up to small noise
    prev = r;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(IvfIndexTest, MoreVectorsThanRequestedClusters) {
  Tensor vecs = RandomUnitVectors(10, 4, 10);
  IvfConfig cfg;
  cfg.nlist = 100;  // clamped to n
  IvfIndex ivf(cfg);
  ASSERT_TRUE(ivf.Build(vecs).ok());
  EXPECT_LE(ivf.config().nlist, 10);
  auto r = ivf.Search(vecs.data(), 3);
  EXPECT_EQ(r.size(), 3u);
}

TEST(IvfIndexTest, AllVectorsRetrievable) {
  // Every indexed vector must be found as its own nearest neighbor when all
  // lists are probed.
  Tensor vecs = RandomUnitVectors(128, 8, 11);
  IvfConfig cfg;
  cfg.nlist = 8;
  cfg.nprobe = 8;
  IvfIndex ivf(cfg);
  ASSERT_TRUE(ivf.Build(vecs).ok());
  for (int64_t i = 0; i < 128; ++i) {
    auto r = ivf.Search(vecs.data() + i * 8, 1);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].id, i);
  }
}

}  // namespace
}  // namespace unimatch::ann

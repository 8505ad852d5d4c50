#include "src/ann/hnsw.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

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

TEST(HnswIndexTest, BuildsAndReportsShape) {
  Tensor vecs = RandomUnitVectors(500, 16, 1);
  HnswIndex index;
  ASSERT_TRUE(index.Build(vecs).ok());
  EXPECT_EQ(index.size(), 500);
  EXPECT_EQ(index.dim(), 16);
  EXPECT_GE(index.num_layers(), 1);
}

TEST(HnswIndexTest, RejectsBadInput) {
  HnswIndex index;
  EXPECT_TRUE(index.Build(Tensor({2, 2, 2})).IsInvalidArgument());
  EXPECT_TRUE(index.Build(Tensor({0, 4})).IsInvalidArgument());
}

TEST(HnswIndexTest, RejectsConfigThatCannotBuildAGraph) {
  // With m < 1 no list holds a link, 2 * m overflows int for m near 2^30,
  // and a construction beam narrower than one finds no neighbour to link.
  const Tensor vecs = RandomUnitVectors(50, 8, 9);
  HnswConfig bad_m_zero, bad_m_negative, bad_m_large, bad_m_huge, bad_efc,
      bad_efs;
  bad_m_zero.m = 0;
  bad_m_negative.m = -3;
  bad_m_large.m = 1025;
  bad_m_huge.m = 1 << 30;
  bad_efc.ef_construction = 0;
  bad_efs.ef_search = 0;
  for (const HnswConfig& cfg : {bad_m_zero, bad_m_negative, bad_m_large,
                                bad_m_huge, bad_efc, bad_efs}) {
    HnswIndex index(cfg);
    EXPECT_TRUE(index.Build(vecs).IsInvalidArgument())
        << "m=" << cfg.m << " ef_construction=" << cfg.ef_construction
        << " ef_search=" << cfg.ef_search;
    EXPECT_EQ(index.size(), 0);
  }
  // Both ends of the m range build.
  HnswConfig smallest, largest;
  smallest.m = 1;
  smallest.ef_construction = smallest.ef_search = 1;
  largest.m = 1024;
  for (const HnswConfig& cfg : {smallest, largest}) {
    HnswIndex index(cfg);
    ASSERT_TRUE(index.Build(vecs).ok()) << "m=" << cfg.m;
    EXPECT_EQ(index.size(), 50);
  }
}

TEST(HnswIndexTest, SelfIsNearestNeighbor) {
  Tensor vecs = RandomUnitVectors(300, 12, 2);
  HnswIndex index;
  ASSERT_TRUE(index.Build(vecs).ok());
  int hits = 0;
  for (int64_t i = 0; i < 300; ++i) {
    auto r = index.Search(vecs.data() + i * 12, 1);
    ASSERT_EQ(r.size(), 1u);
    hits += r[0].id == i;
  }
  // Allow a tiny slack for near-duplicate directions.
  EXPECT_GE(hits, 295);
}

TEST(HnswIndexTest, HighRecallVsExact) {
  Tensor vecs = RandomUnitVectors(2000, 16, 3);
  HnswIndex index;
  ASSERT_TRUE(index.Build(vecs).ok());
  BruteForceIndex exact;
  ASSERT_TRUE(exact.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(50, 16, 4);
  EXPECT_GT(MeasureRecallAtK(index, exact, queries, 10), 0.9);
}

TEST(HnswIndexTest, RecallImprovesWithEf) {
  Tensor vecs = RandomUnitVectors(2000, 16, 5);
  BruteForceIndex exact;
  ASSERT_TRUE(exact.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(50, 16, 6);
  double low_recall = 0.0, high_recall = 0.0;
  {
    HnswConfig cfg;
    cfg.ef_search = 10;
    HnswIndex index(cfg);
    ASSERT_TRUE(index.Build(vecs).ok());
    low_recall = MeasureRecallAtK(index, exact, queries, 10);
  }
  {
    HnswConfig cfg;
    cfg.ef_search = 200;
    HnswIndex index(cfg);
    ASSERT_TRUE(index.Build(vecs).ok());
    high_recall = MeasureRecallAtK(index, exact, queries, 10);
  }
  EXPECT_GE(high_recall, low_recall);
  EXPECT_GT(high_recall, 0.95);
}

TEST(HnswIndexTest, ScoresDescendingAndDistinct) {
  Tensor vecs = RandomUnitVectors(400, 8, 7);
  HnswIndex index;
  ASSERT_TRUE(index.Build(vecs).ok());
  Tensor q = RandomUnitVectors(1, 8, 8);
  auto r = index.Search(q.data(), 20);
  ASSERT_EQ(r.size(), 20u);
  std::unordered_set<int64_t> seen;
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_TRUE(seen.insert(r[i].id).second);
    if (i > 0) {
      EXPECT_GE(r[i - 1].score, r[i].score);
    }
  }
}

TEST(HnswIndexTest, SingleVectorIndex) {
  Tensor vecs = RandomUnitVectors(1, 4, 9);
  HnswIndex index;
  ASSERT_TRUE(index.Build(vecs).ok());
  auto r = index.Search(vecs.data(), 5);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].id, 0);
}

TEST(HnswIndexTest, SerialBuildIsDeterministic) {
  Tensor vecs = RandomUnitVectors(600, 12, 21);
  Tensor queries = RandomUnitVectors(20, 12, 22);
  std::vector<int64_t> first_ids;
  for (int run = 0; run < 2; ++run) {
    HnswIndex index;
    ASSERT_TRUE(index.Build(vecs).ok());
    std::vector<int64_t> ids;
    for (int64_t q = 0; q < 20; ++q) {
      for (const auto& r : index.Search(queries.data() + q * 12, 5)) {
        ids.push_back(r.id);
      }
    }
    if (run == 0) {
      first_ids = std::move(ids);
    } else {
      EXPECT_EQ(ids, first_ids);
    }
  }
}

TEST(HnswIndexTest, KLargerThanNReturnsAll) {
  Tensor vecs = RandomUnitVectors(7, 4, 10);
  HnswConfig cfg;
  cfg.ef_search = 50;
  HnswIndex index(cfg);
  ASSERT_TRUE(index.Build(vecs).ok());
  auto r = index.Search(vecs.data(), 50);
  EXPECT_EQ(r.size(), 7u);
}

}  // namespace
}  // namespace unimatch::ann

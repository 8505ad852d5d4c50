#include "src/ann/pq.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/ann/index.h"
#include "src/tensor/kernels.h"

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

// ---------------------------------------------------------------------------
// IvfPqIndex
// ---------------------------------------------------------------------------

IvfPqConfig AccurateConfig() {
  // The accuracy end of the PQ spectrum (one lane per subspace), matching
  // what bench_quant gates on.
  IvfPqConfig config;
  config.num_subspaces = 16;
  config.nprobe = 24;
  return config;
}

TEST(IvfPqIndexTest, RejectsBadInput) {
  IvfPqIndex index;
  EXPECT_TRUE(index.Build(Tensor({2, 2, 2})).IsInvalidArgument());
  EXPECT_TRUE(index.Build(Tensor({0, 4})).IsInvalidArgument());
}

TEST(IvfPqIndexTest, BuildIsDeterministic) {
  Tensor vecs = RandomUnitVectors(500, 16, 20);
  IvfPqIndex a(AccurateConfig());
  IvfPqIndex b(AccurateConfig());
  ASSERT_TRUE(a.Build(vecs).ok());
  ASSERT_TRUE(b.Build(vecs).ok());
  // Same data + config + seed => bitwise-identical codebooks and codes.
  ASSERT_EQ(a.codes().size(), b.codes().size());
  EXPECT_EQ(a.codes(), b.codes());
  ASSERT_EQ(a.codebooks().numel(), b.codebooks().numel());
  for (int64_t i = 0; i < a.codebooks().numel(); ++i) {
    ASSERT_EQ(a.codebooks().data()[i], b.codebooks().data()[i]) << "at " << i;
  }
}

TEST(IvfPqIndexTest, ConfigResolvedAgainstData) {
  // d = 10: num_subspaces 4 must drop to the largest divisor (2); a tiny
  // catalog clamps the codebook below 256.
  Tensor vecs = RandomUnitVectors(40, 10, 21);
  IvfPqConfig config;
  config.num_subspaces = 4;
  IvfPqIndex index(config);
  ASSERT_TRUE(index.Build(vecs).ok());
  EXPECT_EQ(index.config().num_subspaces, 2);
  EXPECT_EQ(index.config().codebook_size, 40);
  EXPECT_LE(index.config().nprobe, index.config().nlist);
  EXPECT_EQ(index.size(), 40);
  EXPECT_EQ(index.dim(), 10);
}

TEST(IvfPqIndexTest, SearchScoresAreAdcScores) {
  Tensor vecs = RandomUnitVectors(300, 16, 22);
  IvfPqConfig config = AccurateConfig();
  config.nlist = 1;  // single list: Search scans everything
  config.nprobe = 1;
  IvfPqIndex index(config);
  ASSERT_TRUE(index.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(10, 16, 23);
  for (int64_t q = 0; q < queries.dim(0); ++q) {
    const float* qv = queries.data() + q * 16;
    for (const auto& r : index.Search(qv, 5)) {
      EXPECT_FLOAT_EQ(r.score, index.AdcScore(qv, r.id))
          << "query " << q << " id " << r.id;
    }
  }
}

TEST(IvfPqIndexTest, AdcApproximatesTrueInnerProduct) {
  Tensor vecs = RandomUnitVectors(500, 16, 24);
  IvfPqIndex index(AccurateConfig());
  ASSERT_TRUE(index.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(20, 16, 25);
  double total_err = 0.0;
  int64_t count = 0;
  for (int64_t q = 0; q < queries.dim(0); ++q) {
    const float* qv = queries.data() + q * 16;
    for (int64_t i = 0; i < vecs.dim(0); i += 25) {
      const float exact = kernels::DotF32(qv, vecs.data() + i * 16, 16);
      total_err += std::fabs(index.AdcScore(qv, i) - exact);
      ++count;
    }
  }
  // Mean absolute ADC error well under the typical top-10 score gap for
  // unit vectors.
  EXPECT_LT(total_err / static_cast<double>(count), 0.05);
}

TEST(IvfPqIndexTest, RecallFloorVsExact) {
  Tensor vecs = RandomUnitVectors(1000, 16, 26);
  IvfPqIndex index(AccurateConfig());
  BruteForceIndex exact;
  ASSERT_TRUE(index.Build(vecs).ok());
  ASSERT_TRUE(exact.Build(vecs).ok());
  Tensor queries = RandomUnitVectors(50, 16, 27);
  // The ADC-vs-exact recall floor the CI gate (0.95) leans on.
  EXPECT_GE(MeasureRecallAtK(index, exact, queries, 10), 0.95);
}

TEST(IvfPqIndexTest, CompressedPayload) {
  Tensor vecs = RandomUnitVectors(2000, 16, 28);
  IvfPqConfig config;
  config.num_subspaces = 4;  // the bytes end of the spectrum: 4 codes/row
  IvfPqIndex index(config);
  ASSERT_TRUE(index.Build(vecs).ok());
  // Codes are one byte per subspace per row.
  EXPECT_EQ(index.codes().size(), 2000u * 4u);
  EXPECT_GT(index.payload_bytes(), 0);
  // Per-row payload (codes + list ids + amortized codebooks) beats f32.
  EXPECT_LT(index.bytes_per_row(), 16 * 4.0);
}

}  // namespace
}  // namespace unimatch::ann

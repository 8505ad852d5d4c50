// MultiSearch/Search parity — the contract the batched execution path is
// built on (src/ann/index.h): for every backend, MultiSearch over nq
// queries returns bitwise the ids AND scores of nq single-query Search
// calls, at any batch size. The serving frontend groups arbitrary requests
// into arbitrary batch shapes, so any batch-size dependence here would
// surface as answers that change with traffic.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/ann/hnsw.h"
#include "src/ann/index.h"
#include "src/ann/pq.h"
#include "src/tensor/storage.h"

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

struct Backend {
  std::string name;
  std::unique_ptr<Index> index;
};

// Every serving backend: exact scans over f32, f16 and int8 rows, inverted
// files (IVF, IVF-PQ), and graphs (HNSW over f32 and int8 rows).
std::vector<Backend> MakeBackends(const Tensor& vectors) {
  std::vector<Backend> backends;
  backends.push_back({"flat", std::make_unique<BruteForceIndex>()});
  backends.push_back(
      {"flat_f16", std::make_unique<BruteForceIndex>(ScalarType::kF16)});
  backends.push_back(
      {"flat_i8", std::make_unique<BruteForceIndex>(ScalarType::kI8)});
  IvfConfig ivf;
  ivf.nlist = 16;
  ivf.nprobe = 4;
  backends.push_back({"ivf", std::make_unique<IvfIndex>(ivf)});
  IvfPqConfig pq;
  pq.nlist = 16;
  pq.nprobe = 4;
  backends.push_back({"ivfpq", std::make_unique<IvfPqIndex>(pq)});
  HnswConfig hnsw;
  backends.push_back({"hnsw", std::make_unique<HnswIndex>(hnsw)});
  HnswConfig hnsw_i8;
  hnsw_i8.storage = ScalarType::kI8;
  backends.push_back({"hnsw_i8", std::make_unique<HnswIndex>(hnsw_i8)});
  for (Backend& b : backends) {
    const Status st = b.index->Build(vectors);
    UM_CHECK(st.ok()) << b.name << ": " << st.ToString();
  }
  return backends;
}

TEST(MultiSearchParityTest, AllBackendsMatchSingleQueryBitwise) {
  const int64_t n = 600, d = 16;
  const int k = 10;
  Tensor vectors = RandomUnitVectors(n, d, 11);
  Tensor queries = RandomUnitVectors(64, d, 12);
  std::vector<Backend> backends = MakeBackends(vectors);

  SearchWorkspace ws;  // one workspace reused across backends and shapes
  for (Backend& b : backends) {
    for (const int64_t nq : {int64_t{1}, int64_t{3}, int64_t{8}, int64_t{33},
                             int64_t{64}}) {
      std::vector<SearchResult> batched(nq * k);
      b.index->MultiSearch(queries.data(), nq, k, ws, batched.data());
      for (int64_t q = 0; q < nq; ++q) {
        const std::vector<SearchResult> single =
            b.index->Search(queries.data() + q * d, k);
        ASSERT_LE(single.size(), static_cast<size_t>(k));
        for (size_t r = 0; r < single.size(); ++r) {
          const SearchResult& got = batched[q * k + static_cast<int64_t>(r)];
          ASSERT_EQ(got.id, single[r].id)
              << b.name << " nq=" << nq << " q=" << q << " rank=" << r;
          // Bitwise equality, not near-equality: the batched path must
          // reduce every score in exactly the single-query order.
          ASSERT_EQ(got.score, single[r].score)
              << b.name << " nq=" << nq << " q=" << q << " rank=" << r;
        }
        for (size_t r = single.size(); r < static_cast<size_t>(k); ++r) {
          ASSERT_EQ(batched[q * k + static_cast<int64_t>(r)].id, -1)
              << b.name << " nq=" << nq << " q=" << q << " rank=" << r;
        }
      }
    }
  }
}

TEST(MultiSearchParityTest, PadsWithMinusOneWhenKExceedsCatalog) {
  const int64_t n = 5, d = 8;
  const int k = 12;
  Tensor vectors = RandomUnitVectors(n, d, 21);
  Tensor queries = RandomUnitVectors(3, d, 22);
  BruteForceIndex flat;
  ASSERT_TRUE(flat.Build(vectors).ok());
  SearchWorkspace ws;
  std::vector<SearchResult> out(3 * k);
  flat.MultiSearch(queries.data(), 3, k, ws, out.data());
  for (int64_t q = 0; q < 3; ++q) {
    for (int r = 0; r < k; ++r) {
      const SearchResult& got = out[q * k + r];
      if (r < n) {
        EXPECT_GE(got.id, 0) << "q=" << q << " rank=" << r;
      } else {
        EXPECT_EQ(got.id, -1) << "q=" << q << " rank=" << r;
        EXPECT_EQ(got.score, 0.0f);
      }
    }
  }
}

TEST(MultiSearchWorkspaceTest, SteadyStateMakesNoPoolAcquires) {
  const int64_t n = 400, d = 16;
  const int k = 8;
  const int64_t nq = 32;
  Tensor vectors = RandomUnitVectors(n, d, 31);
  Tensor queries = RandomUnitVectors(nq, d, 32);
  std::vector<Backend> backends = MakeBackends(vectors);

  SearchWorkspace ws;
  std::vector<SearchResult> out(nq * k);
  // Warm-up grows every workspace buffer to its high-water capacity.
  for (Backend& b : backends) {
    b.index->MultiSearch(queries.data(), nq, k, ws, out.data());
  }
  const BufferPool::Stats before = BufferPool::Global()->stats();
  for (int iter = 0; iter < 10; ++iter) {
    for (Backend& b : backends) {
      b.index->MultiSearch(queries.data(), nq, k, ws, out.data());
    }
  }
  const BufferPool::Stats after = BufferPool::Global()->stats();
  // Grow-once workspaces: a warmed thread performs zero pool traffic per
  // query — the allocation budget bench_batch_exec hard-gates.
  EXPECT_EQ(after.acquires, before.acquires);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(MultiSearchWorkspaceTest, VisitEpochSurvivesStampWrap) {
  SearchWorkspace ws;
  ws.BeginVisitEpoch(4);
  EXPECT_TRUE(ws.Visit(2));
  EXPECT_FALSE(ws.Visit(2));
  EXPECT_EQ(ws.visits_this_epoch(), 1);
  // A new epoch invalidates every stamp without touching the array.
  ws.BeginVisitEpoch(4);
  EXPECT_TRUE(ws.Visit(2));
  // Growing the universe keeps already-stamped slots valid.
  ws.BeginVisitEpoch(8);
  EXPECT_TRUE(ws.Visit(7));
  EXPECT_FALSE(ws.Visit(7));
}

}  // namespace
}  // namespace unimatch::ann
